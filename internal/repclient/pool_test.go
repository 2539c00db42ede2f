package repclient

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// accepted counts the connections the node has accepted and not killed.
func (n *fakeNode) accepted() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// TestPoolSharesOneConnection: concurrent first Gets of an address wait for
// one dial and share its client; a broken client stays pooled and redials
// itself; after Close every client is closed and a Get dials nothing.
func TestPoolSharesOneConnection(t *testing.T) {
	node := newFakeNode(t, 7, 0)
	p := NewPool(WithTimeout(3 * time.Second))
	got := make([]*Client, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := p.Get(node.addr())
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("caller %d got client %p, caller 0 %p", i, c, got[0])
		}
	}
	if n := node.accepted(); n != 1 {
		t.Fatalf("node accepted %d connections for 8 concurrent Gets, want 1", n)
	}
	if rtts := p.RTTs(); len(rtts) != 1 || rtts[node.addr()] <= 0 {
		t.Fatalf("RTTs() = %v; want the one dialed address", rtts)
	}

	// A broken connection is not evicted: the pooled client redials on its
	// next call.
	node.setKillOnHistory(true)
	if _, _, err := got[0].History("s", 0); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("history on a dropped connection: %v; want ErrConnBroken", err)
	}
	node.setKillOnHistory(false)
	c, err := p.Get(node.addr())
	if err != nil || c != got[0] {
		t.Fatalf("Get after the break = %p, %v; want the pooled client %p", c, err, got[0])
	}
	if _, total, err := c.History("s", 0); err != nil || total != 7 {
		t.Fatalf("history after the redial = %d, %v", total, err)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.History("s", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("pooled client after Close: %v; want ErrClosed", err)
	}
	other := newFakeNode(t, 8, 0)
	for _, addr := range []string{node.addr(), other.addr()} {
		if _, err := p.Get(addr); !errors.Is(err, ErrClosed) {
			t.Fatalf("Get(%s) after Close: %v; want ErrClosed", addr, err)
		}
	}
	if n := node.accepted() + other.accepted(); n != 2 {
		t.Fatalf("%d connections accepted in all, want the dial and the redial", n)
	}
}

// TestPoolRetriesAFailedDial: a dial that fails leaves nothing pooled, so
// the next Get dials again.
func TestPoolRetriesAFailedDial(t *testing.T) {
	dead := newFakeNode(t, 0, 0)
	dead.kill()
	p := NewPool(WithTimeout(time.Second))
	defer func() { _ = p.Close() }()
	for range 2 {
		if _, err := p.Get(dead.addr()); err == nil || errors.Is(err, ErrClosed) {
			t.Fatalf("Get of a dead address: %v; want its dial error", err)
		}
	}
	if rtts := p.RTTs(); len(rtts) != 0 {
		t.Fatalf("RTTs() = %v after failed dials; want none", rtts)
	}
}
