package repclient

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"
)

// DialCluster connects to the fastest-responding of several equivalent
// nodes. Every address is probed concurrently through one Pool (dial,
// handshake, ping, measuring the full round trip — the work a first request
// pays); the fastest connection is kept and the rest closed. Dialing fails
// only when every node is unreachable. When the kept connection breaks, the
// client redials through the other addresses in ascending RTT order, so
// callers land on the nearest surviving node.
func DialCluster(addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("repclient: no addresses")
	}
	if len(addrs) == 1 {
		return Dial(addrs[0], opts...)
	}
	p := NewPool(opts...)
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = p.Get(addr)
		}()
	}
	wg.Wait()
	rtts, best := p.RTTs(), ""
	for a, d := range rtts {
		if best == "" || d < rtts[best] {
			best = a
		}
	}
	if best == "" {
		return nil, fmt.Errorf("repclient: all %d nodes unreachable (first: %w)", len(addrs), errs[0])
	}
	// The winner leaves the pool, whose Close then closes the losers.
	c := p.conns[best].c
	delete(p.conns, best)
	_ = p.Close()
	c.mu.Lock()
	c.addrs, c.rtts = append([]string(nil), addrs...), rtts
	c.mu.Unlock()
	return c, nil
}

// Addr reports the address of the node the client currently talks to.
func (c *Client) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// RTTs reports the last measured round trip per probed address (only
// addresses that answered a probe appear). Nil for single-address clients.
func (c *Client) RTTs() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.rtts)
}

// failoverOrderLocked returns the addresses to try on a redial: the current
// address first (a transient blip should not migrate the client), then the
// rest by ascending probed RTT, unprobed addresses last. Called with c.mu
// held.
func (c *Client) failoverOrderLocked() []string {
	rtt := func(a string) time.Duration {
		if d, ok := c.rtts[a]; ok {
			return d
		}
		return math.MaxInt64
	}
	rest := slices.DeleteFunc(slices.Clone(c.addrs), func(a string) bool { return a == c.addr })
	slices.SortStableFunc(rest, func(a, b string) int { return cmp.Compare(rtt(a), rtt(b)) })
	return append([]string{c.addr}, rest...)
}

// connectAnyLocked establishes a connection to any configured address in
// failover order. On success c.addr is the connected address. Called with
// c.mu held.
func (c *Client) connectAnyLocked(ctx context.Context) error {
	var firstErr error
	for _, addr := range c.failoverOrderLocked() {
		c.addr = addr
		if err := c.connectLocked(ctx); err == nil {
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
