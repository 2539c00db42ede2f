package repclient

import (
	"sync"
	"time"
)

// Pool holds one shared Client per address: a node's connections to its
// peers. Get probes an address on first use — dial, handshake and ping,
// timed: the work a first request pays — and hands every later caller that
// client. A client is never evicted: a broken one redials itself on its
// next call. Safe for concurrent use.
type Pool struct {
	opts []Option

	mu     sync.Mutex
	closed bool
	conns  map[string]*pooled
}

// pooled is one address's slot.
type pooled struct {
	dial sync.Mutex    // held by the caller dialing the address
	c    *Client       // set holding both dial and Pool.mu
	rtt  time.Duration // the first dial's round trip, guarded like c
}

// NewPool returns an empty pool whose clients are dialed with opts.
func NewPool(opts ...Option) *Pool {
	return &Pool{opts: opts, conns: make(map[string]*pooled)}
}

// Get returns the shared client for addr, dialing it if no caller has yet.
// Concurrent first callers wait for one dial. Callers must not Close the
// client. After Close, Get fails with ErrClosed and dials nothing.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	e := p.conns[addr]
	if e == nil {
		e = new(pooled)
		p.conns[addr] = e
	}
	c, closed := e.c, p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil {
		return c, nil
	}
	e.dial.Lock()
	defer e.dial.Unlock()
	if e.c != nil {
		return e.c, nil
	}
	start := time.Now()
	c, err := Dial(addr, p.opts...)
	if err != nil {
		return nil, err
	}
	if err := c.Ping(); err != nil {
		_ = c.Close()
		return nil, err
	}
	rtt := time.Since(start)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	e.c, e.rtt = c, rtt
	return c, nil
}

// Close closes every client; calls in flight on them fail. It is
// idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, e := range p.conns {
		if e.c != nil {
			_ = e.c.Close()
		}
	}
	return nil
}

// RTTs reports the round trip the first dial of each address measured.
func (p *Pool) RTTs() map[string]time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration, len(p.conns))
	for addr, e := range p.conns {
		if e.c != nil {
			out[addr] = e.rtt
		}
	}
	return out
}
