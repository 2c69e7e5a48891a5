package shard

import (
	"errors"
	"io"
	"net"
	"sync"

	"slicer/internal/wire"
)

// pool is a lazy connection pool to one shard. Concurrent scatter batches
// each check a connection out, so parallel tokens never serialize on a
// single client mutex; a connection that fails at the transport is dropped,
// not returned, and the next checkout dials fresh — which is also how the
// router survives a shard restart without any explicit reconnect step.
type pool struct {
	id   string
	addr string
	opts wire.ClientOptions

	mu     sync.Mutex
	idle   []*wire.CloudClient
	closed bool
}

func newPool(id, addr string, opts wire.ClientOptions) *pool {
	return &pool{id: id, addr: addr, opts: opts}
}

func (p *pool) get() (*wire.CloudClient, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("shard: router closed")
	}
	if n := len(p.idle); n > 0 {
		cc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return cc, nil
	}
	p.mu.Unlock()
	return wire.DialCloudOpts(p.addr, p.opts)
}

func (p *pool) put(cc *wire.CloudClient) {
	p.mu.Lock()
	if p.closed || len(p.idle) >= 8 {
		p.mu.Unlock()
		_ = cc.Close()
		return
	}
	p.idle = append(p.idle, cc)
	p.mu.Unlock()
}

// transient reports whether an RPC failure looks like a transport fault (a
// dropped or refused connection) rather than an application error from the
// shard. Application errors arrive as decoded response strings and match
// none of these.
func transient(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, wire.ErrCallTimeout)
}

// call checks a connection out, runs fn, and returns the connection to the
// pool unless it failed at the transport: an application error (a shard
// answering "unknown token") was decoded from a healthy connection. A
// transport-level failure closes the connection and retries once on a fresh
// dial — covering both a restarted shard and an idle-reaped pooled connection.
func (p *pool) call(fn func(cc *wire.CloudClient) error) error {
	for attempt := 0; ; attempt++ {
		cc, err := p.get()
		if err != nil {
			if attempt == 0 && transient(err) {
				continue
			}
			return err
		}
		err = fn(cc)
		if !transient(err) {
			p.put(cc)
			return err
		}
		_ = cc.Close()
		if attempt > 0 {
			return err
		}
	}
}

// close drops every idle connection; in-flight checkouts close on return.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, cc := range idle {
		_ = cc.Close()
	}
}
