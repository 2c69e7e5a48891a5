package shard

import (
	"encoding/json"
	"errors"
	"net"
	"testing"

	"slicer/internal/wire"
)

// TestPoolKeepsHealthyConnection pins what pool.call does with the connection
// after a failed call: an application error was decoded from a healthy
// connection, which goes back to the pool and serves the next call; a
// transport error drops it.
func TestPoolKeepsHealthyConnection(t *testing.T) {
	srv := wire.NewServer()
	srv.Handle("test.refuse", func(json.RawMessage) (any, error) {
		return nil, errors.New("unknown token")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	p := newPool("s1", addr, wire.ClientOptions{})
	defer p.close()
	var used []*wire.CloudClient
	refuse := func(cc *wire.CloudClient) error {
		used = append(used, cc)
		return cc.Client().Call("test.refuse", nil, nil)
	}
	for i := 0; i < 2; i++ {
		if err := p.call(refuse); err == nil || err.Error() != "unknown token" {
			t.Fatalf("call %d: err %v, want the application error", i, err)
		}
	}
	if used[0] != used[1] || len(p.idle) != 1 {
		t.Fatalf("application error dropped the connection: %d idle, reused %v", len(p.idle), used[0] == used[1])
	}

	// A peer that hangs up mid-call: both the pooled connection's attempt and
	// the one retry on a fresh dial fail at the transport, and neither
	// connection may come back.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	dead := newPool("s2", ln.Addr().String(), wire.ClientOptions{})
	defer dead.close()
	attempts := 0
	err = dead.call(func(cc *wire.CloudClient) error {
		attempts++
		return cc.Client().Call("test.refuse", nil, nil)
	})
	if !transient(err) {
		t.Fatalf("hung-up peer: err %v, want a transport error", err)
	}
	if attempts != 2 || len(dead.idle) != 0 {
		t.Fatalf("transport error: %d attempts (want 2), %d idle connections (want 0)", attempts, len(dead.idle))
	}
}
