package wire

import (
	"encoding/json"
	"fmt"
	"testing"

	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/store"
	"slicer/internal/workload"
)

// rpc is one request as the server's dispatcher receives it.
type rpc struct {
	method string
	params json.RawMessage
}

// invoke dispatches req to the handler the server registered for its
// method, exactly as a connection would, and returns the handler's error:
// nil is the success acknowledgement the client would receive.
func invoke(s *Server, req rpc) error {
	s.mu.Lock()
	e, ok := s.handlers[req.method]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("no handler for %s", req.method)
	}
	_, err := e.fn(req.params, nil, Meta{})
	return err
}

// mustParams marshals v into raw RPC params.
func mustParams(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// crashCase is one journaled RPC under the crash sweep. boot recovers a
// durable server from whatever fsys holds and returns its dispatcher and a
// view of the state the RPC changes; prep runs on a fresh directory before
// the swept call and must succeed.
type crashCase struct {
	name string
	boot func(fsys durable.FS) (*Server, func() string, error)
	prep []rpc
	call rpc
}

// sweepCrashPoints runs c.call once to count the write operations it makes,
// then replays prep and the call on a fresh MemFS once per crash point n:
// the first n writes of the call succeed, every later one fails, the
// machine loses power, and a fresh server recovers from the same
// directory. The old server is abandoned, not closed, as kill -9 leaves it.
// Recovery must never fail; a call that returned success must have its
// effect afterwards, and a failed call leaves the state before or after it.
func sweepCrashPoints(t *testing.T, c crashCase) {
	start := func() (*durable.MemFS, *Server) {
		t.Helper()
		fsys := durable.NewMemFS()
		srv, _, err := c.boot(fsys)
		if err != nil {
			t.Fatalf("boot on an empty directory: %v", err)
		}
		for _, req := range c.prep {
			if err := invoke(srv, req); err != nil {
				t.Fatalf("prep %s: %v", req.method, err)
			}
		}
		return fsys, srv
	}
	recovered := func(fsys *durable.MemFS, when string) string {
		t.Helper()
		fsys.Crash()
		_, view, err := c.boot(fsys)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", when, err)
		}
		return view()
	}

	fsys, _ := start()
	before := recovered(fsys, "before the call")
	fsys, srv := start()
	from := fsys.WriteOps()
	if err := invoke(srv, c.call); err != nil {
		t.Fatalf("%s without a fault: %v", c.call.method, err)
	}
	writes := fsys.WriteOps() - from
	after := recovered(fsys, "after the call")
	if before == after {
		t.Fatalf("%s has no visible effect (%s)", c.call.method, after)
	}
	if writes < 2 {
		t.Fatalf("%s made %d writes; a journaled call appends and syncs", c.call.method, writes)
	}

	t.Logf("%s: %d crash points", c.call.method, writes+1)
	for n := 0; n <= writes; n++ {
		fsys, srv := start()
		fsys.FailAfterWriteOps(n)
		err := invoke(srv, c.call)
		when := fmt.Sprintf("crash after %d of %d writes", n, writes)
		got := recovered(fsys, when)
		switch {
		case err == nil && got != after:
			t.Errorf("%s: %s was acknowledged but recovery has %s, want %s", when, c.call.method, got, after)
		case err != nil && got != before && got != after:
			t.Errorf("%s: failed %s left %s, want %s or %s", when, c.call.method, got, before, after)
		}
	}
}

// TestAckedWritesSurviveCrashAtEveryWrite is the durable-before-ack
// contract of every journaled RPC, checked by crashing at each write the
// call makes (fsync on every record, a snapshot after every record so the
// snapshot and compaction writes are crash points too).
func TestAckedWritesSurviveCrashAtEveryWrite(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build(workload.Generate(workload.Config{N: 20, Bits: 8, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	initReq := rpc{MethodCloudInit, mustParams(t, EncodeCloudInit(owner.CloudInit(built.Index), true))}
	up, err := owner.Insert([]core.Record{core.NewRecord(900, 77), core.NewRecord(901, 12)})
	if err != nil {
		t.Fatal(err)
	}
	var syn [2]store.Label
	var synPay [2]store.Payload
	for i := range syn {
		syn[i][0] = 0xee
		syn[i][store.EntrySize-1] = byte(i + 1)
		synPay[i][0] = byte(0xa0 + i)
	}
	var victim store.Label
	built.Index.Range(func(l store.Label, _ store.Payload) bool { victim = l; return false })

	bootCloud := func(fsys durable.FS) (*Server, func() string, error) {
		cs := NewCloudServer()
		stats, err := cs.EnableDurability(DurabilityOptions{FS: fsys, Dir: "cloud", Fsync: durable.FsyncAlways, snapEvery: 1})
		if err == nil && stats.Skipped != 0 {
			err = fmt.Errorf("%d records skipped on replay", stats.Skipped)
		}
		view := func() string {
			cloud, err := cs.get()
			if err != nil {
				return "uninitialized"
			}
			return fmt.Sprintf("index %d, primes %d, ac %x", cloud.IndexLen(), cloud.PrimeCount(), cloud.Ac())
		}
		return cs.srv, view, err
	}

	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	mine := func(nonce uint64) rpc {
		return rpc{MethodChainMine, mustParams(t, &chain.Transaction{From: alice, To: bob, Nonce: nonce, Value: 100, GasLimit: 100_000})}
	}
	bootChain := func(fsys durable.FS) (*Server, func() string, error) {
		network, err := chain.NewNetwork(chain.NewRegistry(),
			[]chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")},
			map[chain.Address]uint64{alice: 10_000})
		if err != nil {
			return nil, nil, err
		}
		cs := NewChainServer(network)
		_, err = cs.EnableDurability(DurabilityOptions{FS: fsys, Dir: "chain", Fsync: durable.FsyncAlways, snapEvery: 1})
		view := func() string {
			head := network.Leader().Head()
			return fmt.Sprintf("height %d, state root %x", head.Header.Number, head.Header.StateRoot)
		}
		return cs.srv, view, err
	}

	for _, c := range []crashCase{
		{name: "cloud.init", boot: bootCloud, call: initReq},
		{name: "cloud.update", boot: bootCloud, prep: []rpc{initReq},
			call: rpc{MethodCloudUpdate, mustParams(t, EncodeUpdate(up))}},
		{name: "cloud.import", boot: bootCloud, prep: []rpc{initReq},
			call: rpc{MethodCloudImport, mustParams(t, &ImportMsg{
				Labels:   [][]byte{syn[0][:], syn[1][:]},
				Payloads: [][]byte{synPay[0][:], synPay[1][:]},
			})}},
		{name: "cloud.deleteRange", boot: bootCloud, prep: []rpc{initReq},
			call: rpc{MethodCloudDelete, mustParams(t, &DeleteRangeMsg{Lo: store.Addr(victim), Hi: store.Addr(victim) + 1})}},
		{name: "chain.mine", boot: bootChain, prep: []rpc{mine(0)}, call: mine(1)},
	} {
		t.Run(c.name, func(t *testing.T) { sweepCrashPoints(t, c) })
	}
}
