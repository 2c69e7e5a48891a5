package wire

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/durable"
	"slicer/internal/obs"
)

// startChainServer serves a two-validator network funding accts, with a
// metrics registry attached, and returns the network, the server, its
// registry and its address.
func startChainServer(t *testing.T, accts ...chain.Address) (*chain.Network, *ChainServer, *obs.Registry, string) {
	t.Helper()
	alloc := make(map[chain.Address]uint64, len(accts))
	for _, a := range accts {
		alloc[a] = 10_000
	}
	network, err := chain.NewNetwork(chain.NewRegistry(),
		[]chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")}, alloc)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewChainServer(network)
	reg := obs.NewRegistry()
	srv.SetObservability(reg, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return network, srv, reg, addr
}

// chainRequests sums the chain server's RPC request counters over every
// method and outcome.
func chainRequests(reg *obs.Registry) float64 {
	var n float64
	for name, v := range reg.Snapshot() {
		if strings.HasPrefix(name, "slicer_rpc_requests_total{") && strings.Contains(name, `server="chain"`) {
			n += v
		}
	}
	return n
}

func TestMineIsOneRoundTrip(t *testing.T) {
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	network, _, reg, addr := startChainServer(t, alice)
	cli, err := DialChain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	tx := &chain.Transaction{From: alice, To: bob, Nonce: 0, Value: 100, GasLimit: 100_000}
	before := chainRequests(reg)
	rc, err := cli.Mine(tx)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if got := chainRequests(reg) - before; got != 1 {
		t.Errorf("Mine cost %v chain RPCs, want 1", got)
	}
	want, ok := network.Leader().Receipt(tx.Hash())
	if !ok {
		t.Fatal("mined transaction has no receipt on the leader")
	}
	if !rc.Found || rc.Status != want.Status || rc.GasUsed != want.GasUsed ||
		rc.ContractAddress != want.ContractAddress || !bytes.Equal(rc.ReturnData, want.ReturnData) || rc.Err != want.Err {
		t.Errorf("Mine receipt = %+v, leader has %+v", rc, want)
	}

	tr := obs.NewTrace("mine")
	before = chainRequests(reg)
	if _, err := cli.MineTraced(&chain.Transaction{From: alice, To: bob, Nonce: 1, Value: 100, GasLimit: 100_000}, tr); err != nil {
		t.Fatalf("MineTraced: %v", err)
	}
	if got := chainRequests(reg) - before; got != 1 {
		t.Errorf("MineTraced cost %v chain RPCs, want 1", got)
	}
	byPhase := make(map[string]obs.SpanRecord)
	rpcs := 0
	for _, sp := range tr.Spans() {
		byPhase[sp.Phase] = sp
		if strings.HasPrefix(sp.Phase, "rpc:") {
			rpcs++
		}
	}
	if rpcs != 1 {
		t.Errorf("traced mine made %d RPC spans, want 1 (got %v)", rpcs, tr.Spans())
	}
	call, ok := byPhase["rpc:"+MethodChainMine]
	if !ok {
		t.Fatalf("merged trace missing rpc:%s (got %v)", MethodChainMine, tr.Spans())
	}
	for _, phase := range []string{"chain.submit", "chain.seal"} {
		sp, ok := byPhase[phase]
		switch {
		case !ok:
			t.Errorf("merged trace missing %q (got %v)", phase, tr.Spans())
		case sp.Party != "chain":
			t.Errorf("phase %q party = %q, want chain", phase, sp.Party)
		case sp.Offset < call.Offset || sp.Offset+sp.Duration > call.Offset+call.Duration:
			t.Errorf("phase %q %+v lies outside its RPC %+v", phase, sp, call)
		}
	}

	// The three-call protocol is gone, not kept beside chain.mine.
	if err := cli.Client().Call("chain.submit", tx, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("chain.submit = %v, want unknown method", err)
	}
}

// TestConcurrentMinesSealOneBlockEach has users on their own connections
// mine at once: each mine seals exactly its own transaction, so no block is
// empty and none carries two.
func TestConcurrentMinesSealOneBlockEach(t *testing.T) {
	const users = 8
	accts := make([]chain.Address, users)
	for i := range accts {
		accts[i] = chain.AddressFromString(fmt.Sprintf("user-%d", i))
	}
	network, _, _, addr := startChainServer(t, accts...)
	bob := chain.AddressFromString("bob")

	var wg sync.WaitGroup
	errs := make(chan error, users)
	for _, from := range accts {
		wg.Add(1)
		go func(from chain.Address) {
			defer wg.Done()
			cli, err := DialChain(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			rc, err := cli.Mine(&chain.Transaction{From: from, To: bob, Nonce: 0, Value: 100, GasLimit: 100_000})
			switch {
			case err != nil:
				errs <- fmt.Errorf("%s: %w", from, err)
			case !rc.Status:
				errs <- fmt.Errorf("%s: receipt %+v", from, rc)
			}
		}(from)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if h := network.Leader().Height(); h != users {
		t.Errorf("height = %d after %d mines, want %d", h, users, users)
	}
	for n := uint64(1); n <= network.Leader().Height(); n++ {
		if b := network.Leader().BlockByNumber(n); len(b.Txs) != 1 {
			t.Errorf("block %d carries %d txs, want 1", n, len(b.Txs))
		}
	}
}

// TestMineAdmissionFailureSealsNothing mines a transaction with a stale
// nonce: the call fails, and no block is sealed or audited.
func TestMineAdmissionFailureSealsNothing(t *testing.T) {
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	network, srv, _, addr := startChainServer(t, alice)
	led, err := audit.Open(audit.Options{FS: durable.NewMemFS(), Dir: "audit"})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	srv.EnableAudit(led)
	cli, err := DialChain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	seals := func() int {
		t.Helper()
		if err := led.Sync(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range led.Recent(0) {
			if r.Kind == audit.KindSeal {
				n++
			}
		}
		return n
	}
	if _, err := cli.Mine(&chain.Transaction{From: alice, To: bob, Nonce: 0, Value: 100, GasLimit: 100_000}); err != nil {
		t.Fatalf("Mine: %v", err)
	}
	height, sealed := network.Leader().Height(), seals()
	if sealed != 1 {
		t.Fatalf("one mine wrote %d seal records, want 1", sealed)
	}

	if rc, err := cli.Mine(&chain.Transaction{From: alice, To: bob, Nonce: 0, Value: 100, GasLimit: 100_000}); err == nil {
		t.Fatalf("stale-nonce Mine succeeded: %+v", rc)
	}
	if h := network.Leader().Height(); h != height {
		t.Errorf("height = %d after a failed admission, want %d", h, height)
	}
	if n := seals(); n != sealed {
		t.Errorf("failed admission wrote %d seal records", n-sealed)
	}
}
