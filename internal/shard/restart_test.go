package shard

import (
	"fmt"
	"testing"

	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/wire"
	"slicer/internal/workload"
)

// TestRouterRestartRecovery reboots a durable router between init, a
// rebalance and a search: the WAL must hand the replacement router the
// trapdoor key (or searches cannot walk token chains) and the advanced
// routing-table epoch (or searches route ranges to the wrong shard after
// the source deleted them).
func TestRouterRestartRecovery(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	db := workload.Generate(workload.Config{N: 40, Bits: 8, Seed: 31})
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
	if err != nil {
		t.Fatal(err)
	}

	var specs []ShardSpec
	for i := 0; i < 3; i++ {
		srv := wire.NewCloudServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		specs = append(specs, ShardSpec{ID: fmt.Sprintf("s%d", i+1), Addr: addr})
	}
	dir := t.TempDir()
	boot := func() (*Router, string) {
		r, err := NewRouter(Options{Shards: specs, DataDir: dir, Fsync: durable.FsyncAlways})
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		addr, err := r.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		return r, addr
	}
	search := func(addr string, q core.Query) {
		t.Helper()
		cli, err := wire.DialCloud(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		req, err := user.Token(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cli.Search(req)
		if err != nil {
			t.Fatalf("search after restart: %v", err)
		}
		want, err := single.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResponses(t, got, want)
	}

	// Boot 1: init the fleet through the router, then shut the router down.
	r1, addr := boot()
	cli, err := wire.DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init: %v", err)
	}
	cli.Close()
	epoch0 := r1.Table().Epoch
	if err := r1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Boot 2: no re-init — the journaled trapdoor key must carry searches.
	// Then move one arc and shut down again.
	r2, addr2 := boot()
	if got := r2.Table().Epoch; got != epoch0 {
		t.Fatalf("recovered epoch %d, want %d", got, epoch0)
	}
	search(addr2, core.Less(200))
	tab := r2.Table()
	src := tab.Shards()[0]
	dst := tab.Shards()[1]
	rg := tab.Ranges(src)[0]
	if _, err := r2.Rebalance(rg[0], rg[1], dst, nil); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	epoch1 := r2.Table().Epoch
	if epoch1 != epoch0+1 {
		t.Fatalf("epoch after move = %d, want %d", epoch1, epoch0+1)
	}
	if err := r2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Boot 3: the moved arc must route to its new owner (the source deleted
	// it, so a stale table would lose results) and searches stay identical.
	r3, addr3 := boot()
	defer r3.Close()
	if got := r3.Table().Epoch; got != epoch1 {
		t.Fatalf("recovered epoch %d after move, want %d", got, epoch1)
	}
	if got := r3.Table().Lookup(rg[0]); got != dst {
		t.Fatalf("recovered table owns %#x by %q, want %q", rg[0], got, dst)
	}
	search(addr3, core.Less(200))
	search(addr3, core.Greater(0))
}
