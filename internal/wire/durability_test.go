package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/workload"
)

// durableCloud spins up a cloud server persisting into fsys/dir.
func durableCloud(t *testing.T, fsys durable.FS, dir string, opts DurabilityOptions) (*CloudServer, *CloudClient, *RecoveryStats) {
	t.Helper()
	opts.FS = fsys
	opts.Dir = dir
	srv := NewCloudServer()
	stats, err := srv.EnableDurability(opts)
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli, stats
}

func TestCloudServerDurableRestart(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	db := workload.Generate(workload.Config{N: 30, Bits: 8, Seed: 11})
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}

	fsys := durable.NewMemFS()
	srv1, cli1, stats := durableCloud(t, fsys, "cloud", DurabilityOptions{Fsync: durable.FsyncNever})
	if !(stats.Replayed == 0 && stats.SnapshotIndex == 0) {
		t.Fatalf("fresh dir recovered %+v", stats)
	}
	if err := cli1.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for i := 0; i < 3; i++ {
		up, err := owner.Insert([]core.Record{core.NewRecord(uint64(2000+i), uint64(40+i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli1.Update(up); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
	cli1.Close()
	// Graceful shutdown syncs the journal even under FsyncNever.
	if err := srv1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2, cli2, stats := durableCloud(t, fsys, "cloud", DurabilityOptions{})
	defer srv2.Close()
	defer cli2.Close()
	if stats.Replayed != 4 || stats.Skipped != 0 { // init + 3 updates
		t.Fatalf("recovery stats %+v, want 4 replayed", stats)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	req, err := user.Token(core.Equal(41))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli2.Search(req)
	if err != nil {
		t.Fatalf("post-restart Search: %v", err)
	}
	if err := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
		t.Fatalf("post-restart response rejected: %v", err)
	}
	// The restored server refuses a second init like a live one.
	if err := cli2.Init(owner.CloudInit(built.Index), true); err == nil {
		t.Error("re-init of recovered cloud succeeded")
	}
}

// TestLegacyCloudInitBootsAndReplays sends a cloud.init whose params still
// carry the serving knobs core.Params once had (SearchWorkers,
// EagerWitnessRefresh, RebuildThreshold, FixedBaseTeeth), non-zero, as a WAL
// record written before they were removed would. The server must boot from
// it, replay it after a restart, and serve responses byte-identical to a
// cloud initialized with the current message.
func TestLegacyCloudInitBootsAndReplays(t *testing.T) {
	initBootsAndReplays(t, func(msg map[string]any) {
		legacy := msg["params"].(map[string]any)
		legacy["SearchWorkers"] = 3
		legacy["EagerWitnessRefresh"] = true
		legacy["RebuildThreshold"] = 8
		legacy["FixedBaseTeeth"] = 6
	})
}

// TestCloudInitWithoutWitnessesBootsAndReplays sends a cached cloud.init
// without the owner's witnesses, as a client, or a WAL record, from before
// they were shipped does. The server must compute them itself, live and on
// replay, and answer byte for byte as a cloud that was given them.
func TestCloudInitWithoutWitnessesBootsAndReplays(t *testing.T) {
	initBootsAndReplays(t, func(msg map[string]any) {
		if _, ok := msg["witnesses"]; !ok {
			t.Fatal("a cached cloud.init carries no witnesses")
		}
		delete(msg, "witnesses")
	})
}

// initBootsAndReplays inits a durable cloud with the owner's cached
// cloud.init edited by edit, applies an update, and requires the cloud, live
// and replayed after a restart, to be a cached one that answers like a
// reference cloud initialized with the unedited message.
func initBootsAndReplays(t *testing.T, edit func(msg map[string]any)) {
	t.Helper()
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build(workload.Generate(workload.Config{N: 40, Bits: 8, Seed: 17}))
	if err != nil {
		t.Fatal(err)
	}
	var msg map[string]any
	raw, err := json.Marshal(EncodeCloudInit(owner.CloudInit(built.Index), true))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &msg); err != nil {
		t.Fatal(err)
	}
	edit(msg)
	editedInit, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}

	ref := NewCloudServer()
	addr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refCli, err := DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer refCli.Close()
	if err := refCli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatal(err)
	}
	fsys := durable.NewMemFS()
	srv1, cli1, _ := durableCloud(t, fsys, "cloud", DurabilityOptions{Fsync: durable.FsyncNever})
	if err := cli1.c.Call(MethodCloudInit, json.RawMessage(editedInit), nil); err != nil {
		t.Fatalf("edited init: %v", err)
	}
	batch := workload.Generate(workload.Config{N: 6, Bits: 8, Seed: 18, FirstID: 5000})
	up, err := owner.Insert(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CloudClient{refCli, cli1} {
		if err := c.Update(up); err != nil {
			t.Fatal(err)
		}
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	same := func(when string, srv *CloudServer, cli *CloudClient) {
		t.Helper()
		cloud, err := srv.get()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := cloud.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var st struct{ Mode core.WitnessMode }
		if err := json.Unmarshal(snap, &st); err != nil {
			t.Fatal(err)
		}
		if st.Mode != core.WitnessCached {
			t.Fatalf("%s: cloud runs witness mode %d, want cached", when, st.Mode)
		}
		for _, q := range []core.Query{core.Less(100), core.Greater(30), core.Equal(batch[0].Attrs[0].Value)} {
			req, err := user.Token(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCli.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cli.Search(req)
			if err != nil {
				t.Fatalf("%s: search %v: %v", when, q, err)
			}
			rawWant, _ := json.Marshal(want)
			rawGot, _ := json.Marshal(got)
			if !bytes.Equal(rawGot, rawWant) {
				t.Fatalf("%s: query %v: edited-init cloud answers differently", when, q)
			}
		}
	}
	same("live", srv1, cli1)
	cli1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, cli2, stats := durableCloud(t, fsys, "cloud", DurabilityOptions{})
	defer srv2.Close()
	defer cli2.Close()
	if stats.Replayed != 2 || stats.Skipped != 0 { // edited init + update
		t.Fatalf("recovery stats %+v, want 2 replayed", stats)
	}
	same("replayed", srv2, cli2)
}

func TestCloudServerSnapshotTriggerCompactsWAL(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]core.Record{core.NewRecord(1, 9)})
	if err != nil {
		t.Fatal(err)
	}
	fsys := durable.NewMemFS()
	srv1, cli1, _ := durableCloud(t, fsys, "cloud", DurabilityOptions{snapEvery: 2})
	if err := cli1.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		up, err := owner.Insert([]core.Record{core.NewRecord(uint64(100+i), uint64(50+i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli1.Update(up); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
	cli1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// 6 records with a snapshot every 2: recovery must come from a
	// snapshot, with only the journaled tail replayed.
	srv2, cli2, stats := durableCloud(t, fsys, "cloud", DurabilityOptions{})
	defer srv2.Close()
	defer cli2.Close()
	if stats.SnapshotIndex == 0 {
		t.Fatalf("no snapshot used: %+v", stats)
	}
	if stats.Replayed >= 6 {
		t.Fatalf("snapshot did not absorb the WAL prefix: %+v", stats)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	req, err := user.Token(core.Equal(54))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli2.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
		t.Fatalf("snapshot-recovered response rejected: %v", err)
	}
}

// TestCrashRecoveryEndToEnd is the paper's fair-exchange flow run across a
// cloud crash: the owner sets up a durable cloud server and chain, applies
// updates (anchoring each acknowledged accumulator on chain via SetAc and
// checkpointing its own state), then the cloud is killed by a torn write in
// the middle of an update. A fresh process recovers from the data
// directory, and a prefix-cover range search served by the recovered cloud
// must verify — off chain against the owner's accumulator, and on chain
// through the contract's escrow/submit settlement.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256, PrefixIndex: true}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	db := []core.Record{
		core.NewRecord(1, 10), core.NewRecord(2, 20),
		core.NewRecord(3, 30), core.NewRecord(4, 40),
	}
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}

	// Chain with the Slicer contract, itself durable on its own disk.
	ownerAcct := chain.AddressFromString("owner")
	userAcct := chain.AddressFromString("user")
	cloudAcct := chain.AddressFromString("cloud")
	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		t.Fatal(err)
	}
	vals := []chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")}
	alloc := map[chain.Address]uint64{ownerAcct: 1_000_000, userAcct: 1_000_000, cloudAcct: 1_000_000}
	network, err := chain.NewNetwork(registry, vals, alloc)
	if err != nil {
		t.Fatal(err)
	}
	chainFS := durable.NewMemFS()
	chainSrv := NewChainServer(network)
	if _, err := chainSrv.EnableDurability(DurabilityOptions{FS: chainFS, Dir: "chain"}); err != nil {
		t.Fatal(err)
	}
	chainAddr, err := chainSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chainCli, err := DialChain(chainAddr)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := chainCli.Mine(contract.DeployTx(ownerAcct, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 5_000_000))
	if err != nil || !rc.Status {
		t.Fatalf("deploy: %+v, %v", rc, err)
	}
	contractAddr := rc.ContractAddress

	// Durable cloud, fsync on every record: an acknowledged update
	// survives kill -9.
	cloudFS := durable.NewMemFS()
	srv1, cli1, _ := durableCloud(t, cloudFS, "cloud", DurabilityOptions{Fsync: durable.FsyncAlways})
	if err := cli1.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatal(err)
	}

	// Apply updates; after each *acknowledged* one, anchor the new
	// accumulator on chain and checkpoint the owner. The checkpoint plays
	// the role of the owner process's own durable state.
	setAc := func() {
		t.Helper()
		nonce, err := chainCli.Nonce(ownerAcct)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := chainCli.Mine(&chain.Transaction{
			From: ownerAcct, To: contractAddr, Nonce: nonce,
			GasLimit: 1_000_000, Data: contract.SetAcData(owner.Ac()),
		})
		if err != nil || !rc.Status {
			t.Fatalf("SetAc: %+v, %v", rc, err)
		}
	}
	ownerCkpt, err := owner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		up, err := owner.Insert([]core.Record{core.NewRecord(uint64(10+i), uint64(50+10*i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := cli1.Update(up); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		setAc()
		if ownerCkpt, err = owner.Marshal(); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the cloud mid-update: the WAL frame tears half-way and the
	// machine dies. The update is never acknowledged, so the owner's
	// checkpoint and the on-chain accumulator still describe the state
	// after update 3.
	doomed, err := owner.Insert([]core.Record{core.NewRecord(99, 200)})
	if err != nil {
		t.Fatal(err)
	}
	cloudFS.FailNextWriteShort()
	if err := cli1.Update(doomed); err == nil {
		t.Fatal("update during crash was acknowledged")
	}
	cli1.Close()
	_ = srv1.Close() // the journal is broken; close errors are expected
	cloudFS.Crash()

	// The chain "process" also restarts: a fresh network from the same
	// genesis recovers every sealed block from its own data dir.
	chainCli.Close()
	if err := chainSrv.Close(); err != nil {
		t.Fatal(err)
	}
	chainFS.Crash()
	network2, err := chain.NewNetwork(registry, vals, alloc)
	if err != nil {
		t.Fatal(err)
	}
	chainSrv2 := NewChainServer(network2)
	chStats, err := chainSrv2.EnableDurability(DurabilityOptions{FS: chainFS, Dir: "chain"})
	if err != nil {
		t.Fatal(err)
	}
	if chStats.Replayed == 0 && chStats.SnapshotIndex == 0 {
		t.Fatalf("chain recovered nothing: %+v", chStats)
	}
	chainAddr2, err := chainSrv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer chainSrv2.Close()
	chainCli2, err := DialChain(chainAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer chainCli2.Close()
	if h, err := chainCli2.Height(); err != nil || h != 4 {
		t.Fatalf("recovered chain height %d, %v; want 4 (deploy + 3 SetAc)", h, err)
	}

	// Restart the cloud from its data directory. The torn record must be
	// truncated and everything acknowledged must be back.
	srv2, cli2, stats := durableCloud(t, cloudFS, "cloud", DurabilityOptions{Fsync: durable.FsyncAlways})
	defer srv2.Close()
	defer cli2.Close()
	if stats.Truncated == 0 {
		t.Fatalf("torn record not truncated: %+v", stats)
	}
	if stats.Replayed+stats.Skipped < 4 && stats.SnapshotIndex == 0 {
		t.Fatalf("acknowledged records missing after crash: %+v", stats)
	}

	// The owner restarts from its checkpoint (state as of the last
	// acknowledged update) and a user derives fresh credentials from it.
	owner2, err := core.UnmarshalOwner(ownerCkpt)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner2.ClientState())
	if err != nil {
		t.Fatal(err)
	}

	// Range search over the recovered cloud, verified off chain...
	req, err := user.RangeTokens("", 10, 70)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli2.Search(req)
	if err != nil {
		t.Fatalf("post-crash RangeSearch: %v", err)
	}
	if err := core.VerifyResponse(owner2.AccumulatorPub(), owner2.Ac(), req, resp); err != nil {
		t.Fatalf("post-crash response rejected: %v", err)
	}
	ids, err := user.Decrypt(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]bool{1: true, 2: true, 3: true, 4: true, 10: true, 11: true, 12: true}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected id %d in %v", id, ids)
		}
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("missing ids after recovery: %v (got %v)", want, ids)
	}

	// ...and on chain: escrow the payment, submit the recovered cloud's
	// results, and let the contract verify them against the anchored
	// accumulator. ReturnData[0] == 1 is the contract's "proofs verified,
	// payment settled" verdict.
	th, err := contract.TokensHash(req.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	reqID := chain.HashBytes([]byte("recovery-request"), th[:])
	nonce, err := chainCli2.Nonce(userAcct)
	if err != nil {
		t.Fatal(err)
	}
	rc, err = chainCli2.Mine(&chain.Transaction{
		From: userAcct, To: contractAddr, Nonce: nonce, Value: 500,
		GasLimit: 1_000_000, Data: contract.RequestData(reqID, cloudAcct, th),
	})
	if err != nil || !rc.Status {
		t.Fatalf("escrow after recovery: %+v, %v", rc, err)
	}
	submit, err := contract.SubmitData(reqID, owner2.AccumulatorPub().Marshal(), owner2.Ac(), resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err = chainCli2.Nonce(cloudAcct)
	if err != nil {
		t.Fatal(err)
	}
	rc, err = chainCli2.Mine(&chain.Transaction{
		From: cloudAcct, To: contractAddr, Nonce: nonce,
		GasLimit: 50_000_000, Data: submit,
	})
	if err != nil || !rc.Status {
		t.Fatalf("submit after recovery: %+v, %v", rc, err)
	}
	if len(rc.ReturnData) != 1 || rc.ReturnData[0] != 1 {
		t.Fatalf("on-chain verification failed after recovery: return %v", rc.ReturnData)
	}

	// The never-acknowledged update can simply be re-shipped: the
	// recovered cloud is exactly at the pre-crash acknowledged state.
	if err := cli2.Update(doomed); err != nil {
		t.Fatalf("re-shipping the torn update: %v", err)
	}
}

func TestChainServerDurableRestart(t *testing.T) {
	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		t.Fatal(err)
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	vals := []chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")}
	alloc := map[chain.Address]uint64{alice: 10_000}
	fsys := durable.NewMemFS()

	boot := func() (*ChainServer, *ChainClient, *RecoveryStats) {
		network, err := chain.NewNetwork(registry, vals, alloc)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewChainServer(network)
		stats, err := srv.EnableDurability(DurabilityOptions{FS: fsys, Dir: "chain", snapEvery: 2})
		if err != nil {
			t.Fatalf("EnableDurability: %v", err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := DialChain(addr)
		if err != nil {
			t.Fatal(err)
		}
		return srv, cli, stats
	}

	srv1, cli1, _ := boot()
	for i := uint64(0); i < 5; i++ {
		rc, err := cli1.Mine(&chain.Transaction{
			From: alice, To: bob, Nonce: i, Value: 100, GasLimit: 100_000,
		})
		if err != nil || !rc.Status {
			t.Fatalf("tx %d: %+v, %v", i, rc, err)
		}
	}
	cli1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	fsys.Crash() // FsyncAlways: every sealed block must still be there

	srv2, cli2, stats := boot()
	defer srv2.Close()
	defer cli2.Close()
	if stats.SnapshotIndex == 0 {
		t.Fatalf("expected snapshot-based recovery with snapEvery=2: %+v", stats)
	}
	h, err := cli2.Height()
	if err != nil || h != 5 {
		t.Fatalf("recovered height %d, %v; want 5", h, err)
	}
	bal, err := cli2.Balance(bob)
	if err != nil || bal != 500 {
		t.Fatalf("recovered balance %d, %v; want 500", bal, err)
	}
	// The recovered chain keeps sealing: nonces continue where they left
	// off.
	rc, err := cli2.Mine(&chain.Transaction{
		From: alice, To: bob, Nonce: 5, Value: 100, GasLimit: 100_000,
	})
	if err != nil || !rc.Status {
		t.Fatalf("post-recovery tx: %+v, %v", rc, err)
	}
}

// TestChainServerRefusesUnreplayableJournal: a journaled block that no
// longer validates (here: one flipped bit in its state root, which is also
// what a journal sealed under another state-root definition looks like)
// must fail recovery by name, not be skipped — skipping would bring the
// chain up at genesis, ready to fork its own history.
func TestChainServerRefusesUnreplayableJournal(t *testing.T) {
	alice := chain.AddressFromString("alice")
	vals := []chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")}
	network := func() *chain.Network {
		n, err := chain.NewNetwork(chain.NewRegistry(), vals, map[chain.Address]uint64{alice: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	sealer := network()
	if err := sealer.SubmitTx(&chain.Transaction{From: alice, To: chain.AddressFromString("bob"), Value: 100, GasLimit: 100_000}); err != nil {
		t.Fatal(err)
	}
	block, err := sealer.Step()
	if err != nil {
		t.Fatal(err)
	}
	block.Header.StateRoot[0] ^= 1
	rec, err := chain.EncodeBlock(block)
	if err != nil {
		t.Fatal(err)
	}

	fsys := durable.NewMemFS()
	empty, err := durable.Recover(fsys, "chain")
	if err != nil {
		t.Fatal(err)
	}
	log, err := durable.OpenLog(fsys, "chain", durable.LogOptions{Start: empty.NextIndex})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv := NewChainServer(network())
	defer srv.Close()
	stats, err := srv.EnableDurability(DurabilityOptions{FS: fsys, Dir: "chain"})
	if err == nil {
		t.Fatalf("recovery skipped an invalid block: %+v", stats)
	}
	if !strings.Contains(err.Error(), "block 1") {
		t.Errorf("error does not name the block: %v", err)
	}
}
