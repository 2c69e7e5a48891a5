package shard

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"slicer/internal/core"
	"slicer/internal/wire"
	"slicer/internal/workload"
)

// fixture is one routed deployment next to the single cloud it must be
// byte-identical to.
type fixture struct {
	owner  *core.Owner
	user   *core.User
	db     []core.Record
	single *core.Cloud       // reference: one cloud holding the union index
	router *Router           // embedded router over n shards
	cli    *wire.CloudClient // a client speaking to the router as if it were one cloud
	addr   string            // the router's listen address
	nextID uint64            // IDs handed out by records, above any generated one
}

// newFixture boots n shard cloud servers and a router, initializes them from
// one owner, and builds the reference single cloud from the same state.
func newFixture(t testing.TB, nShards, nRecords int, seed int64, opts Options) *fixture {
	t.Helper()
	return newFixtureFronted(t, nShards, nRecords, seed, opts, nil)
}

// newFixtureFronted is newFixture with every shard reached through front,
// which maps a shard server's address to the one the router dials.
func newFixtureFronted(t testing.TB, nShards, nRecords int, seed int64, opts Options, front func(addr string) string) *fixture {
	t.Helper()
	params := core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256}
	owner, err := core.NewOwner(params)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	db := workload.Generate(workload.Config{N: nRecords, Bits: 8, Seed: seed})
	built, err := owner.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	single, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
	if err != nil {
		t.Fatalf("NewCloud: %v", err)
	}
	var specs []ShardSpec
	for i := 0; i < nShards; i++ {
		srv := wire.NewCloudServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("shard Listen: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		if front != nil {
			addr = front(addr)
		}
		specs = append(specs, ShardSpec{ID: fmt.Sprintf("s%d", i+1), Addr: addr})
	}
	opts.Shards = specs
	router, err := NewRouter(opts)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router Listen: %v", err)
	}
	t.Cleanup(func() { router.Close() })
	cli, err := wire.DialCloud(addr)
	if err != nil {
		t.Fatalf("DialCloud(router): %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("Init via router: %v", err)
	}
	return &fixture{owner: owner, user: user, db: db, single: single, router: router, cli: cli, addr: addr}
}

// insert sends one owner batch through the router and to the reference cloud
// alike; every keyword of the batch opens a new epoch.
func (f *fixture) insert(t testing.TB, recs []core.Record) {
	t.Helper()
	up, err := f.owner.Insert(recs)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := f.cli.Update(up); err != nil {
		t.Fatalf("Update via router: %v", err)
	}
	if err := f.single.ApplyUpdate(up); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	f.db = append(f.db, recs...)
	f.user.UpdateStates(f.owner.StatesSnapshot())
}

// records makes n fresh records of one value.
func (f *fixture) records(n int, value uint64) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		f.nextID++
		recs[i] = core.NewRecord(1<<20+f.nextID, value)
	}
	return recs
}

// mustEqualResponses asserts byte-identical JSON encodings — the exact bytes
// a wire client receives.
func mustEqualResponses(t testing.TB, got, want *core.SearchResponse) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal routed response: %v", err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal single response: %v", err)
	}
	if string(gj) != string(wj) {
		t.Fatalf("routed response differs from single cloud:\n routed: %s\n single: %s", gj, wj)
	}
}

func (f *fixture) checkQuery(t testing.TB, q core.Query) {
	t.Helper()
	req, err := f.user.Token(q)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	routed := f.checkRequest(t, req)
	if routed == nil {
		return
	}
	ids, err := f.user.Decrypt(routed)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	want2 := workload.Answer(f.db, q)
	if len(ids) != len(want2) {
		t.Fatalf("routed search returned %d ids, want %d", len(ids), len(want2))
	}
}

// checkRequest sends one request to the router and to the reference cloud:
// both fail with the same text, or both answer the same bytes and the routed
// answer passes public verification. It returns the routed response, nil
// when both refused.
func (f *fixture) checkRequest(t testing.TB, req *core.SearchRequest) *core.SearchResponse {
	t.Helper()
	routed, routedErr := f.cli.Search(req)
	want, wantErr := f.single.Search(req)
	if (routedErr == nil) != (wantErr == nil) {
		t.Fatalf("error divergence: routed=%v single=%v", routedErr, wantErr)
	}
	if wantErr != nil {
		if routedErr.Error() != wantErr.Error() {
			t.Fatalf("error text divergence: routed=%q single=%q", routedErr, wantErr)
		}
		return nil
	}
	mustEqualResponses(t, routed, want)
	if err := core.VerifyResponse(f.owner.AccumulatorPub(), f.owner.Ac(), req, routed); err != nil {
		t.Fatalf("routed response failed public verification: %v", err)
	}
	return routed
}

// TestScatterGatherEquivalence is the property test of the acceptance
// criteria: for shard counts 1, 2, 3 and 7, routed searches are
// byte-identical to a single cloud and pass unmodified public verification.
func TestScatterGatherEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := newFixture(t, n, 50, int64(100+n), Options{})
			rng := rand.New(rand.NewSource(int64(n)))
			queries := []core.Query{
				core.Less(1),
				core.Less(128),
				core.Less(255),
				core.Greater(10),
				core.Equal(f.db[0].Attrs[0].Value),
				core.Equal(201), // likely no match / unknown keyword path
			}
			for i := 0; i < 4; i++ {
				queries = append(queries, core.Less(uint64(rng.Intn(256))))
			}
			for _, q := range queries {
				f.checkQuery(t, q)
			}
		})
	}
}

// TestBroadcastReachesEveryShard: with the lowest-ID shard down, cloud.init
// through the router fails, yet the other two shards were still initialized
// and answer cloud.stats, and router.shards lists them beside s1's error.
func TestBroadcastReachesEveryShard(t *testing.T) {
	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256})
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	built, err := owner.Build(workload.Generate(workload.Config{N: 20, Bits: 8, Seed: 5}))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var specs []ShardSpec
	for i := 0; i < 3; i++ {
		srv := wire.NewCloudServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("shard Listen: %v", err)
		}
		if i == 0 {
			srv.Close()
		} else {
			t.Cleanup(func() { srv.Close() })
		}
		specs = append(specs, ShardSpec{ID: fmt.Sprintf("s%d", i+1), Addr: addr})
	}
	router, err := NewRouter(Options{Shards: specs})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("router Listen: %v", err)
	}
	t.Cleanup(func() { router.Close() })
	cli, err := wire.DialCloud(addr)
	if err != nil {
		t.Fatalf("DialCloud(router): %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Init(owner.CloudInit(built.Index), true); err == nil {
		t.Fatal("init through the router succeeded with s1 down")
	}
	for _, sp := range specs[1:] {
		cc, err := wire.DialCloud(sp.Addr)
		if err != nil {
			t.Fatalf("DialCloud(%s): %v", sp.ID, err)
		}
		st, err := cc.Stats()
		cc.Close()
		if err != nil {
			t.Fatalf("%s stats after the failed init: %v", sp.ID, err)
		}
		if st.Primes != len(built.Primes) {
			t.Fatalf("%s holds %d primes, want %d", sp.ID, st.Primes, len(built.Primes))
		}
	}
	rows, err := router.ShardStats()
	if err != nil {
		t.Fatalf("ShardStats: %v", err)
	}
	for i, row := range rows {
		if down := i == 0; row.ID != specs[i].ID || (row.Err != "") != down || (row.Stats == nil) != down {
			t.Fatalf("router.shards row %d = %+v, want %s reachable=%v", i, row, specs[i].ID, !down)
		}
	}
}

// TestRoutedUpdateEquivalence inserts through the router and re-checks
// equivalence: the delta must split by address while the ADS replicates.
func TestRoutedUpdateEquivalence(t *testing.T) {
	f := newFixture(t, 3, 40, 9, Options{})
	for i := 0; i < 3; i++ {
		up, err := f.owner.Insert([]core.Record{core.NewRecord(uint64(5000+i), uint64(40+i))})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := f.cli.Update(up); err != nil {
			t.Fatalf("Update via router: %v", err)
		}
		if err := f.single.ApplyUpdate(up); err != nil {
			t.Fatalf("ApplyUpdate: %v", err)
		}
		f.db = append(f.db, core.NewRecord(uint64(5000+i), uint64(40+i)))
	}
	f.user.UpdateStates(f.owner.StatesSnapshot())
	f.checkQuery(t, core.Less(255))
	f.checkQuery(t, core.Equal(41))
}

// TestRebalanceEquivalence moves every arc of one shard onto another and
// re-checks byte-identical search before, during is covered by the race
// test, and after the move.
func TestRebalanceEquivalence(t *testing.T) {
	f := newFixture(t, 3, 60, 17, Options{})
	f.checkQuery(t, core.Less(200))
	table := f.router.Table()
	src := table.Shards()[0]
	dst := table.Shards()[1]
	for _, rg := range table.Ranges(src) {
		if _, err := f.router.Rebalance(rg[0], rg[1], dst, nil); err != nil {
			t.Fatalf("Rebalance[%#x,%#x): %v", rg[0], rg[1], err)
		}
	}
	after := f.router.Table()
	if after.Epoch == table.Epoch {
		t.Fatal("rebalance did not advance the table epoch")
	}
	for _, rg := range table.Ranges(src) {
		if got := after.Lookup(rg[0]); got != dst {
			t.Fatalf("moved arc %#x still owned by %q", rg[0], got)
		}
	}
	f.checkQuery(t, core.Less(200))
	f.checkQuery(t, core.Less(1))
	f.checkQuery(t, core.Greater(0))
}

// TestSearchDuringRebalance is the race test: searches hammer the router
// while ranges move between shards; zero searches may fail and every
// response must verify. Run with -race.
func TestSearchDuringRebalance(t *testing.T) {
	f := newFixture(t, 3, 60, 23, Options{})
	req, err := f.user.Token(core.Less(200))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	want, err := f.single.Search(req)
	if err != nil {
		t.Fatalf("single Search: %v", err)
	}
	wantJSON, _ := json.Marshal(want)

	var stop atomic.Bool
	var searches, failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := wire.DialCloud(f.addr)
			if err != nil {
				failures.Add(1)
				t.Errorf("dial: %v", err)
				return
			}
			defer cli.Close()
			for !stop.Load() {
				resp, err := cli.Search(req)
				searches.Add(1)
				if err != nil {
					failures.Add(1)
					t.Errorf("search during rebalance: %v", err)
					return
				}
				got, _ := json.Marshal(resp)
				if string(got) != string(wantJSON) {
					failures.Add(1)
					t.Error("search during rebalance diverged from single cloud")
					return
				}
			}
		}()
	}
	table := f.router.Table()
	ids := table.Shards()
	// Shuffle every arc of s1 to s2, then every arc of s2 to s3.
	moves := 0
	for hop := 0; hop < 2 && !t.Failed(); hop++ {
		src, dst := ids[hop%len(ids)], ids[(hop+1)%len(ids)]
		cur := f.router.Table()
		for _, rg := range cur.Ranges(src) {
			if _, err := f.router.Rebalance(rg[0], rg[1], dst, nil); err != nil {
				t.Errorf("Rebalance: %v", err)
				break
			}
			moves++
		}
	}
	stop.Store(true)
	wg.Wait()
	if moves == 0 {
		t.Fatal("no moves executed")
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d in-flight searches failed", failures.Load(), searches.Load())
	}
	t.Logf("%d searches stayed correct across %d range moves", searches.Load(), moves)
}

// FuzzScatterGatherEquivalence drives random datasets, shard counts and
// queries through the router and the reference cloud; any byte divergence
// or verification failure is a crash.
func FuzzScatterGatherEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(20), int64(1), uint8(100), uint8(0))
	f.Add(uint8(1), uint8(5), int64(2), uint8(0), uint8(1))
	f.Add(uint8(7), uint8(30), int64(3), uint8(255), uint8(2))
	f.Add(uint8(2), uint8(12), int64(4), uint8(42), uint8(0))
	// nRec >= 40: nRec/40 routed inserts put the queried lists on several epochs.
	f.Add(uint8(3), uint8(140), int64(5), uint8(77), uint8(2))
	f.Add(uint8(2), uint8(251), int64(6), uint8(130), uint8(0))
	f.Add(uint8(0), uint8(97), int64(7), uint8(9), uint8(1))
	shardCounts := []int{1, 2, 3, 7}
	f.Fuzz(func(t *testing.T, shardSel, nRec uint8, seed int64, val, op uint8) {
		nShards := shardCounts[int(shardSel)%len(shardCounts)]
		n := 5 + int(nRec)%40
		fx := newFixture(t, nShards, n, seed, Options{batch: 4})
		for round := 0; round < int(nRec)/40; round++ {
			// 1..11 records of the queried value: list lengths on both sides
			// of the first (4) and second (8) probe window.
			recs := fx.records(1+(int(nRec)+7*round)%11, uint64(val))
			fx.insert(t, append(recs, fx.records(1+round, (uint64(val)+uint64(seed&1)+1)&255)...))
		}
		var q core.Query
		switch op % 3 {
		case 0:
			q = core.Less(uint64(val%255) + 1)
		case 1:
			q = core.Greater(uint64(val))
		default:
			q = core.Equal(uint64(val))
		}
		fx.checkQuery(t, q)
	})
}

// windowEdges are list lengths (in probe windows of b counters) where a walk
// that doubles its window changes its round count or fills a window exactly.
func windowEdges(b int) []int {
	return []int{b - 1, b, b + 1, 3*b - 1, 3 * b, 7 * b, 7*b + 1}
}

// TestFrontierWindowEdges builds two keywords over 21 routed inserts whose
// per-epoch lists sit on the probe-window edges, and checks routed == single
// cloud on them — also in the two states a range move passes through: the
// range on both shards, and on the destination alone before the window shuts.
func TestFrontierWindowEdges(t *testing.T) {
	const batch = 4
	f := newFixture(t, 3, 30, 41, Options{batch: batch})
	edges := windowEdges(batch)
	for e := 0; e < 3*len(edges); e++ {
		recs := f.records(edges[e%len(edges)], 77)
		f.insert(t, append(recs, f.records(edges[(e+3)%len(edges)], 200)...))
	}
	queries := []core.Query{
		core.Equal(77), core.Equal(200), core.Less(78), core.Less(255), core.Greater(100), core.Greater(199),
	}
	check := func() {
		t.Helper()
		for _, q := range queries {
			f.checkQuery(t, q)
		}
	}
	check()

	// Mid-move: everything s1 holds is drained onto s2 under a window over
	// the whole address space, so every label is read from two shards.
	r := f.router
	for cursor := []byte(nil); ; {
		page, err := r.exportPage("s1", 0, 0, cursor, nil)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if err := r.importPage("s2", page, nil); err != nil {
			t.Fatalf("import: %v", err)
		}
		if cursor = page.Next; cursor == nil {
			break
		}
	}
	r.mu.Lock()
	r.window = &moveWindow{src: "s1", dst: "s2"}
	r.mu.Unlock()
	check()
	// The source's copy gone, the table not yet advanced: what s1 owned is
	// found on the window's other side only.
	err := r.pools["s1"].call(func(cc *wire.CloudClient) error {
		_, err := cc.DeleteRange(0, 0)
		return err
	})
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	check()
}

// mgetCounter fronts shard servers with a forwarder that records how many
// labels every cloud.mget carried.
type mgetCounter struct {
	mu     sync.Mutex
	labels []int
}

func (c *mgetCounter) front(t testing.TB) func(addr string) string {
	return func(addr string) string {
		srv := wire.NewServer()
		for _, m := range []string{wire.MethodCloudInit, wire.MethodCloudUpdate, wire.MethodCloudMGet, wire.MethodCloudWitness} {
			m := m
			srv.Handle(m, func(params json.RawMessage) (any, error) {
				if m == wire.MethodCloudMGet {
					var msg wire.MGetMsg
					if err := json.Unmarshal(params, &msg); err != nil {
						return nil, err
					}
					c.mu.Lock()
					c.labels = append(c.labels, len(msg.Labels))
					c.mu.Unlock()
				}
				back, err := wire.Dial(addr)
				if err != nil {
					return nil, err
				}
				defer back.Close()
				var out json.RawMessage
				err = back.Call(m, params, &out)
				return out, err
			})
		}
		fronted, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("front Listen: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		return fronted
	}
}

// take returns the label counts recorded since the last take.
func (c *mgetCounter) take() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.labels
	c.labels = nil
	return out
}

// TestFrontierRoundCount pins the walk's schedule against one counting shard
// (so a scatter round is exactly one cloud.mget): a token costs the rounds of
// its longest list, 1 + ⌊log2(n_max/batch + 1)⌋, however many epochs it
// spans, and no round carries more than maxRoundLabels — not even for a
// token claiming far more epochs than the index holds.
func TestFrontierRoundCount(t *testing.T) {
	const batch = 4
	var counter mgetCounter
	f := newFixtureFronted(t, 1, 20, 43, Options{batch: batch}, counter.front(t))
	value := uint64(0)
	for present := true; present; {
		value++
		present = len(workload.Answer(f.db, core.Equal(value))) > 0
	}
	search := func(req *core.SearchRequest) (rounds int) {
		t.Helper()
		counter.take()
		f.checkRequest(t, req)
		sizes := counter.take()
		for _, n := range sizes {
			if n > maxRoundLabels {
				t.Fatalf("a cloud.mget carried %d labels, cap %d", n, maxRoundLabels)
			}
		}
		return len(sizes)
	}
	nMax := 0
	for _, n := range windowEdges(batch) {
		f.insert(t, f.records(n, value))
		nMax = max(nMax, n)
		req, err := f.user.Token(core.Equal(value))
		if err != nil || len(req.Tokens) != 1 {
			t.Fatalf("Token: %d tokens, err %v", len(req.Tokens), err)
		}
		bound := bits.Len(uint(nMax/batch + 1))
		if rounds := search(req); rounds > bound {
			t.Fatalf("longest list %d over %d epochs: %d scatter rounds, want <= %d",
				nMax, req.Tokens[0].Epoch+1, rounds, bound)
		}
	}

	// A token may name any epoch; the walk admits epochs under the cap, so
	// the rounds grow with the labels asked for and no message does.
	req, err := f.user.Token(core.Equal(value))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	const hostile = 20000
	req.Tokens[0].Epoch = hostile
	bound := (hostile+1)*batch/maxRoundLabels + 2 + bits.Len(uint(nMax/batch+1))
	if rounds := search(req); rounds > bound {
		t.Fatalf("epoch %d: %d scatter rounds, want <= %d", hostile, rounds, bound)
	}
}
