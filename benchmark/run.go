package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"slicer/internal/core"
	"slicer/internal/hprime"
	"slicer/internal/wire"
)

// config is one run of one workload.
type config struct {
	spec    spec
	scale   scale
	seed    int64
	seconds float64
	traced  bool
	scratch string // data directories go here
	outDir  string // the traced run writes trace-<workload>.json here
}

// samples are the raw observations of one run; metrics are computed from
// them once, at the end.
type samples struct {
	searchMs, orderMs, eqMs, coldMs []float64 // round latencies by kind (searchMs pools all)
	tracedMs, untracedMs            []float64 // search-phase rounds, by whether spans were recorded
	insertMs                        []float64
	gas, gasRequest, gasSetAc       []float64
	calldata, tokens, results       []float64
	wireBytes, reqBytes, respBytes  []float64
	encodeUs, decodeUs              []float64
	collectUs, witnessUs, verifyUs  []float64
	searchOverheadUs                []float64
	witnessColdUs                   []float64
	applyUpdateMs, updateOverheadMs []float64
	escrowAt, escrowUs              []float64 // requests already on the chain, and the escrow's time

	searchSeconds float64 // time in search-phase rounds
	searches      int     // of which settled and oracle-correct
	insertSeconds float64 // time in inserts
	inserted      int     // records
	cycles        int
	attempted     int
	failed        int

	// Registry counts over the counted epochs' rounds (traced run).
	countedRounds                    int
	chainRPCs, mgetRPCs, witnessRPCs float64
}

func (c config) records() int {
	if c.scale.records > 0 {
		return c.scale.records
	}
	return c.spec.records
}

func (c config) cycles() int {
	if c.scale.cycles > 0 {
		return c.scale.cycles
	}
	return c.spec.cycles
}

// bench is one set-up system with its query stream and plaintext oracle.
type bench struct {
	cfg config
	sys *system
	gen *stream
	rec *recorder
	ops int
	sm  samples
	dir string
}

func (b *bench) close() {
	b.sys.close()
	if b.dir != "" {
		_ = os.RemoveAll(b.dir) // scratch data of a finished run
	}
}

// setUp builds one system and warms its search path (hprime memo, connection
// buffers, chain state). It returns the set-up's wall time, warm-up included.
// No insert is part of it: after an insert every cached witness owes one lazy
// fold, which would make the whole search phase a cold one.
func setUp(cfg config, n int) (*bench, setupTimes, float64, error) {
	sc := cfg.scale
	db := dataset(cfg.records(), sc.params.Bits, cfg.seed)
	b := &bench{cfg: cfg, gen: newStream(db, sc.params.Bits, cfg.seed)}
	if cfg.spec.topo == topoDurable {
		b.dir = filepath.Join(cfg.scratch, fmt.Sprintf("data-%d-%d", os.Getpid(), n))
		if err := os.MkdirAll(b.dir, 0o755); err != nil {
			return nil, setupTimes{}, 0, err
		}
	}
	t0 := time.Now()
	sys, st, err := buildSystem(cfg.spec.topo, sc.params, db, cfg.traced, b.dir)
	if err != nil {
		return nil, st, 0, err
	}
	b.sys = sys
	for i := 0; i < sc.warmRounds; i++ {
		if _, err := b.search(b.gen.next(cfg.spec), kindSteady, false); err != nil {
			b.close()
			return nil, st, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	took := time.Since(t0).Seconds() - st.refInit
	b.sm = samples{attempted: b.sm.attempted, failed: b.sm.failed} // warm-up rounds are checked, not sampled
	return b, st, took, nil
}

// kind says which samples a round feeds: a search-phase round is the steady
// state and feeds the per-operator medians and the per-search sizes; a churn
// round only joins the pooled latency; a cold one is the first after an
// insert.
type kind int

const (
	kindSteady kind = iota
	kindChurn
	kindCold
)

// search runs one round, checks it against the oracle and files its samples.
// A round that does not settle or returns the wrong IDs is a failure; an
// error from the system ends the run.
func (b *bench) search(q core.Query, k kind, traceIt bool) (*roundOut, error) {
	var rec *recorder
	if traceIt {
		rec = b.rec
	}
	b.ops++
	onChain := b.sys.requests
	t0 := time.Now()
	out, err := b.sys.round(q, b.ops, rec, nil)
	if err != nil {
		return nil, err
	}
	ms := float64(time.Since(t0)) / 1e6
	sm := &b.sm
	if rec != nil && k == kindSteady {
		sp := rec.spans[out.escrowSpan]
		sm.escrowAt = append(sm.escrowAt, float64(onChain))
		sm.escrowUs = append(sm.escrowUs, float64(sp.End-sp.Start)/1e3)
	}
	sm.attempted++
	if k == kindSteady {
		sm.searchSeconds += ms / 1e3
	}
	if !out.settled || !sameIDs(out.ids, b.gen.db.answer(q)) {
		sm.failed++
		return out, nil
	}
	if k == kindSteady {
		sm.searches++
	}
	sm.searchMs = append(sm.searchMs, ms)
	switch {
	case k == kindCold:
		sm.coldMs = append(sm.coldMs, ms)
	case k == kindSteady && q.Op == core.OpEqual:
		sm.eqMs = append(sm.eqMs, ms)
	case k == kindSteady:
		sm.orderMs = append(sm.orderMs, ms)
	}
	if k == kindSteady {
		sm.gasRequest = append(sm.gasRequest, float64(out.gasRequest))
		sm.calldata = append(sm.calldata, float64(out.calldata))
	}
	return out, nil
}

// frame takes a counted round's token and result counts, gas and wire sizes
// and a sampled round's codec times.
func (b *bench) frame(out *roundOut, counted, sampled bool) error {
	if !counted && !sampled {
		return nil
	}
	wc, err := measureWire(out.req, out.resp, sampled)
	if err != nil {
		return err
	}
	sm := &b.sm
	if counted {
		sm.tokens = append(sm.tokens, float64(len(out.req.Tokens)))
		sm.results = append(sm.results, float64(out.results()))
		sm.gas = append(sm.gas, float64(out.gasSubmit))
		sm.wireBytes = append(sm.wireBytes, float64(wc.reqBytes+wc.respBytes))
		sm.reqBytes = append(sm.reqBytes, float64(wc.reqBytes))
		sm.respBytes = append(sm.respBytes, float64(wc.respBytes))
	}
	if sampled {
		sm.encodeUs = append(sm.encodeUs, wc.encodeUs)
		sm.decodeUs = append(sm.decodeUs, wc.decodeUs)
	}
	return nil
}

// shadow replays a round whose spans were recorded on the reference cloud.
// A live response that differs from the reference's, or does not verify off
// chain, is a failure.
func (b *bench) shadow(out *roundOut, k kind) {
	sm := &b.sm
	sc, err := b.sys.shadow(out)
	sm.attempted++
	if err != nil {
		fmt.Fprintln(os.Stderr, "shadow check:", err)
		sm.failed++
		return
	}
	if k == kindCold {
		sm.witnessColdUs = append(sm.witnessColdUs, sc.witnessUs)
		return
	}
	sp := b.rec.spans[out.searchSpan]
	sm.collectUs = append(sm.collectUs, sc.collectUs)
	sm.witnessUs = append(sm.witnessUs, sc.witnessUs)
	sm.verifyUs = append(sm.verifyUs, sc.verifyUs)
	sm.searchOverheadUs = append(sm.searchOverheadUs, float64(sp.End-sp.Start)/1e3-sc.collectUs-sc.witnessUs)
}

// renew closes the books of the current chain (over its whole life the fee
// must have moved exactly once per settled round) and starts the next one.
func (b *bench) renew() error {
	if err := b.balances(); err != nil {
		return err
	}
	return b.sys.newChain()
}

func (b *bench) balances() error {
	user, err := b.sys.chain.Balance(userAcct)
	if err != nil {
		return err
	}
	cloud, err := b.sys.chain.Balance(cloudAcct)
	if err != nil {
		return err
	}
	b.sm.attempted++
	moved := payment * b.sys.settled
	if user != initialBalance-moved || cloud != initialBalance+moved {
		fmt.Fprintf(os.Stderr, "balances: user %d cloud %d after %d settled rounds\n", user, cloud, b.sys.settled)
		b.sm.failed++
	}
	return nil
}

// searchPhase is the closed loop of one client: the next paid search starts
// when the chain has settled the last. It runs whole epochs, each on a new
// chain, so that every run times the same stretch of chain growth.
func (b *bench) searchPhase(d time.Duration) error {
	deadline := time.Now().Add(d)
	sm := &b.sm
	n := b.cfg.scale.epochRounds
	for e := 0; e < b.cfg.scale.minEpochs || time.Now().Before(deadline); e++ {
		if err := b.renew(); err != nil {
			return err
		}
		traceIt := b.rec != nil && e%2 == 0
		counted := e < countedEpochs
		from := snapshot(b.sys)
		for i := e * n; i < (e+1)*n; i++ {
			settled := len(sm.searchMs)
			out, err := b.search(b.gen.next(b.cfg.spec), kindSteady, traceIt)
			if err != nil {
				return err
			}
			if len(sm.searchMs) == settled {
				continue // failed round, already counted
			}
			if ms := sm.searchMs[settled]; traceIt {
				sm.tracedMs = append(sm.tracedMs, ms)
			} else {
				sm.untracedMs = append(sm.untracedMs, ms)
			}
			sampled := i%sampleEvery == 0
			if err := b.frame(out, counted, sampled); err != nil {
				return err
			}
			if sampled && traceIt {
				b.shadow(out, kindSteady)
			}
		}
		if counted {
			to := snapshot(b.sys)
			sm.countedRounds += n
			sm.chainRPCs += to.sum(`server="chain"`) - from.sum(`server="chain"`)
			sm.mgetRPCs += to.sum("slicer_shard_mget_total") - from.sum("slicer_shard_mget_total")
			witness := `method="` + wire.MethodCloudWitness + `"`
			sm.witnessRPCs += to.sum(witness) - from.sum(witness)
		}
	}
	return nil
}

// cycle is one turn of the churn phase: insert a batch, run one cold search,
// the warm equality searches, the other cold search.
func (b *bench) cycle() error {
	sm := &b.sm
	traceIt := b.rec != nil
	recs := b.gen.batch(b.cfg.scale.batch)
	b.ops++
	t0 := time.Now()
	ins, err := b.sys.insert(recs, b.ops, b.rec)
	if err != nil {
		return err
	}
	took := time.Since(t0)
	sm.insertMs = append(sm.insertMs, float64(took)/1e6)
	sm.insertSeconds += took.Seconds()
	sm.inserted += len(recs)
	sm.gasSetAc = append(sm.gasSetAc, float64(ins.gasSetAc))
	sm.attempted++
	sm.cycles++
	b.gen.db.add(recs)
	if b.sys.ref != nil {
		t1 := time.Now()
		if err := b.sys.ref.ApplyUpdate(ins.update); err != nil {
			return err
		}
		apply := float64(time.Since(t1)) / 1e6
		sm.applyUpdateMs = append(sm.applyUpdateMs, apply)
		if traceIt {
			up := b.rec.spans[ins.updateSpan]
			sm.updateOverheadMs = append(sm.updateOverheadMs, float64(up.End-up.Start)/1e6-apply)
		}
	}

	for _, second := range []bool{false, true} {
		out, err := b.search(b.gen.cold(second), kindCold, traceIt)
		if err != nil {
			return err
		}
		if traceIt && out.settled {
			b.shadow(out, kindCold)
		}
		for i := 0; i < cycleEq && !second; i++ {
			if _, err := b.search(b.gen.equal(), kindChurn, traceIt); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *bench) churnPhase() error {
	for c := 0; c < b.cfg.cycles(); c++ {
		if c%b.cfg.scale.epochCycles() == 0 {
			if err := b.renew(); err != nil {
				return err
			}
		}
		if err := b.cycle(); err != nil {
			return err
		}
	}
	return nil
}

// probe runs the cheating rounds: every tampered response must be refunded
// and yield no IDs, and the last chain's books must close like the others.
// The query is the cold one, which matches records on any dataset: an empty
// response has nothing to corrupt.
func (b *bench) probe() error {
	sm := &b.sm
	for i := 0; i < tamperProbes; i++ {
		tamper := dropEntry
		if i%2 == 1 {
			tamper = flipWitness
		}
		b.ops++
		out, err := b.sys.round(b.gen.cold(i%2 == 1), b.ops, nil, tamper)
		if err != nil {
			return fmt.Errorf("tamper probe: %w", err)
		}
		sm.attempted++
		if out.settled || out.ids != nil {
			fmt.Fprintln(os.Stderr, "tamper probe: a corrupted response was paid for")
			sm.failed++
		}
	}
	return b.balances()
}

// run sets the system up (several times, for a steady setup_s), runs the two
// timed phases and the probes, and turns the samples into metrics.
func run(cfg config) (*result, error) {
	setups := cfg.scale.setups
	if cfg.traced {
		setups = 1 // setup_s belongs to the untraced run
	}
	var (
		b      *bench
		st     setupTimes
		setupS []float64
	)
	for n := 0; n < setups; n++ {
		if b != nil {
			b.close()
			runtime.GC() // so that peak_rss_mb is one system's, not a sum that depends on when the collector ran
		}
		var took float64
		var err error
		if b, st, took, err = setUp(cfg, n); err != nil {
			return nil, err
		}
		setupS = append(setupS, took)
	}
	defer b.close()
	if cfg.traced {
		b.rec = newRecorder()
	}

	t0 := time.Now()
	if err := b.searchPhase(time.Duration(cfg.seconds * cfg.spec.searchShare * float64(time.Second))); err != nil {
		return nil, err
	}
	searched := time.Since(t0)
	// The churn phase's own warm-up: the first inserts build the lazy
	// update path's tables and the WAL's first segment.
	kept := b.sm
	mark := b.rec.len()
	for i := 0; i < cfg.scale.warmCycles; i++ {
		if err := b.cycle(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	kept.attempted, kept.failed = b.sm.attempted, b.sm.failed // a warm-up round that fails still fails the run
	b.sm = kept
	b.rec.truncate(mark)
	churnFrom := snapshot(b.sys)
	t0 = time.Now()
	if err := b.churnPhase(); err != nil {
		return nil, err
	}
	timed := (searched + time.Since(t0)).Seconds()
	after := snapshot(b.sys)
	if err := b.probe(); err != nil {
		return nil, err
	}

	sizes, err := b.sys.cloud.Sizes()
	if err != nil {
		return nil, err
	}
	sm := &b.sm
	res := newResult(cfg, timed)
	res.Attempted, res.Failed, res.Correct = sm.attempted, sm.failed, sm.failed == 0
	records := float64(len(b.gen.db.ids))

	if !cfg.traced {
		res.set("search_p50_ms", "ms", median(sm.searchMs), len(sm.searchMs))
		res.set("search_order_p50_ms", "ms", median(sm.orderMs), len(sm.orderMs))
		res.set("search_eq_p50_ms", "ms", median(sm.eqMs), len(sm.eqMs))
		res.set("search_cold_p50_ms", "ms", median(sm.coldMs), len(sm.coldMs))
		res.set("searches_per_s", "1/s", float64(sm.searches)/sm.searchSeconds, sm.searches)
		res.set("insert_p50_ms", "ms", median(sm.insertMs), len(sm.insertMs))
		res.set("insert_records_per_s", "1/s", float64(sm.inserted)/sm.insertSeconds, sm.cycles)
		res.set("gas_per_search", "gas", mean(sm.gas), len(sm.gas))
		res.set("wire_bytes_per_search", "bytes", mean(sm.wireBytes), len(sm.wireBytes))
		res.set("index_bytes_per_record", "bytes", float64(sizes.indexBytes+sizes.adsBytes)/records, 1)
		res.set("setup_s", "s", median(setupS), len(setupS))
		res.set("peak_rss_mb", "MB", peakRSSMB(), 1)
		return res, nil
	}

	rec := b.rec
	us := func(name string) (float64, int) { d := rec.durations(name); return median(d), len(d) }
	setUs := func(metric, span string) { v, n := us(span); res.set(metric, "us", v, n) }
	setMs := func(metric, span string) { v, n := us(span); res.set(metric, "ms", v/1e3, n) }

	res.set("slicer.round_p95_ms", "ms", quantile(sm.searchMs, 0.95), len(sm.searchMs))
	res.set("slicer.round_p99_ms", "ms", quantile(sm.searchMs, 0.99), len(sm.searchMs))
	ledger := rec.ledger()
	rounds := ledger["slicer.round"]
	res.set("slicer.unattributed_pct", "%", 100*rounds.SelfMs/rounds.TotalMs, rounds.Count)
	res.set("slicer.trace_overhead_pct", "%", 100*(median(sm.tracedMs)/median(sm.untracedMs)-1), len(sm.tracedMs))

	setUs("core.token_us", "core.token")
	res.set("core.tokens_per_search", "count", mean(sm.tokens), len(sm.tokens))
	res.set("core.results_per_search", "count", mean(sm.results), len(sm.results))
	res.set("core.collect_us", "us", median(sm.collectUs), len(sm.collectUs))
	res.set("core.witness_us", "us", median(sm.witnessUs), len(sm.witnessUs))
	res.set("core.witness_cold_us", "us", median(sm.witnessColdUs), len(sm.witnessColdUs))
	res.set("core.verify_us", "us", median(sm.verifyUs), len(sm.verifyUs))
	setUs("core.decrypt_us", "core.decrypt")
	setMs("core.owner_insert_ms", "core.owner_insert")
	res.set("core.apply_update_ms", "ms", median(sm.applyUpdateMs), len(sm.applyUpdateMs))
	res.set("core.build_s", "s", st.build, 1)
	res.set("core.cloud_init_s", "s", st.refInit, 1)

	res.set("hprime.cache_len", "count", float64(hprime.CacheLen()), 1)
	res.set("store.index_entries", "count", float64(sizes.entries), 1)
	res.set("store.index_bytes", "bytes", float64(sizes.indexBytes), 1)
	res.set("store.ads_bytes", "bytes", float64(sizes.adsBytes), 1)

	setUs("contract.tokens_hash_us", "contract.tokens_hash")
	setUs("contract.submit_encode_us", "contract.submit_encode")
	res.set("contract.submit_calldata_bytes", "bytes", median(sm.calldata), len(sm.calldata))
	res.set("contract.gas_request", "gas", median(sm.gasRequest), len(sm.gasRequest))
	res.set("contract.gas_setac", "gas", median(sm.gasSetAc), len(sm.gasSetAc))

	setUs("chain.escrow_mine_us", "chain.escrow_mine")
	setUs("chain.settle_mine_us", "chain.settle_mine")
	setUs("chain.setac_mine_us", "chain.setac_mine")
	res.set("chain.rpcs_per_round", "count", sm.chainRPCs/float64(sm.countedRounds), sm.countedRounds)
	res.set("chain.escrow_growth_us", "us", slope(sm.escrowAt, sm.escrowUs), len(sm.escrowUs))

	setUs("serving.search_us", "serving.search")
	res.set("serving.search_overhead_us", "us", median(sm.searchOverheadUs), len(sm.searchOverheadUs))
	res.set("serving.init_s", "s", st.cloudInit, 1)
	setMs("serving.update_ms", "serving.update")
	res.set("serving.update_overhead_ms", "ms", median(sm.updateOverheadMs), len(sm.updateOverheadMs))

	res.set("wire.req_bytes", "bytes", median(sm.reqBytes), len(sm.reqBytes))
	res.set("wire.resp_bytes", "bytes", median(sm.respBytes), len(sm.respBytes))
	res.set("wire.encode_us", "us", median(sm.encodeUs), len(sm.encodeUs))
	res.set("wire.decode_us", "us", median(sm.decodeUs), len(sm.decodeUs))

	res.set("shard.mget_rpcs_per_search", "count", sm.mgetRPCs/float64(sm.countedRounds), sm.countedRounds)
	res.set("shard.witness_rpcs_per_search", "count", sm.witnessRPCs/float64(sm.countedRounds), sm.countedRounds)
	res.set("shard.entries_skew", "ratio", entriesSkew(b.sys), 1)

	cycles := float64(sm.cycles)
	churnCloud, churnChain := after.cloudFS.minus(churnFrom.cloudFS), after.chainFS.minus(churnFrom.chainFS)
	res.set("durable.wal_bytes_per_insert", "bytes", float64(churnCloud.bytes)/cycles, sm.cycles)
	res.set("durable.fsyncs_per_cycle", "count", float64(churnCloud.fsyncs+churnChain.fsyncs)/cycles, sm.cycles)
	res.set("durable.snapshots", "count", float64(after.cloudFS.renames+after.chainFS.renames), 1)
	res.set("durable.dir_bytes_end", "bytes", float64(dirBytes(b.dir)), 1)
	// Fsync here is the sandbox's page cache answering, not a device.
	fsyncUs := append(b.sys.chainFS.fsyncLatencies(), b.sys.cloudFS.fsyncLatencies()...)
	fsyncP50 := 0.0
	if len(fsyncUs) > 0 {
		fsyncP50 = median(fsyncUs)
	}
	res.set("durable.wal_fsync_p50_us", "us", fsyncP50, len(fsyncUs))

	return res, writeTrace(cfg.outDir, traceFile{
		Workload: cfg.spec.name, Seed: cfg.seed, Ledger: ledger, Metrics: res.Metrics, Spans: rec.spans,
	})
}

// counters is a reading of everything counted outside the program under
// test: the traced run's registry and the counting filesystems.
type counters struct {
	series           map[string]float64
	cloudFS, chainFS fsCounts
}

func snapshot(s *system) counters {
	return counters{series: s.reg.Snapshot(), cloudFS: s.cloudFS.counts(), chainFS: s.chainFS.counts()}
}

// sum adds every request-count series whose name contains match.
func (c counters) sum(match string) float64 {
	var total float64
	for name, v := range c.series {
		if strings.Contains(name, match) &&
			(strings.HasPrefix(name, "slicer_rpc_requests_total{") || strings.HasPrefix(name, "slicer_shard_mget_total{")) {
			total += v
		}
	}
	return total
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.bytes - b.bytes, a.renames - b.renames, a.fsyncs - b.fsyncs}
}

// entriesSkew is the fullest shard's index entries over the mean; 1 when
// there is one cloud.
func entriesSkew(s *system) float64 {
	if s.router == nil {
		return 1
	}
	stats, err := s.router.ShardStats()
	if err != nil {
		return 0
	}
	var max, total float64
	for _, st := range stats {
		if st.Stats == nil {
			return 0
		}
		n := float64(st.Stats.IndexEntries)
		total += n
		if n > max {
			max = n
		}
	}
	return max / (total / float64(len(stats)))
}
