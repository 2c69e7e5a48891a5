package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"time"

	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/mhash"
	"slicer/internal/obs"
	"slicer/internal/prf"
	"slicer/internal/store"
	"slicer/internal/trapdoor"
	"slicer/internal/wire"
)

// Router-only RPC methods, served next to the cloud methods the router
// proxies. Admin tooling (slicer-cli, the smoke test) drives rebalances and
// inspects placement through these.
const (
	MethodRouterTable     = "router.table"
	MethodRouterShards    = "router.shards"
	MethodRouterRebalance = "router.rebalance"
)

// firstWindow is the first probe window of a walk: how many counters each
// epoch of a token asks for in its first scatter round. An epoch that fills
// its window doubles it, so the probes past the end of a list number at most
// max(n, firstWindow).
const firstWindow = 16

// ringEpochs bounds how many past table epochs are retained in memory for
// inspection via router.table.
const ringEpochs = 8

// maxRoundLabels caps the labels one scatter round of a walk carries, however
// many epochs the token claims and however far their windows have doubled.
const maxRoundLabels = 4096

// ShardSpec names one shard and where to dial it.
type ShardSpec struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Options configures a Router.
type Options struct {
	// Shards is the static shard list (at least one).
	Shards []ShardSpec
	// DataDir, when set, journals every routing-table epoch and the init's
	// trapdoor key so a restarted router recovers its exact view. Empty
	// runs the router in-memory.
	DataDir string
	// FS overrides the filesystem for DataDir (nil: the real one).
	FS durable.FS
	// Fsync / FsyncInterval select the WAL durability policy.
	Fsync         durable.Policy
	FsyncInterval time.Duration
	// Registry receives slicer_shard_* series (may be nil).
	Registry *obs.Registry
	// Logger records scatter and rebalance lifecycle events (may be nil).
	Logger *slog.Logger
	// Client tunes the connections the router opens to shards.
	Client wire.ClientOptions
	// batch (0: firstWindow) lets tests shrink the first probe window.
	batch int
}

// moveWindow is the double-read window of an in-flight range move: labels
// addressed in [lo, hi) are fetched from both src and dst so a search racing
// the move sees every entry no matter which side of the cutover it lands on.
type moveWindow struct {
	lo, hi   uint64
	src, dst string
}

func (w *moveWindow) contains(addr uint64) bool {
	return addr >= w.lo && (w.hi == 0 || addr < w.hi)
}

// routerMetrics is the slicer_shard_* series (all nil-safe when no registry
// is attached).
type routerMetrics struct {
	searches    *obs.Counter
	fanout      *obs.Histogram
	mgets       *obs.CounterVec
	doubleReads *obs.Counter
	epoch       *obs.Gauge
	rebalActive *obs.Gauge
	rebalMoved  *obs.Counter
	rebalGauge  *obs.Gauge
	rebalances  *obs.CounterVec
}

// journalRec is one record of the router's WAL: a routing-table epoch, the
// init's trapdoor public key, or both.
type journalRec struct {
	Table       *Table `json:"table,omitempty"`
	TrapdoorPub []byte `json:"trapdoorPub,omitempty"`
}

// Router fronts N cloud shards as one Cloud: it serves the cloud.* wire
// methods itself, scattering searches and splitting init/update by address,
// so an unmodified user/owner/verifier stack works against it byte-for-byte.
type Router struct {
	srv     *wire.Server
	specs   []ShardSpec
	pools   map[string]*pool
	batch   int
	logger  *slog.Logger
	started time.Time

	mu      sync.RWMutex // guards table, history, tpk, window
	table   *Table
	history []*Table
	tpk     *trapdoor.PublicKey
	window  *moveWindow

	// updateMu serializes owner updates against a move's cutover phase, so
	// the final catch-up export cannot race an update into the source shard
	// after it was drained.
	updateMu sync.Mutex

	// moveGate flushes in-flight fetch rounds before a move deletes the
	// range from its source: a fetch round holds the read side across its
	// placement snapshot and its shard RPCs, and Rebalance takes the write
	// side once between the cutover and the source delete. Without it, a
	// round routed against pre-cutover placement could take its secondary
	// (destination) read before the entry arrived there and its primary
	// (source) read after the delete — finding the label on neither side.
	moveGate sync.RWMutex

	jmu sync.Mutex
	wal *durable.Log // nil without a data dir

	traces *obs.TraceStore
	met    routerMetrics
}

// NewRouter builds a router over a static shard list, recovering any
// journaled routing state from Options.DataDir.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	r := &Router{
		srv:     wire.NewServer(),
		specs:   append([]ShardSpec(nil), opts.Shards...),
		pools:   make(map[string]*pool, len(opts.Shards)),
		batch:   firstWindow,
		logger:  opts.Logger,
		started: time.Now(),
	}
	if opts.batch > 0 {
		r.batch = opts.batch
	}
	if r.logger == nil {
		r.logger = obs.Nop()
	}
	ids := make([]string, 0, len(opts.Shards))
	for _, s := range opts.Shards {
		if s.ID == "" || s.Addr == "" {
			return nil, fmt.Errorf("shard: spec needs both ID and address")
		}
		if _, dup := r.pools[s.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", s.ID)
		}
		r.pools[s.ID] = newPool(s.ID, s.Addr, opts.Client)
		ids = append(ids, s.ID)
	}
	if err := r.recover(opts); err != nil {
		return nil, err
	}
	if r.table == nil {
		t, err := newTable(ids, ringVnodes)
		if err != nil {
			return nil, err
		}
		if err := r.journal(journalRec{Table: t}); err != nil {
			return nil, err
		}
		r.table = t
	}
	for _, id := range r.table.Shards() {
		if _, ok := r.pools[id]; !ok {
			return nil, fmt.Errorf("shard: recovered table references unknown shard %q", id)
		}
	}
	r.registerMetrics(opts.Registry)
	r.traces = obs.NewTraceStore()
	r.srv.SetTraceStore(r.traces)
	r.srv.HandleMeta(wire.MethodCloudInit, r.handleInit)
	r.srv.HandleMeta(wire.MethodCloudUpdate, r.handleUpdate)
	r.srv.HandleMeta(wire.MethodCloudSearch, r.handleSearch)
	r.srv.Handle(wire.MethodCloudStats, r.handleStats)
	r.srv.Handle(MethodRouterTable, r.handleTable)
	r.srv.Handle(MethodRouterShards, r.handleShards)
	r.srv.HandleTraced(MethodRouterRebalance, r.handleRebalance)
	return r, nil
}

// recover replays the router's WAL (if any): the newest table record and
// trapdoor key win, exactly the state this router last acknowledged.
func (r *Router) recover(opts Options) error {
	if opts.DataDir == "" {
		return nil
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = durable.OS
	}
	rec, err := durable.Recover(fsys, opts.DataDir)
	if err != nil {
		return err
	}
	for _, e := range rec.Entries {
		var jr journalRec
		if err := json.Unmarshal(e, &jr); err != nil {
			r.logger.Warn("skipping unreplayable router WAL record", "err", err)
			continue
		}
		if jr.Table != nil {
			if err := jr.Table.Validate(); err != nil {
				return err
			}
			r.pushTable(jr.Table)
		}
		if len(jr.TrapdoorPub) > 0 {
			tpk, err := trapdoor.UnmarshalPublic(jr.TrapdoorPub)
			if err != nil {
				return fmt.Errorf("shard: recover trapdoor key: %w", err)
			}
			r.tpk = tpk
		}
	}
	wal, err := durable.OpenLog(fsys, opts.DataDir, durable.LogOptions{
		Fsync:         opts.Fsync,
		FsyncInterval: opts.FsyncInterval,
		Start:         rec.NextIndex,
	})
	if err != nil {
		return err
	}
	r.wal = wal
	return nil
}

// pushTable installs a table and retains the previous epoch in the bounded
// history. Caller holds r.mu or runs before the server listens.
func (r *Router) pushTable(t *Table) {
	if r.table != nil {
		r.history = append(r.history, r.table)
		if len(r.history) > ringEpochs {
			r.history = r.history[len(r.history)-ringEpochs:]
		}
	}
	r.table = t
	r.met.epoch.Set(float64(t.Epoch))
}

// journal appends one record to the router WAL (no-op without a data dir).
func (r *Router) journal(rec journalRec) error {
	b, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	r.jmu.Lock()
	defer r.jmu.Unlock()
	if r.wal == nil {
		return nil
	}
	if _, err := r.wal.Append(b); err != nil {
		return fmt.Errorf("shard: journal: %w", err)
	}
	return nil
}

func (r *Router) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.srv.SetMetrics(reg, "router")
	r.met.searches = reg.Counter("slicer_shard_searches_total",
		"Scatter-gather searches served by the router.")
	r.met.fanout = reg.HistogramBuckets("slicer_shard_scatter_fanout",
		"Distinct shards contacted per search token.",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	r.met.mgets = reg.CounterVecOpts("slicer_shard_mget_total",
		"Batched label fetches issued, by shard.",
		[]string{"shard"}, obs.VecOpts{MaxCardinality: 128})
	r.met.doubleReads = reg.Counter("slicer_shard_double_reads_total",
		"Label fetches duplicated to both sides of a move window.")
	r.met.epoch = reg.Gauge("slicer_shard_table_epoch",
		"Current routing-table epoch.")
	r.met.rebalActive = reg.Gauge("slicer_shard_rebalance_active",
		"1 while a range move is in flight.")
	r.met.rebalMoved = reg.Counter("slicer_shard_rebalance_entries_total",
		"Index entries shipped by range moves since start.")
	r.met.rebalGauge = reg.Gauge("slicer_shard_rebalance_progress",
		"Fraction of the current range move's entries shipped (0 when idle).")
	r.met.rebalances = reg.CounterVecOpts("slicer_shard_rebalances_total",
		"Range moves finished, by outcome.",
		[]string{"outcome"}, obs.VecOpts{MaxCardinality: 4})
	r.met.epoch.Set(float64(r.currentTable().Epoch))
}

// Server exposes the underlying RPC server (logger, idle timeout, traces).
func (r *Router) Server() *wire.Server { return r.srv }

// Traces exposes the router's propagated-trace store for admin endpoints.
func (r *Router) Traces() *obs.TraceStore { return r.traces }

// Listen binds the router and returns its address.
func (r *Router) Listen(addr string) (string, error) { return r.srv.Listen(addr) }

// Close shuts the router down: the RPC server, every shard connection, and
// the WAL.
func (r *Router) Close() error {
	err := r.srv.Close()
	for _, p := range r.pools {
		p.close()
	}
	r.jmu.Lock()
	defer r.jmu.Unlock()
	if r.wal != nil {
		if serr := r.wal.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := r.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		r.wal = nil
	}
	return err
}

// Table returns a copy of the current routing table.
func (r *Router) Table() *Table { return r.currentTable().Clone() }

func (r *Router) currentTable() *Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table
}

// view snapshots the placement state one scatter batch routes against.
func (r *Router) view() (*Table, *moveWindow) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table, r.window
}

func (r *Router) pool(id string) (*pool, error) {
	p, ok := r.pools[id]
	if !ok {
		return nil, fmt.Errorf("shard: no shard %q", id)
	}
	return p, nil
}

// sortedIDs returns every configured shard ID, sorted — the deterministic
// iteration order for fan-outs and error selection.
func (r *Router) sortedIDs() []string {
	ids := make([]string, 0, len(r.pools))
	for id := range r.pools {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// splitIndex partitions an index by the table's address placement. Every
// configured shard gets a partition (possibly empty) so the replicated ADS
// reaches shards that own no entries yet.
func (r *Router) splitIndex(t *Table, ix *store.Index) map[string]*store.Index {
	parts := make(map[string]*store.Index, len(r.pools))
	for id := range r.pools {
		parts[id] = store.NewIndex()
	}
	ix.Range(func(l store.Label, d store.Payload) bool {
		_ = parts[t.Owner(l)].Put(l, d) // Put only fails on duplicate labels; Range yields each label once
		return true
	})
	return parts
}

// broadcast runs fn against every configured shard concurrently and returns
// the error of the lowest shard ID that failed — deterministic regardless of
// scheduling. Every shard is contacted even when another one fails.
func (r *Router) broadcast(fn func(id string, p *pool) error) error {
	ids := r.sortedIDs()
	return core.ForEachIndexed(len(ids), len(ids), func(i int) error {
		return fn(ids[i], r.pools[ids[i]])
	})
}

// handleInit splits the owner's full index by address and initializes every
// shard with its partition plus the full replicated ADS. The router itself
// keeps only the trapdoor public key (journaled, so a restart can still walk
// token chains).
func (r *Router) handleInit(params json.RawMessage, tr *obs.Trace, _ wire.Meta) (any, error) {
	var msg wire.CloudInitMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	tpk, err := trapdoor.UnmarshalPublic(msg.TrapdoorPub)
	if err != nil {
		return nil, fmt.Errorf("wire: trapdoor key: %w", err)
	}
	ix, err := store.UnmarshalIndex(msg.Index)
	if err != nil {
		return nil, fmt.Errorf("wire: index: %w", err)
	}
	table := r.currentTable()
	parts := r.splitIndex(table, ix)
	err = r.broadcast(func(id string, p *pool) error {
		per := msg // copy; per-shard index partition, shared ADS fields
		per.Index = parts[id].Marshal()
		return p.call(func(cc *wire.CloudClient) error {
			return cc.Client().CallTraced(wire.MethodCloudInit, &per, nil, tr, "scatter:"+id)
		})
	})
	if err != nil {
		return nil, err
	}
	// Journal before acknowledging: a restarted router must still hold the
	// key that lets it walk trapdoor chains for this deployment.
	if err := r.journal(journalRec{TrapdoorPub: msg.TrapdoorPub}); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.tpk = tpk
	r.mu.Unlock()
	r.logger.Info("initialized shards", "entries", ix.Len(), "shards", len(parts))
	return map[string]bool{"ok": true}, nil
}

// handleUpdate splits an owner delta by address; every shard receives the
// full new primes and accumulation value (the ADS replicates) plus its slice
// of the index delta. All shards journal-then-ack before the router acks.
func (r *Router) handleUpdate(params json.RawMessage, tr *obs.Trace, _ wire.Meta) (any, error) {
	r.updateMu.Lock()
	defer r.updateMu.Unlock()
	var msg wire.UpdateMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	ix, err := store.UnmarshalIndex(msg.Index)
	if err != nil {
		return nil, fmt.Errorf("wire: index delta: %w", err)
	}
	table := r.currentTable()
	parts := r.splitIndex(table, ix)
	err = r.broadcast(func(id string, p *pool) error {
		per := msg
		per.Index = parts[id].Marshal()
		return p.call(func(cc *wire.CloudClient) error {
			return cc.Client().CallTraced(wire.MethodCloudUpdate, &per, nil, tr, "scatter:"+id)
		})
	})
	if err != nil {
		return nil, err
	}
	return map[string]bool{"ok": true}, nil
}

func (r *Router) trapdoorPub() (*trapdoor.PublicKey, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.tpk == nil {
		// Mirror the single-cloud server's wording: to clients the router IS
		// the cloud.
		return nil, errors.New("wire: cloud not initialized")
	}
	return r.tpk, nil
}

// handleSearch is the scatter-gather search path: per token, the router
// walks the trapdoor chain itself (it holds the token's PRF keys and the
// public trapdoor key — both already in the cloud trust domain), batch-probes
// counters across the owning shards, unmasks in exact single-cloud order,
// and delegates VO generation for the merged result set to one shard.
func (r *Router) handleSearch(params json.RawMessage, tr *obs.Trace, _ wire.Meta) (any, error) {
	tpk, err := r.trapdoorPub()
	if err != nil {
		return nil, err
	}
	var req core.SearchRequest
	if err := json.Unmarshal(params, &req); err != nil {
		return nil, err
	}
	r.met.searches.Inc()
	results := make([]core.TokenResult, len(req.Tokens))
	err = core.ForEachIndexed(len(req.Tokens), runtime.GOMAXPROCS(0), func(i int) error {
		res, err := r.searchToken(tpk, req.Tokens[i], tr)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &core.SearchResponse{Results: results}, nil
}

func (r *Router) searchToken(tpk *trapdoor.PublicKey, tok core.SearchToken, tr *obs.Trace) (core.TokenResult, error) {
	endCollect := tr.Span("router.collect")
	er, touched, err := r.collectToken(tpk, tok, tr)
	if err != nil {
		return core.TokenResult{}, err
	}
	endCollect()
	r.met.fanout.Observe(float64(len(touched)))
	endWitness := tr.Span("router.witness")
	vo, err := r.delegateWitness(tok, er, tr)
	if err != nil {
		return core.TokenResult{}, err
	}
	endWitness()
	return core.TokenResult{Token: tok, ER: er, Witness: vo}, nil
}

// walkEpoch is one epoch of a token's chain on the walk's frontier.
type walkEpoch struct {
	t      []byte   // the epoch's trapdoor
	next   uint64   // first counter not probed yet
	window int      // counters to probe next round; 0 once the first miss closed the epoch
	asked  int      // counters probed in the round in flight
	er     [][]byte // unmasked entries, counter ascending
}

// collectToken produces what core.Cloud.collectResults produces — same
// label/mask derivations, each epoch ending at its first missing counter,
// entries ordered epoch j..0 and counter ascending — so the unmasked list is
// byte-identical to a single cloud's over the union index. The schedule
// differs: the chain t_{i-1} = π_pk(t_i) is public, so every epoch still open
// probes its next window of counters in the same scatter round, and an epoch
// that filled its window asks for twice as many in the next. A token costs
// the rounds of its longest list, 1 + ⌊log2(n_max/batch + 1)⌋, not the sum
// over its epochs. Epochs join newest first under maxRoundLabels, so the
// token's Epoch sizes neither an allocation nor a message. It reports the
// set of shards contacted.
func (r *Router) collectToken(tpk *trapdoor.PublicKey, tok core.SearchToken, tr *obs.Trace) ([][]byte, map[string]bool, error) {
	lk, err := prf.KeyFromBytes(tok.G1)
	if err != nil {
		return nil, nil, fmt.Errorf("token G1: %w", err)
	}
	dk, err := prf.KeyFromBytes(tok.G2)
	if err != nil {
		return nil, nil, fmt.Errorf("token G2: %w", err)
	}
	labelEval := lk.NewEvaluator()
	maskEval := dk.NewEvaluator()
	touched := make(map[string]bool)
	var er [][]byte
	var front []*walkEpoch // admitted epochs not yet appended to er, newest first
	labels := make([]store.Label, 0, r.batch)
	t := tok.Trapdoor
	budget := 0
	ask := func(e *walkEpoch) error { // e's next window, as far as the round's budget goes
		e.asked = min(e.window, budget)
		budget -= e.asked
		for c := 0; c < e.asked; c++ {
			l, err := store.LabelFromBytes(labelEval.EvalWithCounter(e.t, e.next+uint64(c)))
			if err != nil {
				return err
			}
			labels = append(labels, l)
		}
		return nil
	}
	for pending := tok.Epoch; pending >= 0 || len(front) > 0; {
		labels, budget = labels[:0], maxRoundLabels
		for _, e := range front {
			if err := ask(e); err != nil {
				return nil, nil, err
			}
		}
		for ; pending >= 0 && budget > 0; pending-- {
			e := &walkEpoch{t: t, window: r.batch}
			front = append(front, e)
			if err := ask(e); err != nil {
				return nil, nil, err
			}
			if pending > 0 {
				if t, err = tpk.Forward(t); err != nil {
					return nil, nil, fmt.Errorf("walk trapdoor chain: %w", err)
				}
			}
		}
		payloads, found, err := r.fetchLabels(labels, touched, tr)
		if err != nil {
			return nil, nil, err
		}
		k := 0
		for _, e := range front {
			full := e.asked == e.window
			for c := 0; c < e.asked; c++ {
				if !found[k+c] {
					e.window = 0 // the epoch's list ends at its first missing counter
					break
				}
				mask := maskEval.EvalWithCounter(e.t, e.next+uint64(c))
				d := payloads[k+c]
				res := make([]byte, store.EntrySize)
				for b := range res {
					res[b] = mask[b] ^ d[b]
				}
				e.er = append(e.er, res)
			}
			if e.window > 0 && full {
				e.window = min(2*e.window, maxRoundLabels)
			}
			e.next += uint64(e.asked)
			k += e.asked
		}
		for len(front) > 0 && front[0].window == 0 {
			er = append(er, front[0].er...)
			front = front[1:]
		}
	}
	return er, touched, nil
}

// shardBatch is the slice of one fetch round addressed to one shard.
type shardBatch struct {
	labels [][]byte
	idxs   []int
}

func addTo(m map[string]*shardBatch, id string, k int, l store.Label) {
	b := m[id]
	if b == nil {
		b = &shardBatch{}
		m[id] = b
	}
	b.labels = append(b.labels, append([]byte(nil), l[:]...))
	b.idxs = append(b.idxs, k)
}

// fetchLabels resolves one batch of labels across the owning shards,
// double-reading any label inside an active move window. Results are
// index-aligned with labels; a label found on both sides of a move window
// resolves to the primary owner's copy (payloads are immutable, so either
// copy is the same bytes — the preference only pins determinism).
func (r *Router) fetchLabels(labels []store.Label, touched map[string]bool, tr *obs.Trace) ([][]byte, []bool, error) {
	r.moveGate.RLock()
	defer r.moveGate.RUnlock()
	table, window := r.view()
	prim := make(map[string]*shardBatch)
	sec := make(map[string]*shardBatch)
	for k, l := range labels {
		addr := store.Addr(l)
		owner := table.Lookup(addr)
		addTo(prim, owner, k, l)
		if window != nil && window.contains(addr) {
			other := window.src
			if owner == window.src {
				other = window.dst
			}
			if other != owner {
				addTo(sec, other, k, l)
				r.met.doubleReads.Inc()
			}
		}
	}
	// One RPC per (shard, role); both roles to the same shard are distinct
	// batches but can share the fan-out round.
	type job struct {
		id      string
		batch   *shardBatch
		primary bool
	}
	var jobs []job
	for _, id := range sortedKeys(prim) {
		jobs = append(jobs, job{id: id, batch: prim[id], primary: true})
	}
	for _, id := range sortedKeys(sec) {
		jobs = append(jobs, job{id: id, batch: sec[id], primary: false})
	}
	for _, jb := range jobs {
		touched[jb.id] = true
	}
	replies := make([]*wire.MGetReply, len(jobs))
	err := core.ForEachIndexed(len(jobs), len(jobs), func(j int) error {
		jb := jobs[j]
		p, err := r.pool(jb.id)
		if err != nil {
			return err
		}
		r.met.mgets.WithLabelValues(jb.id).Inc()
		return p.call(func(cc *wire.CloudClient) error {
			var reply wire.MGetReply
			if err := cc.Client().CallTraced(wire.MethodCloudMGet,
				&wire.MGetMsg{Labels: jb.batch.labels}, &reply, tr, "scatter:"+jb.id); err != nil {
				return err
			}
			if len(reply.Found) != len(jb.batch.labels) || len(reply.Payloads) != len(jb.batch.labels) {
				return fmt.Errorf("shard: mget reply misaligned from %s", jb.id)
			}
			replies[j] = &reply
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, len(labels))
	found := make([]bool, len(labels))
	// Secondary (move-window) replies first, primary second: the primary
	// owner's copy wins when both sides hold the label.
	for pass := 0; pass < 2; pass++ {
		primary := pass == 1
		for j, jb := range jobs {
			if jb.primary != primary {
				continue
			}
			for bi, k := range jb.batch.idxs {
				if replies[j].Found[bi] {
					found[k] = true
					payloads[k] = replies[j].Payloads[bi]
				}
			}
		}
	}
	return payloads, found, nil
}

func sortedKeys(m map[string]*shardBatch) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// delegateWitness derives the merged result set's prime representative and
// has one deterministically-chosen shard produce the membership witness.
// Every shard holds the full replicated ADS, so any choice yields the same
// bytes; hashing the prime spreads the modexp load.
func (r *Router) delegateWitness(tok core.SearchToken, er [][]byte, tr *obs.Trace) ([]byte, error) {
	x := core.TokenPrime(tok, mhash.OfMultiset(er))
	ids := r.sortedIDs()
	pick := ids[new(big.Int).Mod(x, big.NewInt(int64(len(ids)))).Int64()]
	var vo []byte
	err := r.pools[pick].call(func(cc *wire.CloudClient) error {
		var reply wire.WitnessReply
		if err := cc.Client().CallTraced(wire.MethodCloudWitness,
			&wire.WitnessMsg{X: x.Bytes()}, &reply, tr, "scatter:"+pick); err != nil {
			return err
		}
		vo = reply.VO
		return nil
	})
	return vo, err
}

// handleStats aggregates the fleet into one CloudStats, so clients (and
// slicer-cli status) written against a single cloud keep working: entry and
// byte counts sum across shards, while the replicated ADS reports the
// maximum (each shard holds a full copy).
func (r *Router) handleStats(json.RawMessage) (any, error) {
	per, err := r.ShardStats()
	if err != nil {
		return nil, err
	}
	agg := &wire.CloudStats{UptimeSeconds: time.Since(r.started).Seconds()}
	var reached bool
	for _, st := range per {
		if st.Err != "" || st.Stats == nil {
			continue
		}
		reached = true
		agg.IndexEntries += st.Stats.IndexEntries
		agg.IndexBytes += st.Stats.IndexBytes
		agg.SearchCalls += st.Stats.SearchCalls
		if st.Stats.Primes > agg.Primes {
			agg.Primes = st.Stats.Primes
		}
		if st.Stats.ADSBytes > agg.ADSBytes {
			agg.ADSBytes = st.Stats.ADSBytes
		}
	}
	if !reached {
		return nil, errors.New("shard: no shard reachable")
	}
	return agg, nil
}

// ShardStatus is one shard's view in router.shards: its stats, or the error
// that kept the router from fetching them.
type ShardStatus struct {
	ID    string           `json:"id"`
	Addr  string           `json:"addr"`
	Stats *wire.CloudStats `json:"stats,omitempty"`
	Err   string           `json:"err,omitempty"`
}

// ShardStats fetches every shard's stats concurrently. Unreachable shards
// report their error instead of failing the whole listing.
func (r *Router) ShardStats() ([]ShardStatus, error) {
	ids := r.sortedIDs()
	out := make([]ShardStatus, len(ids))
	_ = core.ForEachIndexed(len(ids), len(ids), func(i int) error {
		out[i] = ShardStatus{ID: ids[i]}
		for _, sp := range r.specs {
			if sp.ID == ids[i] {
				out[i].Addr = sp.Addr
			}
		}
		err := r.pools[ids[i]].call(func(cc *wire.CloudClient) error {
			st, err := cc.Stats()
			if err != nil {
				return err
			}
			out[i].Stats = st
			return nil
		})
		if err != nil {
			out[i].Err = err.Error()
		}
		return nil // a shard's error is its row's, not the listing's
	})
	return out, nil
}

// TableInfo is the router.table reply: the live table plus how many past
// epochs the router retains.
type TableInfo struct {
	Table          *Table `json:"table"`
	RetainedEpochs int    `json:"retainedEpochs"`
}

func (r *Router) handleTable(json.RawMessage) (any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &TableInfo{Table: r.table.Clone(), RetainedEpochs: len(r.history)}, nil
}

func (r *Router) handleShards(json.RawMessage) (any, error) {
	return r.ShardStats()
}
