package audit

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"slicer/internal/durable"
	"slicer/internal/obs"
)

// IntegritySeries is the windowed histogram the ledger feeds with one
// observation per verification-class record: 0 for ok, 1 for fail. With the
// single bucket bound at 0.5, any SLO objective whose target lies between 0
// and 1 (e.g. 500ms) judges exactly the verification-failure ratio — the
// existing burn-rate engine and breach-triggered profiler then fire on
// integrity incidents with no new machinery.
const IntegritySeries = "slicer_audit_integrity_failed"

// SLOAliases maps the short objective-metric spelling the -slo flag accepts
// ("audit:integrity") onto the registered integrity series.
func SLOAliases() map[string]string {
	return map[string]string{"audit:integrity": IntegritySeries}
}

// recentCap bounds the in-memory ring of recent records served by the
// admin endpoint.
const recentCap = 1024

// Options configures a Ledger. Dir is required; everything else defaults.
type Options struct {
	// FS is the filesystem to persist into (nil: the real one). Tests
	// inject durable.MemFS to crash the ledger at exact write boundaries.
	FS durable.FS
	// Dir is the ledger directory (WAL segments).
	Dir string
	// Fsync selects when appended records become durable. The default is
	// FsyncInterval with a 100ms bound: audit events ride the search hot
	// path, and a torn tail of unacknowledged records is truncated (not a
	// chain break) on recovery. Records carrying Evidence are always synced
	// before Append returns, regardless of policy.
	Fsync durable.Policy
	// FsyncInterval bounds staleness under FsyncInterval (default 100ms).
	FsyncInterval time.Duration
	// Registry receives the audit metric series (may be nil).
	Registry *obs.Registry
	// Logger records append failures and recovery summaries (may be nil).
	Logger *slog.Logger
	// Now supplies record timestamps (default time.Now) — injectable so
	// tests produce deterministic chains.
	Now func() time.Time
}

func (o Options) fsys() durable.FS {
	if o.FS == nil {
		return durable.OS
	}
	return o.FS
}

// maxQueue bounds the asynchronous Log queue: past this depth producers
// block until the writer catches up, so a stalled audit disk applies back
// pressure instead of growing memory without bound.
const maxQueue = 1024

// kickDepth is the queue depth at which a producer wakes the writer
// directly. Below it, enqueue is a pure mutex+append — no goroutine wakeup
// rides the serving path — and the drain ticker picks the batch up within
// drainTick. Crossing it means a server is journaling faster than the
// ticker drains, so the producer kicks the writer itself.
const kickDepth = 16

// drainTick bounds how long a sub-kickDepth batch sits in memory before the
// writer journals it.
const drainTick = 2 * time.Millisecond

// Ledger is the append-only hash-chained audit log. All methods are safe
// for concurrent use and nil-safe: a nil *Ledger ignores appends and
// reports empty state, so callers thread an optional ledger without
// branching.
type Ledger struct {
	mu       sync.Mutex
	log      *durable.Log
	lastHash Digest
	nextSeq  uint64
	recent   []*Record // ring, oldest first
	now      func() time.Time
	logger   *slog.Logger
	tenant   string

	// Asynchronous Log queue, drained in order by one writer goroutine so
	// the WAL write syscall stays off the serving hot path. Append (and any
	// evidence-bearing event) flushes the queue first, so the chain order
	// always matches call order.
	qmu     sync.Mutex
	qcond   *sync.Cond // work arrived or the ledger is closing
	drained *sync.Cond // queue emptied / space freed / writer idled
	queue   []Event
	writing bool
	closing bool

	records   *obs.CounterVec
	appendErr *obs.Counter
	failures  *obs.Counter
	headSeq   *obs.Gauge
	flag      *obs.Histogram
}

// Open opens (or creates) the ledger in opts.Dir, verifying the hash chain
// over every recovered record before accepting new appends. A broken chain
// — any record whose hash or predecessor link fails — is tampering and
// refuses to open; a torn WAL tail (records that were never acknowledged
// durable) is truncated by recovery and is not a chain break.
func Open(opts Options) (*Ledger, error) {
	if opts.Dir == "" {
		return nil, errors.New("audit: ledger needs a directory")
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Logger == nil {
		opts.Logger = obs.Nop()
	}
	if opts.Fsync == durable.FsyncInterval && opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	rec, err := durable.Recover(opts.fsys(), opts.Dir)
	if err != nil {
		return nil, err
	}
	if rec.Snapshot != nil {
		return nil, errors.New("audit: ledger directory holds a snapshot; audit ledgers are append-only and never compact")
	}
	l := &Ledger{now: opts.Now, logger: opts.Logger, nextSeq: rec.NextIndex}
	seq := rec.FirstIndex
	if len(rec.Entries) > 0 && seq != 1 {
		return nil, fmt.Errorf("audit: ledger starts at record %d, want 1 (compacted ledgers are not auditable)", seq)
	}
	for _, payload := range rec.Entries {
		r, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		if r.Seq != seq {
			return nil, fmt.Errorf("audit: record claims seq %d at WAL index %d", r.Seq, seq)
		}
		if err := r.Check(l.lastHash); err != nil {
			return nil, err
		}
		l.lastHash = r.Hash
		l.keep(r)
		seq++
	}
	if rec.TruncatedRecords > 0 {
		opts.Logger.Warn("audit ledger recovered with torn tail truncated",
			"dir", opts.Dir, "records", len(rec.Entries), "truncated", rec.TruncatedRecords)
	}

	l.log, err = durable.OpenLog(opts.fsys(), opts.Dir, durable.LogOptions{
		Fsync:         opts.Fsync,
		FsyncInterval: opts.FsyncInterval,
		Start:         rec.NextIndex,
	})
	if err != nil {
		return nil, err
	}
	l.qcond = sync.NewCond(&l.qmu)
	l.drained = sync.NewCond(&l.qmu)
	go l.writer()
	go l.drainLoop()
	if reg := opts.Registry; reg != nil {
		l.log.SetMetrics(reg)
		l.records = reg.CounterVec("slicer_audit_records_total",
			"Audit records journaled, by kind and outcome.", []string{"kind", "outcome"})
		l.appendErr = reg.Counter("slicer_audit_append_failures_total",
			"Audit records lost because the ledger append failed.")
		l.failures = reg.Counter("slicer_audit_verification_failures_total",
			"Verification-class audit records with outcome=fail (evidence journaled).")
		l.headSeq = reg.Gauge("slicer_audit_head_seq",
			"Sequence number of the newest audit record.")
		l.flag = reg.WindowedHistogramOpts(IntegritySeries,
			"Verification outcome per audit event: 0 ok, 1 fail; the windowed failure ratio drives the audit:integrity SLO.",
			[]float64{0.5}, obs.WindowOptions{})
		l.headSeq.Set(float64(l.nextSeq - 1))
	}
	return l, nil
}

// keep appends r to the bounded recent ring.
func (l *Ledger) keep(r *Record) {
	l.recent = append(l.recent, r)
	if len(l.recent) > recentCap {
		l.recent = l.recent[1:]
	}
}

// Event is one security-relevant occurrence to journal.
type Event struct {
	Kind    string
	Outcome string
	Tenant  string
	Detail  string
	// Evidence, when non-nil, marks the record as a forensic bundle: it is
	// forced durable (fsync) before Append returns, whatever the policy.
	Evidence *Evidence
}

// verificationKind reports whether a record kind contributes to the
// integrity SLO series (events whose outcome states a verification verdict).
func verificationKind(kind string) bool {
	switch kind {
	case KindVerify, KindProbe, KindSettle, KindRefund:
		return true
	}
	return false
}

// Append journals one event as the next chain record and returns it,
// flushing any queued Log events first so chain order matches call order.
// The record is acknowledged under the ledger's fsync policy — immediately
// durable when it carries evidence. A nil ledger returns (nil, nil).
func (l *Ledger) Append(ev Event) (*Record, error) {
	if l == nil {
		return nil, nil
	}
	l.flushQueue()
	return l.append(ev)
}

// append seals and journals one event synchronously. It must not touch the
// queue — the writer goroutine calls it while draining.
func (l *Ledger) append(ev Event) (*Record, error) {
	if ev.Outcome == "" {
		ev.Outcome = OutcomeOK
	}
	if ev.Tenant == "" {
		ev.Tenant = l.tenantDefault()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r := &Record{
		Seq:      l.nextSeq,
		Time:     l.now().UnixNano(),
		Kind:     ev.Kind,
		Outcome:  ev.Outcome,
		Tenant:   ev.Tenant,
		Detail:   ev.Detail,
		Evidence: ev.Evidence,
		Prev:     l.lastHash,
	}
	if err := r.seal(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("audit: encode record %d: %w", r.Seq, err)
	}
	if _, err := l.log.Append(payload); err != nil {
		return nil, fmt.Errorf("audit: append: %w", err)
	}
	if ev.Evidence != nil {
		// Evidence bundles must not be lost to a crash between append and
		// the next interval flush: the refund they explain is already on
		// chain.
		if err := l.log.Sync(); err != nil {
			return nil, fmt.Errorf("audit: sync evidence: %w", err)
		}
	}
	l.lastHash = r.Hash
	l.nextSeq++
	l.keep(r)
	l.observe(r)
	return r, nil
}

// observe updates the metric series for one appended record. Caller holds
// l.mu (gauge/counter writes are cheap).
func (l *Ledger) observe(r *Record) {
	if l.records != nil {
		l.records.WithLabelValues(r.Kind, r.Outcome).Inc()
	}
	if l.headSeq != nil {
		l.headSeq.Set(float64(r.Seq))
	}
	if verificationKind(r.Kind) {
		v := 0.0
		if r.Outcome != OutcomeOK {
			v = 1.0
			if l.failures != nil {
				l.failures.Inc()
			}
		}
		if l.flag != nil {
			l.flag.Observe(v)
		}
	}
}

// Log journals an event best-effort: on failure the loss is counted
// (slicer_audit_append_failures_total) and logged, never surfaced — for hot
// paths where serving must not depend on the audit disk. Evidence-free
// events are queued and journaled asynchronously by a single writer (in
// call order, within drainTick; Head may briefly lag), so neither the WAL
// write syscall nor a goroutine wakeup rides the serving path. Evidence-
// bearing events are journaled synchronously and
// fsynced before Log returns — forensic bundles must not sit in a queue a
// crash can empty.
func (l *Ledger) Log(ev Event) {
	if l == nil {
		return
	}
	if ev.Evidence != nil {
		if _, err := l.Append(ev); err != nil {
			l.countLoss(ev, err)
		}
		return
	}
	l.qmu.Lock()
	for len(l.queue) >= maxQueue && !l.closing {
		l.drained.Wait()
	}
	if l.closing {
		l.qmu.Unlock()
		if _, err := l.append(ev); err != nil {
			l.countLoss(ev, err)
		}
		return
	}
	l.queue = append(l.queue, ev)
	if len(l.queue) == kickDepth {
		l.qcond.Signal()
	}
	l.qmu.Unlock()
}

// writer drains the Log queue in order until Close.
func (l *Ledger) writer() {
	l.qmu.Lock()
	for {
		for len(l.queue) == 0 && !l.closing {
			l.qcond.Wait()
		}
		if len(l.queue) == 0 {
			l.writing = false
			l.drained.Broadcast()
			l.qmu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.writing = true
		l.qmu.Unlock()
		for _, ev := range batch {
			if _, err := l.append(ev); err != nil {
				l.countLoss(ev, err)
			}
		}
		l.qmu.Lock()
		l.writing = false
		l.drained.Broadcast()
	}
}

// drainLoop nudges the writer every drainTick so sub-kickDepth batches
// never sit in memory for long, without any producer paying for a wakeup.
func (l *Ledger) drainLoop() {
	for {
		time.Sleep(drainTick)
		l.qmu.Lock()
		if l.closing {
			l.qmu.Unlock()
			return
		}
		if len(l.queue) > 0 {
			l.qcond.Signal()
		}
		l.qmu.Unlock()
	}
}

// flushQueue blocks until every queued Log event has been journaled.
func (l *Ledger) flushQueue() {
	l.qmu.Lock()
	for len(l.queue) > 0 || l.writing {
		l.qcond.Signal() // don't wait out a drain tick
		l.drained.Wait()
	}
	l.qmu.Unlock()
}

func (l *Ledger) countLoss(ev Event, err error) {
	if l.appendErr != nil {
		l.appendErr.Inc()
	}
	l.logger.Error("audit append failed; record lost", "kind", ev.Kind, "err", err)
}

// SetTenant sets a default tenant stamped on records whose event carries
// none (e.g. server-local prober events).
func (l *Ledger) SetTenant(tenant string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.tenant = tenant
	l.mu.Unlock()
}

func (l *Ledger) tenantDefault() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tenant
}

// Head reports the newest record's sequence number and hash (0 and the
// zero digest for an empty ledger).
func (l *Ledger) Head() (uint64, Digest) {
	if l == nil {
		return 0, Digest{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1, l.lastHash
}

// Recent returns up to n of the newest retained records, newest first.
func (l *Ledger) Recent(n int) []*Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.recent) {
		n = len(l.recent)
	}
	out := make([]*Record, 0, n)
	for i := len(l.recent) - 1; i >= len(l.recent)-n; i-- {
		out = append(out, l.recent[i])
	}
	return out
}

// Get returns a retained record by sequence number (nil when it has been
// evicted from the recent ring — the full history stays on disk for
// `slicer-cli audit verify`).
func (l *Ledger) Get(seq uint64) *Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.recent) - 1; i >= 0; i-- {
		if l.recent[i].Seq == seq {
			return l.recent[i]
		}
	}
	return nil
}

// Sync journals every queued Log event and forces buffered records durable.
func (l *Ledger) Sync() error {
	if l == nil {
		return nil
	}
	l.flushQueue()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Sync()
}

// Close drains the Log queue, syncs and closes the ledger.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.qmu.Lock()
	l.closing = true
	l.qcond.Signal()
	l.qmu.Unlock()
	l.flushQueue()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Sync(); err != nil {
		_ = l.log.Close()
		return err
	}
	return l.log.Close()
}
