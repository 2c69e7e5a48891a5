package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"sync"
	"time"

	"slicer/internal/accumulator"
	"slicer/internal/audit"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/store"
	"slicer/internal/trapdoor"
)

// Cloud RPC methods.
const (
	MethodCloudInit   = "cloud.init"
	MethodCloudUpdate = "cloud.update"
	MethodCloudSearch = "cloud.search"
	MethodCloudStats  = "cloud.stats"
)

// CloudInitMsg carries the owner's CloudState over the wire.
type CloudInitMsg struct {
	Params      core.Params `json:"params"`
	AccPub      []byte      `json:"accPub"`
	TrapdoorPub []byte      `json:"trapdoorPub"`
	Index       []byte      `json:"index"`
	Primes      [][]byte    `json:"primes"`
	Ac          []byte      `json:"ac"`
	// WitnessCached selects the cloud's witness strategy.
	WitnessCached bool `json:"witnessCached"`
	// Witnesses is parallel to Primes and sent only with WitnessCached. A
	// cloud given none computes them itself. It stays an array of values,
	// as written by clients and WAL records from before updates carried
	// witnesses; each value is at most AccPub's Size() bytes.
	Witnesses [][]byte `json:"witnesses,omitempty"`
}

// UpdateMsg carries an UpdateOutput delta over the wire.
type UpdateMsg struct {
	Index  []byte   `json:"index"`
	Primes [][]byte `json:"primes"`
	Ac     []byte   `json:"ac"`
	// Witnesses rides only on the insert that crosses the rebuild
	// threshold: every prime's witness after the update, in one string of
	// fixed-width values (core.UpdateOutput.Witnesses).
	Witnesses []byte `json:"witnesses,omitempty"`
}

// CloudStats reports server-side sizes and service counters (used by
// experiments, examples and `slicer-cli status`).
type CloudStats struct {
	IndexEntries int `json:"indexEntries"`
	IndexBytes   int `json:"indexBytes"`
	Primes       int `json:"primes"`
	ADSBytes     int `json:"adsBytes"`
	// SearchCalls is how many Search requests the hosted cloud has served
	// since it was initialized (one per round trip).
	SearchCalls uint64 `json:"searchCalls"`
	// UptimeSeconds is how long the server process has been up.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// SearchWindow is the live sliding-window latency view of cloud.search
	// (nil when the server runs without a metrics registry).
	SearchWindow *obs.WindowSnapshot `json:"searchWindow,omitempty"`
	// SLOs are the current objective states (empty when no SLO engine is
	// attached).
	SLOs []obs.SLOStatus `json:"slos,omitempty"`
	// AuditHeadSeq / AuditHeadHash expose the audit ledger head (zero when
	// auditing is off) — the anchor a client can note down and later compare
	// against `slicer-cli audit verify`.
	AuditHeadSeq  uint64 `json:"auditHeadSeq,omitempty"`
	AuditHeadHash string `json:"auditHeadHash,omitempty"`
}

// EncodeCloudInit converts an owner's CloudState into its wire form. Only a
// cached cloud is sent the witnesses; an on-demand one would not read them.
func EncodeCloudInit(st *core.CloudState, cached bool) *CloudInitMsg {
	msg := &CloudInitMsg{
		Params:        st.Params,
		AccPub:        st.AccumulatorPub.Marshal(),
		TrapdoorPub:   st.TrapdoorPub.MarshalPublic(),
		Index:         st.Index.Marshal(),
		Primes:        encodeInts(st.Primes),
		Ac:            st.Ac.Bytes(),
		WitnessCached: cached,
	}
	if cached {
		size := st.AccumulatorPub.Size()
		for w := st.Witnesses; len(w) >= size; w = w[size:] {
			msg.Witnesses = append(msg.Witnesses, w[:size])
		}
	}
	return msg
}

// DecodeCloudInit parses a wire CloudState.
func DecodeCloudInit(msg *CloudInitMsg) (*core.CloudState, core.WitnessMode, error) {
	accPub, err := accumulator.UnmarshalPublic(msg.AccPub)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: accumulator params: %w", err)
	}
	tpk, err := trapdoor.UnmarshalPublic(msg.TrapdoorPub)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: trapdoor key: %w", err)
	}
	ix, err := store.UnmarshalIndex(msg.Index)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: index: %w", err)
	}
	mode := core.WitnessOnDemand
	if msg.WitnessCached {
		mode = core.WitnessCached
	}
	ws, err := accPub.PackValues(msg.Witnesses)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: witnesses: %w", err)
	}
	return &core.CloudState{
		Params:         msg.Params,
		AccumulatorPub: accPub,
		TrapdoorPub:    tpk,
		Index:          ix,
		Primes:         decodeInts(msg.Primes),
		Ac:             new(big.Int).SetBytes(msg.Ac),
		Witnesses:      ws,
	}, mode, nil
}

// EncodeUpdate converts an UpdateOutput into its wire form.
func EncodeUpdate(out *core.UpdateOutput) *UpdateMsg {
	return &UpdateMsg{
		Index:     out.Index.Marshal(),
		Primes:    encodeInts(out.Primes),
		Ac:        out.Ac.Bytes(),
		Witnesses: out.Witnesses,
	}
}

// DecodeUpdate parses a wire UpdateOutput.
func DecodeUpdate(msg *UpdateMsg) (*core.UpdateOutput, error) {
	ix, err := store.UnmarshalIndex(msg.Index)
	if err != nil {
		return nil, fmt.Errorf("wire: index delta: %w", err)
	}
	return &core.UpdateOutput{
		Index:     ix,
		Primes:    decodeInts(msg.Primes),
		Ac:        new(big.Int).SetBytes(msg.Ac),
		Witnesses: msg.Witnesses,
	}, nil
}

func encodeInts(xs []*big.Int) [][]byte {
	out := make([][]byte, len(xs))
	for i, x := range xs {
		out[i] = x.Bytes()
	}
	return out
}

func decodeInts(raw [][]byte) []*big.Int {
	out := make([]*big.Int, len(raw))
	for i, b := range raw {
		out[i] = new(big.Int).SetBytes(b)
	}
	return out
}

// CloudServer hosts a core.Cloud behind the RPC protocol. Connections are
// served concurrently: core.Cloud is safe for concurrent use (searches take
// its read lock, updates its write lock), so the server's own mutex guards
// only the initialization of the cloud pointer — search traffic from many
// clients proceeds in parallel and is never serialized by the RPC layer.
type CloudServer struct {
	mu      sync.RWMutex // guards the cloud pointer, not the cloud's state
	cloud   *core.Cloud
	jour    *journal      // nil until EnableDurability
	aud     *audit.Ledger // nil until EnableAudit
	srv     *Server
	reg     *obs.Registry // nil until SetObservability; forwarded to the hosted cloud
	slo     *obs.Engine   // nil until AttachSLO
	started time.Time
}

// NewCloudServer creates an un-initialized cloud server; the owner
// initializes it remotely with MethodCloudInit. A bounded trace store is
// attached by default so propagated traces are inspectable at
// /debug/traces; tune or replace it via Traces / Server().SetTraceStore.
func NewCloudServer() *CloudServer {
	cs := &CloudServer{srv: NewServer(), started: time.Now()}
	cs.srv.SetTraceStore(obs.NewTraceStore())
	cs.srv.HandleMeta(MethodCloudInit, cs.handleInit)
	cs.srv.HandleMeta(MethodCloudUpdate, cs.handleUpdate)
	cs.srv.HandleMeta(MethodCloudSearch, cs.handleSearch)
	cs.srv.Handle(MethodCloudStats, cs.handleStats)
	cs.srv.Handle(MethodCloudMGet, cs.handleMGet)
	cs.srv.Handle(MethodCloudWitness, cs.handleWitness)
	cs.srv.Handle(MethodCloudExport, cs.handleExport)
	cs.srv.HandleMeta(MethodCloudImport, cs.handleImport)
	cs.srv.HandleMeta(MethodCloudDelete, cs.handleDeleteRange)
	return cs
}

// Traces exposes the server's trace store (for /debug/traces and tuning).
func (cs *CloudServer) Traces() *obs.TraceStore { return cs.srv.TraceStore() }

// SetObservability attaches a metrics registry and/or structured logger:
// the RPC layer gains per-method and connection series (server="cloud")
// and the hosted core.Cloud records its search-pipeline phase histograms
// into the same registry. Either argument may be nil.
func (cs *CloudServer) SetObservability(reg *obs.Registry, logger *slog.Logger) {
	cs.srv.SetLogger(logger)
	if reg == nil {
		return
	}
	cs.srv.SetMetrics(reg, "cloud")
	reg.GaugeFunc("slicer_cloud_uptime_seconds",
		"Seconds since the cloud server started.",
		func() float64 { return time.Since(cs.started).Seconds() })
	cs.mu.Lock()
	cs.reg = reg
	if cs.cloud != nil {
		cs.cloud.SetMetrics(reg)
	}
	cs.mu.Unlock()
}

// AttachSLO publishes the server's SLO engine so cloud.stats (and through
// it `slicer-cli status`) reports live objective states next to the sizes.
func (cs *CloudServer) AttachSLO(e *obs.Engine) {
	cs.mu.Lock()
	cs.slo = e
	cs.mu.Unlock()
}

// EnableAudit journals every security-relevant event this server handles —
// init, update, search — into led, attributed to the requesting tenant.
// Appends are best-effort on the serving path: a failing audit disk degrades
// to a counted, logged loss, never a failed search.
func (cs *CloudServer) EnableAudit(led *audit.Ledger) {
	cs.mu.Lock()
	cs.aud = led
	cs.mu.Unlock()
}

// Audit returns the attached audit ledger (nil when auditing is off).
func (cs *CloudServer) Audit() *audit.Ledger {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.aud
}

// Server exposes the underlying RPC server for transport-level tuning
// (idle timeout, logger).
func (cs *CloudServer) Server() *Server { return cs.srv }

// Listen binds the server and returns its address.
func (cs *CloudServer) Listen(addr string) (string, error) { return cs.srv.Listen(addr) }

// Close shuts the server down, syncing and closing the journal if
// durability is enabled.
func (cs *CloudServer) Close() error {
	err := cs.srv.Close()
	if jerr := cs.journal().close(); err == nil {
		err = jerr
	}
	return err
}

func (cs *CloudServer) journal() *journal {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.jour
}

// Snapshot serializes the hosted cloud's state (nil if uninitialized), for
// persistence across server restarts.
func (cs *CloudServer) Snapshot() ([]byte, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, nil
	}
	return cloud.Marshal()
}

// Restore loads a previously snapshotted cloud state. It may only run
// before the owner initializes the server.
func (cs *CloudServer) Restore(data []byte) error {
	cloud, err := core.UnmarshalCloud(data)
	if err != nil {
		return err
	}
	return cs.install(cloud)
}

// install publishes a freshly built cloud, failing if one is already
// hosted.
func (cs *CloudServer) install(cloud *core.Cloud) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.cloud != nil {
		return errors.New("wire: cloud already initialized")
	}
	if cs.reg != nil {
		cloud.SetMetrics(cs.reg)
	}
	cs.cloud = cloud
	return nil
}

func (cs *CloudServer) handleInit(params json.RawMessage, _ *obs.Trace, m Meta) (any, error) {
	var msg CloudInitMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	st, mode, err := DecodeCloudInit(&msg)
	if err != nil {
		return nil, err
	}
	cloud, err := core.NewCloud(st, mode)
	if err != nil {
		return nil, err
	}
	// Refuse before journaling so a doomed re-init leaves no WAL record.
	if _, err := cs.get(); err == nil {
		return nil, errors.New("wire: cloud already initialized")
	}
	if err := cs.journal().commit(cloudRecord(cloudRecInit, params), func() error { return cs.install(cloud) }, cs.cloudSnapshotState); err != nil {
		return nil, err
	}
	cs.auditEvent(audit.KindInit, m, fmt.Sprintf("index %d entries, %d primes", cloud.IndexLen(), cloud.PrimeCount()))
	return map[string]bool{"ok": true}, nil
}

// auditEvent journals one ok-outcome event best-effort, attributed to the
// requesting tenant and peer.
func (cs *CloudServer) auditEvent(kind string, m Meta, detail string) {
	led := cs.Audit()
	if led == nil {
		return
	}
	if detail == "" {
		detail = "peer " + m.Peer
	} else {
		detail += " (peer " + m.Peer + ")"
	}
	led.Log(audit.Event{Kind: kind, Tenant: m.Tenant, Detail: detail})
}

func (cs *CloudServer) get() (*core.Cloud, error) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	if cs.cloud == nil {
		return nil, errors.New("wire: cloud not initialized")
	}
	return cs.cloud, nil
}

func (cs *CloudServer) handleUpdate(params json.RawMessage, _ *obs.Trace, m Meta) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var msg UpdateMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	out, err := DecodeUpdate(&msg)
	if err != nil {
		return nil, err
	}
	// Journal, then apply under the journal mutex: WAL order must equal
	// apply order (the accumulation value is last-writer-wins), and the
	// ack goes out only once the record is durable under the fsync policy.
	if err := cs.journal().commit(cloudRecord(cloudRecUpdate, params), func() error { return cloud.ApplyUpdate(out) }, cs.cloudSnapshotState); err != nil {
		return nil, err
	}
	cs.auditEvent(audit.KindUpdate, m, fmt.Sprintf("+%d index entries", out.Index.Len()))
	return map[string]bool{"ok": true}, nil
}

// handleSearch records the cloud's collect/witness phases into the
// propagated trace (nil for context-free callers — then it is exactly the
// pre-trace handler).
func (cs *CloudServer) handleSearch(params json.RawMessage, tr *obs.Trace, m Meta) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var req core.SearchRequest
	if err := json.Unmarshal(params, &req); err != nil {
		return nil, err
	}
	resp, err := cloud.SearchTraced(&req, tr)
	if err != nil {
		return nil, err
	}
	cs.auditEvent(audit.KindSearch, m, fmt.Sprintf("%d tokens, %d results", len(req.Tokens), len(resp.Results)))
	return resp, nil
}

func (cs *CloudServer) handleStats(json.RawMessage) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	st := &CloudStats{
		IndexEntries:  cloud.IndexLen(),
		IndexBytes:    cloud.IndexSizeBytes(),
		Primes:        cloud.PrimeCount(),
		ADSBytes:      cloud.ADSSizeBytes(),
		SearchCalls:   cloud.SearchCalls(),
		UptimeSeconds: time.Since(cs.started).Seconds(),
	}
	cs.mu.RLock()
	reg, slo := cs.reg, cs.slo
	cs.mu.RUnlock()
	if win, ok := reg.WindowSnapshotFor(RPCDurationSeries("cloud", MethodCloudSearch)); ok {
		st.SearchWindow = &win
	}
	if slo != nil {
		st.SLOs = slo.Evaluate()
	}
	if led := cs.Audit(); led != nil {
		seq, hash := led.Head()
		st.AuditHeadSeq = seq
		st.AuditHeadHash = hash.String()
	}
	return st, nil
}

// CloudClient is a typed client for a remote cloud.
type CloudClient struct {
	c *Client
}

// DialCloud connects to a cloud server with the default timeouts.
func DialCloud(addr string) (*CloudClient, error) {
	return DialCloudOpts(addr, ClientOptions{})
}

// DialCloudOpts connects to a cloud server with explicit transport options.
func DialCloudOpts(addr string, opts ClientOptions) (*CloudClient, error) {
	c, err := DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &CloudClient{c: c}, nil
}

// Client exposes the underlying RPC client for transport tuning.
func (cc *CloudClient) Client() *Client { return cc.c }

// Init ships the owner's CloudState to the server.
func (cc *CloudClient) Init(st *core.CloudState, cached bool) error {
	return cc.c.Call(MethodCloudInit, EncodeCloudInit(st, cached), nil)
}

// Update ships an insert delta.
func (cc *CloudClient) Update(out *core.UpdateOutput) error {
	return cc.c.Call(MethodCloudUpdate, EncodeUpdate(out), nil)
}

// Search executes a remote search.
func (cc *CloudClient) Search(req *core.SearchRequest) (*core.SearchResponse, error) {
	return cc.SearchTraced(req, nil)
}

// SearchTraced executes a remote search while splicing the cloud's
// server-side spans (collect, witness) and the derived wire time into tr,
// tagged party "cloud". A nil trace makes it exactly Search.
func (cc *CloudClient) SearchTraced(req *core.SearchRequest, tr *obs.Trace) (*core.SearchResponse, error) {
	var resp core.SearchResponse
	if err := cc.c.CallTraced(MethodCloudSearch, req, &resp, tr, "cloud"); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches server-side sizes.
func (cc *CloudClient) Stats() (*CloudStats, error) {
	var st CloudStats
	if err := cc.c.Call(MethodCloudStats, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Close closes the connection.
func (cc *CloudClient) Close() error { return cc.c.Close() }
