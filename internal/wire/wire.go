// Package wire implements the message layer for deploying Slicer's parties
// on separate machines: a length-prefixed JSON protocol over TCP, a cloud
// server exposing the search service, a chain server exposing a blockchain
// node, and typed clients for both. cmd/slicer-cloud and cmd/slicer-chain
// wrap the servers; examples/distributed drives a full deployment over
// loopback TCP.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slicer/internal/obs"
)

// MaxMessageSize bounds a single message (64 MiB) so a malformed peer
// cannot trigger unbounded allocation.
const MaxMessageSize = 64 << 20

// firstBodyChunk is the body buffer a frame read starts with. It doubles,
// up to the declared length, only as bytes arrive, so a header alone pins
// no more than this.
const firstBodyChunk = 64 << 10

// DefaultIdleTimeout is how long a server connection may sit idle between
// requests before it is dropped, freeing the goroutine a stalled or dead
// peer would otherwise pin forever. Configurable per server with
// SetIdleTimeout; 0 disables the deadline.
const DefaultIdleTimeout = 2 * time.Minute

// DefaultDialTimeout bounds how long Dial waits for the TCP connection.
const DefaultDialTimeout = 10 * time.Second

// DefaultCallTimeout bounds one RPC round trip (write + server work +
// read), so a dead or stalled server cannot pin the caller forever. It
// matches the server's idle deadline; override with ClientOptions.
const DefaultCallTimeout = 2 * time.Minute

// Request is one framed RPC request. Trace, when present and valid, asks
// the server to join the caller's distributed trace and return its span
// tree; peers that predate trace propagation simply ignore the field, and
// a request without it gets a context-free response — full backward
// compatibility in both directions.
type Request struct {
	Method string            `json:"method"`
	Params json.RawMessage   `json:"params,omitempty"`
	Trace  *obs.TraceContext `json:"trace,omitempty"`
	// Tenant optionally identifies the calling tenant/owner for per-tenant
	// request accounting (slicer_rpc_tenant_requests_total). Absent on old
	// clients; servers treat it as opaque, sanitized, cardinality-capped
	// label material — never as an authorization claim.
	Tenant string `json:"tenant,omitempty"`
}

// Response is one framed RPC response. Trace carries the server-side span
// tree back to a caller that sent a sampled trace context; it is absent
// otherwise.
type Response struct {
	Result json.RawMessage   `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
	Trace  *obs.TraceSummary `json:"trace,omitempty"`
}

// WriteMessage frames and writes one JSON message.
func WriteMessage(w io.Writer, v any) error {
	_, err := writeMessage(w, v)
	return err
}

// writeMessage is WriteMessage reporting the framed size (header + body),
// feeding the per-method payload-size histograms.
func writeMessage(w io.Writer, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("wire: marshal: %w", err)
	}
	if len(body) > MaxMessageSize {
		return 0, fmt.Errorf("wire: message of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(body); err != nil {
		return 0, err
	}
	return len(hdr) + len(body), nil
}

// ReadMessage reads one framed JSON message into v.
func ReadMessage(r io.Reader, v any) error {
	_, err := readMessage(r, v)
	return err
}

// readMessage is ReadMessage reporting the framed size (header + body).
func readMessage(r io.Reader, v any) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return 0, fmt.Errorf("wire: message of %d bytes exceeds limit", n)
	}
	body := make([]byte, min(int(n), firstBodyChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(r, body[got:]); err != nil {
			return 0, err
		}
		if got = len(body); got == int(n) {
			break
		}
		grown := make([]byte, min(2*len(body), int(n)))
		copy(grown, body)
		body = grown
	}
	if err := json.Unmarshal(body, v); err != nil {
		return 0, fmt.Errorf("wire: unmarshal: %w", err)
	}
	return len(hdr) + int(n), nil
}

// Handler serves one method. Params arrive as raw JSON; the returned value
// is marshaled into the response.
type Handler func(params json.RawMessage) (any, error)

// TracedHandler is a Handler that additionally receives the server-side
// trace of the request — non-nil only when the caller propagated a valid,
// sampled trace context. Handlers record their phases into it; a nil trace
// makes every span a no-op, so no branching is needed.
type TracedHandler func(params json.RawMessage, tr *obs.Trace) (any, error)

// Meta is per-request metadata the RPC layer extracts from the envelope and
// the transport — who the caller claims to be and where the bytes came from.
// Handlers that journal audit records use it to attribute events.
type Meta struct {
	// Tenant is the caller-declared tenant tag from the request envelope
	// (empty when the client set none).
	Tenant string
	// Peer is the remote address of the connection serving the request.
	Peer string
}

// MetaHandler is a TracedHandler that additionally receives the request
// metadata.
type MetaHandler func(params json.RawMessage, tr *obs.Trace, m Meta) (any, error)

// handlerEntry is one registered method with its per-method instruments
// (nil until SetMetrics attaches a registry). ok/fail are the
// outcome-labeled children of the requests vector; dur is a sliding-window
// histogram, so the method exports live quantile gauges next to its
// cumulative series.
type handlerEntry struct {
	fn        MetaHandler
	ok        *obs.Counter
	fail      *obs.Counter
	dur       *obs.Histogram
	reqBytes  *obs.Histogram
	respBytes *obs.Histogram
}

// Server is a minimal RPC server multiplexing named handlers over TCP.
type Server struct {
	mu       sync.Mutex
	handlers map[string]*handlerEntry
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool

	idleTimeout  atomic.Int64 // nanoseconds; 0 disables the read deadline
	logger       *slog.Logger
	reg          *obs.Registry
	subsystem    string
	labelCap     int // tenant-series cap; 0 = obs.DefLabelCap, tests lower it
	traces       *obs.TraceStore
	connsOpen    *obs.Gauge
	connsTotal   *obs.Counter
	idleDropped  *obs.Counter
	traceBad     *obs.Counter
	traceServed  *obs.Counter
	requests     *obs.CounterVec
	durVec       *obs.HistogramVec
	reqBytesVec  *obs.HistogramVec
	respBytesVec *obs.HistogramVec
	tenants      *obs.CounterVec
}

// NewServer creates an empty server with the default idle timeout and a
// no-op logger.
func NewServer() *Server {
	s := &Server{handlers: make(map[string]*handlerEntry), logger: obs.Nop()}
	s.idleTimeout.Store(int64(DefaultIdleTimeout))
	return s
}

// SetLogger installs a structured logger for connection lifecycle events.
// A nil logger restores the no-op default.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Nop()
	}
	s.mu.Lock()
	s.logger = l
	s.mu.Unlock()
}

func (s *Server) log() *slog.Logger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logger
}

// SetIdleTimeout bounds how long a connection may sit idle between
// requests; 0 disables the bound. Takes effect for the next read on every
// connection, including already-open ones.
func (s *Server) SetIdleTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.idleTimeout.Store(int64(d))
}

// IdleTimeout reports the configured idle bound.
func (s *Server) IdleTimeout() time.Duration { return time.Duration(s.idleTimeout.Load()) }

// SetMetrics attaches an observability registry. subsystem labels every
// series (e.g. "cloud", "chain") so one registry can host several servers.
// Methods registered before or after both get per-method instruments.
func (s *Server) SetMetrics(reg *obs.Registry, subsystem string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.subsystem = subsystem
	s.connsOpen = reg.Gauge(obs.Label("slicer_rpc_connections_open", "server", subsystem),
		"Currently open RPC connections.")
	s.connsTotal = reg.Counter(obs.Label("slicer_rpc_connections_total", "server", subsystem),
		"RPC connections accepted since start.")
	s.idleDropped = reg.Counter(obs.Label("slicer_rpc_idle_dropped_total", "server", subsystem),
		"Connections dropped by the idle read deadline.")
	s.traceBad = reg.Counter(obs.Label("slicer_rpc_trace_rejected_total", "server", subsystem),
		"Requests whose trace context was malformed and therefore ignored.")
	s.traceServed = reg.Counter(obs.Label("slicer_rpc_traces_total", "server", subsystem),
		"Requests served with a propagated distributed trace.")
	s.requests = reg.CounterVecOpts("slicer_rpc_requests_total",
		"RPC requests served, by method and outcome.",
		[]string{"server", "method", "outcome"}, obs.VecOpts{MaxCardinality: 256})
	s.durVec = reg.HistogramVecOpts("slicer_rpc_request_seconds",
		"RPC handler latency, by method.",
		[]string{"server", "method"}, obs.VecOpts{Window: &obs.WindowOptions{}})
	s.reqBytesVec = reg.HistogramVecOpts("slicer_rpc_request_bytes",
		"Framed RPC request size in bytes (header + body), by method.",
		[]string{"server", "method"}, obs.VecOpts{Buckets: obs.DefSizeBuckets})
	s.respBytesVec = reg.HistogramVecOpts("slicer_rpc_response_bytes",
		"Framed RPC response size in bytes (header + body), by method.",
		[]string{"server", "method"}, obs.VecOpts{Buckets: obs.DefSizeBuckets})
	s.tenants = reg.CounterVecOpts("slicer_rpc_tenant_requests_total",
		"RPC requests by self-reported tenant; overflow collapses to other.",
		[]string{"server", "tenant"}, obs.VecOpts{MaxCardinality: s.labelCap})
	for method, e := range s.handlers {
		s.instrument(method, e)
	}
}

// SetTraceStore attaches a store retaining the server-side traces of
// requests that arrive with a sampled trace context, for /debug/traces. A
// nil store detaches.
func (s *Server) SetTraceStore(ts *obs.TraceStore) {
	s.mu.Lock()
	s.traces = ts
	s.mu.Unlock()
}

// TraceStore reports the attached store (nil when detached).
func (s *Server) TraceStore() *obs.TraceStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces
}

// instrument resolves one method's instruments. Caller holds s.mu.
func (s *Server) instrument(method string, e *handlerEntry) {
	if s.reg == nil {
		return
	}
	e.ok = s.requests.WithLabelValues(s.subsystem, method, "ok")
	e.fail = s.requests.WithLabelValues(s.subsystem, method, "error")
	e.dur = s.durVec.WithLabelValues(s.subsystem, method)
	e.reqBytes = s.reqBytesVec.WithLabelValues(s.subsystem, method)
	e.respBytes = s.respBytesVec.WithLabelValues(s.subsystem, method)
}

// Handle registers a method handler that does not record trace spans of its
// own (the RPC layer still traces the handler as a whole).
func (s *Server) Handle(method string, h Handler) {
	s.HandleTraced(method, func(params json.RawMessage, _ *obs.Trace) (any, error) {
		return h(params)
	})
}

// HandleTraced registers a method handler that records its phases into the
// request's propagated trace.
func (s *Server) HandleTraced(method string, h TracedHandler) {
	s.HandleMeta(method, func(params json.RawMessage, tr *obs.Trace, _ Meta) (any, error) {
		return h(params, tr)
	})
}

// HandleMeta registers a method handler that additionally receives the
// request metadata (tenant, peer) for attribution.
func (s *Server) HandleMeta(method string, h MetaHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &handlerEntry{fn: h}
	s.instrument(method, e)
	s.handlers[method] = e
}

// Listen starts accepting connections on addr ("host:port", empty port
// picks a free one). It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	s.log().Info("listening", "addr", ln.Addr().String())
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	peer := conn.RemoteAddr().String()
	s.connsTotal.Inc()
	s.connsOpen.Inc()
	defer s.connsOpen.Dec()
	s.log().Debug("connection open", "peer", peer)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		if d := s.IdleTimeout(); d > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
				return
			}
		}
		var req Request
		reqSize, err := readMessage(r, &req)
		if err != nil {
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				// A stalled or dead peer must not pin this goroutine forever.
				s.idleDropped.Inc()
				s.log().Warn("dropping idle connection", "peer", peer, "idleTimeout", s.IdleTimeout())
			case errors.Is(err, io.EOF):
				s.log().Debug("connection closed by peer", "peer", peer)
			default:
				s.log().Debug("connection read failed", "peer", peer, "err", err)
			}
			return // connection closed, idle-expired or corrupted framing
		}
		s.mu.Lock()
		e, ok := s.handlers[req.Method]
		tenants, subsystem := s.tenants, s.subsystem
		s.mu.Unlock()
		if req.Tenant != "" {
			tenants.WithLabelValues(subsystem, req.Tenant).Inc()
		}
		var resp Response
		if !ok {
			resp.Error = fmt.Sprintf("unknown method %q", req.Method)
		} else {
			e.reqBytes.Observe(float64(reqSize))
			tr := s.openTrace(&req)
			t0 := e.dur.Start()
			endHandle := tr.Span("handle:" + req.Method)
			result, err := e.fn(req.Params, tr, Meta{Tenant: req.Tenant, Peer: peer})
			endHandle()
			if !t0.IsZero() {
				// Traced requests leave an exemplar on their latency bucket,
				// linking a quantile estimate back to the stored trace.
				if tr != nil {
					e.dur.ObserveExemplar(time.Since(t0).Seconds(), tr.ID())
				} else {
					e.dur.ObserveSince(t0)
				}
			}
			if err != nil {
				e.fail.Inc()
				s.log().Debug("rpc error", "method", req.Method, "peer", peer, "err", err)
				resp.Error = err.Error()
			} else {
				e.ok.Inc()
				body, err := json.Marshal(result)
				if err != nil {
					resp.Error = fmt.Sprintf("marshal result: %v", err)
				} else {
					resp.Result = body
				}
			}
			if tr != nil {
				s.traceServed.Inc()
				resp.Trace = tr.Summary()
				s.TraceStore().Record(tr)
			}
		}
		respSize, err := writeMessage(w, &resp)
		if err != nil {
			return
		}
		if ok {
			e.respBytes.Observe(float64(respSize))
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// openTrace starts a server-side trace for a request carrying a valid,
// sampled trace context; it returns nil (tracing off) for context-free
// requests and silently ignores — but counts — malformed or hostile
// contexts, so a bad peer can never fail a request or panic the server.
func (s *Server) openTrace(req *Request) *obs.Trace {
	if req.Trace == nil {
		return nil
	}
	if err := req.Trace.Validate(); err != nil {
		s.traceBad.Inc()
		s.log().Debug("ignoring malformed trace context", "method", req.Method, "err", err)
		return nil
	}
	if !req.Trace.Sampled {
		return nil
	}
	s.mu.Lock()
	name := s.subsystem
	s.mu.Unlock()
	if name == "" {
		name = "server"
	}
	return obs.NewTraceWithID(name+"."+req.Method, req.Trace.TraceID)
}

// Close stops accepting and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ErrCallTimeout reports an RPC round trip that exceeded the client's call
// deadline (the server is dead, stalled, or too slow). Detect it with
// errors.Is; the connection is unusable afterwards.
var ErrCallTimeout = errors.New("wire: call timed out")

// ClientOptions tunes a client's transport robustness. The zero value gets
// the package defaults.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (default DefaultDialTimeout;
	// negative disables).
	DialTimeout time.Duration
	// CallTimeout bounds one RPC round trip (default DefaultCallTimeout;
	// negative disables). Raise it for calls that legitimately run long —
	// e.g. bulk index shipping at full scale.
	CallTimeout time.Duration
	// Registry, when non-nil, counts client-side call timeouts
	// (slicer_rpc_client_timeouts_total).
	Registry *obs.Registry
	// Tenant, when non-empty, stamps every request with a tenant/owner ID
	// for the server's per-tenant accounting.
	Tenant string
}

func (o ClientOptions) dialTimeout() time.Duration {
	if o.DialTimeout < 0 {
		return 0
	}
	if o.DialTimeout == 0 {
		return DefaultDialTimeout
	}
	return o.DialTimeout
}

// Client is a synchronous RPC client over one TCP connection.
type Client struct {
	mu          sync.Mutex
	conn        net.Conn
	r           *bufio.Reader
	w           *bufio.Writer
	callTimeout time.Duration
	tenant      string
	timeouts    *obs.Counter // nil-safe
}

// Dial connects to a server with the default timeouts.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, ClientOptions{})
}

// DialOpts connects to a server with explicit transport options.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), tenant: opts.Tenant}
	switch {
	case opts.CallTimeout < 0:
		c.callTimeout = 0
	case opts.CallTimeout == 0:
		c.callTimeout = DefaultCallTimeout
	default:
		c.callTimeout = opts.CallTimeout
	}
	if opts.Registry != nil {
		c.timeouts = opts.Registry.Counter("slicer_rpc_client_timeouts_total",
			"RPC calls abandoned because the per-call deadline expired.")
	}
	return c, nil
}

// SetCallTimeout rebounds the per-call deadline (0 disables).
func (c *Client) SetCallTimeout(d time.Duration) {
	c.mu.Lock()
	if d < 0 {
		d = 0
	}
	c.callTimeout = d
	c.mu.Unlock()
}

// Call invokes a method, decoding the result into out (which may be nil).
func (c *Client) Call(method string, params any, out any) error {
	resp, err := c.roundTrip(method, params, nil)
	if err != nil {
		return err
	}
	return decodeResult(resp, out)
}

// CallTraced invokes a method while propagating tr's context to the server
// and splicing the returned span tree into tr, tagged with the party name.
// A nil trace makes CallTraced exactly Call (no context is sent, so peers
// that predate trace propagation see an unchanged protocol).
func (c *Client) CallTraced(method string, params any, out any, tr *obs.Trace, party string) error {
	if tr == nil {
		return c.Call(method, params, out)
	}
	start := time.Now()
	resp, err := c.roundTrip(method, params, tr.Context())
	if err != nil {
		return err
	}
	// Splice before surfacing an application error: a failed RPC still
	// contributes its latency attribution.
	tr.SpliceRemote(party, method, start, time.Since(start), resp.Trace)
	return decodeResult(resp, out)
}

// roundTrip frames one request and reads its response under the per-call
// deadline.
func (c *Client) roundTrip(method string, params any, tctx *obs.TraceContext) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var raw json.RawMessage
	if params != nil {
		body, err := json.Marshal(params)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal params: %w", err)
		}
		raw = body
	}
	if c.callTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return nil, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := WriteMessage(c.w, &Request{Method: method, Params: raw, Trace: tctx, Tenant: c.tenant}); err != nil {
		return nil, c.wrapTimeout(method, err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.wrapTimeout(method, err)
	}
	var resp Response
	if err := ReadMessage(c.r, &resp); err != nil {
		return nil, c.wrapTimeout(method, err)
	}
	return &resp, nil
}

// wrapTimeout converts a deadline expiry into the typed ErrCallTimeout and
// counts it; other errors pass through.
func (c *Client) wrapTimeout(method string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.timeouts.Inc()
		return fmt.Errorf("%w: %s after %s", ErrCallTimeout, method, c.callTimeout)
	}
	return err
}

func decodeResult(resp *Response, out any) error {
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	if out != nil && resp.Result != nil {
		return json.Unmarshal(resp.Result, out)
	}
	return nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RPCDurationSeries names the windowed per-method latency histogram a
// server registers for (subsystem, method) — the series SLO objectives
// evaluate against.
func RPCDurationSeries(subsystem, method string) string {
	return obs.VecName("slicer_rpc_request_seconds", "server", subsystem, "method", method)
}

// SLOAliases maps the short "rpc:<op>" objective-metric spellings the -slo
// flag accepts onto the full per-method duration series, e.g.
// "rpc:search" → slicer_rpc_request_seconds{method="cloud.search",server="cloud"}.
// The op is the method name after its subsystem prefix ("cloud.search" →
// "search"); the full method name works too ("rpc:cloud.search").
func SLOAliases(subsystem string, methods ...string) map[string]string {
	out := make(map[string]string, 2*len(methods))
	for _, m := range methods {
		series := RPCDurationSeries(subsystem, m)
		out["rpc:"+m] = series
		if i := strings.LastIndexByte(m, '.'); i >= 0 && i+1 < len(m) {
			out["rpc:"+m[i+1:]] = series
		}
	}
	return out
}
