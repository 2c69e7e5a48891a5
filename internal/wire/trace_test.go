package wire

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"slicer/internal/obs"
)

// startEchoServer runs a traced echo server with a registry and trace store
// attached, returning the server, its address and the registry.
func startEchoServer(t *testing.T) (*Server, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := NewServer()
	srv.SetMetrics(reg, "echo")
	srv.SetTraceStore(obs.NewTraceStore())
	srv.HandleTraced("echo", func(params json.RawMessage, tr *obs.Trace) (any, error) {
		end := tr.Span("echo.work")
		time.Sleep(time.Millisecond)
		end()
		var s string
		if err := json.Unmarshal(params, &s); err != nil {
			return nil, err
		}
		return "echo:" + s, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, reg
}

func TestCallTracedMergesRemoteSpans(t *testing.T) {
	srv, addr, reg := startEchoServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	tr := obs.NewTrace("client op")
	var out string
	if err := cli.CallTraced("echo", "hi", &out, tr, "cloud"); err != nil {
		t.Fatalf("CallTraced: %v", err)
	}
	if out != "echo:hi" {
		t.Errorf("result = %q", out)
	}
	byPhase := map[string]obs.SpanRecord{}
	for _, sp := range tr.Spans() {
		byPhase[sp.Phase] = sp
	}
	for _, phase := range []string{"rpc:echo", "wire:echo", "handle:echo", "echo.work"} {
		sp, ok := byPhase[phase]
		if !ok {
			t.Errorf("merged trace missing %q (got %v)", phase, tr.Spans())
			continue
		}
		if sp.Party != "cloud" {
			t.Errorf("span %q party = %q, want cloud", phase, sp.Party)
		}
	}
	if byPhase["echo.work"].Duration <= 0 {
		t.Error("remote handler span has zero duration")
	}
	// The server retained its half under the client's trace ID.
	stored, ok := srv.TraceStore().Get(tr.ID())
	if !ok {
		t.Fatalf("server store missing trace %s", tr.ID())
	}
	if stored.Name != "echo.echo" {
		t.Errorf("stored trace name = %q", stored.Name)
	}
	if v := reg.Snapshot()[`slicer_rpc_traces_total{server="echo"}`]; v != 1 {
		t.Errorf("traces served counter = %v, want 1", v)
	}

	// A nil trace must degrade CallTraced to a plain Call.
	if err := cli.CallTraced("echo", "again", &out, nil, "cloud"); err != nil || out != "echo:again" {
		t.Errorf("nil-trace CallTraced = %q, %v", out, err)
	}
	if got := srv.TraceStore().Seen(); got != 1 {
		t.Errorf("nil-trace call recorded server-side (seen = %d)", got)
	}
}

// rawCall frames one request exactly as given and returns the raw response,
// emulating a peer that predates (or abuses) trace propagation.
func rawCall(t *testing.T, addr string, req any) Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	var resp Response
	if err := ReadMessage(conn, &resp); err != nil {
		t.Fatalf("read: %v", err)
	}
	return resp
}

func TestContextFreePeerUnchanged(t *testing.T) {
	srv, addr, _ := startEchoServer(t)
	// An old peer sends a request without any trace field: the response must
	// carry no trace and the server must record nothing.
	resp := rawCall(t, addr, map[string]any{"method": "echo", "params": "old"})
	if resp.Error != "" || resp.Trace != nil {
		t.Errorf("context-free response = %+v, want plain result", resp)
	}
	var out string
	if err := json.Unmarshal(resp.Result, &out); err != nil || out != "echo:old" {
		t.Errorf("result = %q, %v", out, err)
	}
	if srv.TraceStore().Seen() != 0 {
		t.Error("context-free request recorded a trace")
	}
	// An unsampled context propagates identity without cost: same behavior.
	resp = rawCall(t, addr, &Request{Method: "echo", Params: json.RawMessage(`"x"`),
		Trace: &obs.TraceContext{TraceID: obs.NewTraceID(), Sampled: false}})
	if resp.Trace != nil || srv.TraceStore().Seen() != 0 {
		t.Errorf("unsampled context produced trace output: %+v", resp.Trace)
	}
}

func TestHostileTraceContextIgnored(t *testing.T) {
	srv, addr, reg := startEchoServer(t)
	hostile := []*obs.TraceContext{
		{TraceID: "", Sampled: true},
		{TraceID: strings.Repeat("a", 500), Sampled: true},
		{TraceID: "NOT-HEX-AT-ALL", Sampled: true},
		{TraceID: "../../etc/passwd", Sampled: true},
		{TraceID: "00ff", ParentSpan: strings.Repeat("b", 500), Sampled: true},
	}
	for i, ctx := range hostile {
		resp := rawCall(t, addr, &Request{Method: "echo", Params: json.RawMessage(`"h"`), Trace: ctx})
		// The request must still be served — tracing is best-effort — but no
		// span tree may come back and nothing may be retained.
		if resp.Error != "" {
			t.Errorf("hostile context %d failed the request: %s", i, resp.Error)
		}
		if resp.Trace != nil {
			t.Errorf("hostile context %d produced a trace", i)
		}
	}
	if srv.TraceStore().Seen() != 0 {
		t.Error("hostile contexts were recorded")
	}
	if v := reg.Snapshot()[`slicer_rpc_trace_rejected_total{server="echo"}`]; v != float64(len(hostile)) {
		t.Errorf("rejected counter = %v, want %d", v, len(hostile))
	}
}

// FuzzRequestTraceContext throws arbitrary trace contexts at a live server:
// it must never panic, never fail the request, and only answer with a span
// tree for valid sampled contexts.
func FuzzRequestTraceContext(f *testing.F) {
	srv := NewServer()
	srv.SetTraceStore(obs.NewTraceStore())
	srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Add("deadbeef", "", true)
	f.Add("", "cafe", true)
	f.Add(strings.Repeat("f", 200), "\x00", false)
	f.Fuzz(func(t *testing.T, id, parent string, sampled bool) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed under fuzz load")
		}
		defer conn.Close()
		ctx := &obs.TraceContext{TraceID: id, ParentSpan: parent, Sampled: sampled}
		if err := WriteMessage(conn, &Request{Method: "ping", Trace: ctx}); err != nil {
			t.Fatalf("write: %v", err)
		}
		var resp Response
		if err := ReadMessage(conn, &resp); err != nil {
			t.Fatalf("read: %v", err)
		}
		if resp.Error != "" {
			t.Fatalf("trace context failed the request: %s", resp.Error)
		}
		if resp.Trace != nil && (ctx.Validate() != nil || !sampled) {
			t.Fatalf("invalid/unsampled context %+v got a span tree", ctx)
		}
	})
}

func TestClientCallTimeout(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Handle("slow", func(json.RawMessage) (any, error) {
		<-block
		return "late", nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()

	reg := obs.NewRegistry()
	cli, err := DialOpts(addr, ClientOptions{CallTimeout: 50 * time.Millisecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	err = cli.Call("slow", nil, nil)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, deadline not applied", elapsed)
	}
	if v := reg.Snapshot()["slicer_rpc_client_timeouts_total"]; v != 1 {
		t.Errorf("timeout counter = %v, want 1", v)
	}
}

func TestClientTimeoutOptions(t *testing.T) {
	srv := NewServer()
	srv.Handle("ping", func(json.RawMessage) (any, error) { return "pong", nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Defaults apply on the zero options.
	cli, err := DialOpts(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cli.callTimeout != DefaultCallTimeout {
		t.Errorf("default call timeout = %v", cli.callTimeout)
	}
	cli.Close()

	// Negative disables; SetCallTimeout rebinds at runtime.
	cli, err = DialOpts(addr, ClientOptions{DialTimeout: -1, CallTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.callTimeout != 0 {
		t.Errorf("disabled call timeout = %v, want 0", cli.callTimeout)
	}
	cli.SetCallTimeout(time.Second)
	var out string
	if err := cli.Call("ping", nil, &out); err != nil || out != "pong" {
		t.Errorf("ping = %q, %v", out, err)
	}
}
