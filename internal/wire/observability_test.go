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

var errTest = errors.New("handler failure")

// TestServerIdleTimeout is the regression test for the stalled-peer leak:
// a connection that goes quiet past the idle bound is dropped (the
// goroutine serving it is freed) and counted, while an active connection
// keeps working across multiple idle windows.
func TestServerIdleTimeout(t *testing.T) {
	srv := NewServer()
	srv.Handle("ping", func(_ json.RawMessage) (any, error) { return "pong", nil })
	if got := srv.IdleTimeout(); got != DefaultIdleTimeout {
		t.Fatalf("default idle timeout = %v, want %v", got, DefaultIdleTimeout)
	}
	// Generous margins: the active client below sleeps 100ms between
	// calls against a 250ms window, so only a >150ms scheduler stall can
	// false-fail this on a loaded CI runner.
	srv.SetIdleTimeout(250 * time.Millisecond)
	reg := obs.NewRegistry()
	srv.SetMetrics(reg, "test")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// An active client survives several idle windows: each request resets
	// the deadline.
	active, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer active.Close()
	for i := 0; i < 4; i++ {
		var out string
		if err := active.Call("ping", nil, &out); err != nil {
			t.Fatalf("active call %d: %v", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// A stalled client is dropped: after the idle window the server closes
	// the connection, so the next read on the client side fails.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial stalled: %v", err)
	}
	defer stalled.Close()
	buf := make([]byte, 1)
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stalled.Read(buf); err == nil {
		t.Fatal("server kept an idle connection past the timeout")
	}

	dropped := reg.Counter(obs.Label("slicer_rpc_idle_dropped_total", "server", "test"), "")
	if dropped.Value() == 0 {
		t.Error("idle drop not counted")
	}

	// Zero disables the bound entirely.
	srv.SetIdleTimeout(0)
	lazy, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial lazy: %v", err)
	}
	defer lazy.Close()
	time.Sleep(120 * time.Millisecond)
	var out string
	if err := lazy.Call("ping", nil, &out); err != nil {
		t.Fatalf("call after long idle with timeout disabled: %v", err)
	}
}

// TestServerMetricsAndLogging checks the per-method RPC instruments and
// the exposition of connection series.
func TestServerMetricsAndLogging(t *testing.T) {
	srv := NewServer()
	srv.Handle("ok", func(_ json.RawMessage) (any, error) { return 1, nil })
	srv.Handle("boom", func(_ json.RawMessage) (any, error) { return nil, errTest })
	reg := obs.NewRegistry()
	srv.SetMetrics(reg, "unit")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	var n int
	for i := 0; i < 3; i++ {
		if err := cli.Call("ok", nil, &n); err != nil {
			t.Fatalf("ok call: %v", err)
		}
	}
	if err := cli.Call("boom", nil, nil); err == nil {
		t.Fatal("boom call did not error")
	}

	calls := reg.Counter(obs.VecName("slicer_rpc_requests_total",
		"server", "unit", "method", "ok", "outcome", "ok"), "")
	if calls.Value() != 3 {
		t.Errorf("ok calls = %d, want 3", calls.Value())
	}
	fails := reg.Counter(obs.VecName("slicer_rpc_requests_total",
		"server", "unit", "method", "boom", "outcome", "error"), "")
	if fails.Value() != 1 {
		t.Errorf("boom error outcome = %d, want 1", fails.Value())
	}
	dur := reg.Histogram(obs.VecName("slicer_rpc_request_seconds", "server", "unit", "method", "ok"), "")
	if dur.Count() != 3 {
		t.Errorf("ok duration observations = %d, want 3", dur.Count())
	}
	if !dur.Windowed() {
		t.Error("request-duration histogram is not windowed")
	}
	conns := reg.Counter(obs.Label("slicer_rpc_connections_total", "server", "unit"), "")
	if conns.Value() != 1 {
		t.Errorf("connections = %d, want 1", conns.Value())
	}
	reqBytes := reg.Histogram(obs.VecName("slicer_rpc_request_bytes", "server", "unit", "method", "ok"), "")
	if reqBytes.Count() != 3 {
		t.Errorf("ok request-size observations = %d, want 3", reqBytes.Count())
	}
	if reqBytes.Sum() < 3*4 {
		t.Errorf("request bytes sum = %v, want at least the 4-byte frame headers", reqBytes.Sum())
	}
	respBytes := reg.Histogram(obs.VecName("slicer_rpc_response_bytes", "server", "unit", "method", "ok"), "")
	if respBytes.Count() != 3 {
		t.Errorf("ok response-size observations = %d, want 3", respBytes.Count())
	}
	// Handler errors still frame a response, so its size is recorded too.
	boomResp := reg.Histogram(obs.VecName("slicer_rpc_response_bytes", "server", "unit", "method", "boom"), "")
	if boomResp.Count() != 1 {
		t.Errorf("boom response-size observations = %d, want 1", boomResp.Count())
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	// Vector children expose their labels in sorted order.
	if !strings.Contains(sb.String(), `slicer_rpc_requests_total{method="ok",outcome="ok",server="unit"} 3`) {
		t.Errorf("exposition missing labeled request counter:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `slicer_rpc_request_seconds_window{method="ok",quantile="p99",server="unit"}`) {
		t.Errorf("exposition missing windowed p99 gauge:\n%s", sb.String())
	}
	// Errors are counted once, as outcome="error" above.
	if strings.Contains(sb.String(), "slicer_rpc_errors_total") {
		t.Errorf("exposition carries a second error series:\n%s", sb.String())
	}
}

// TestServerTenantSeries checks the per-tenant request counter: a client
// configured with a tenant stamps every request, the server splits the
// series per tenant, and the cardinality cap collapses the long tail into
// the "other" sentinel instead of growing without bound.
func TestServerTenantSeries(t *testing.T) {
	srv := NewServer()
	srv.Handle("ping", func(_ json.RawMessage) (any, error) { return "pong", nil })
	srv.labelCap = 2
	reg := obs.NewRegistry()
	srv.SetMetrics(reg, "unit")
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	for _, tenant := range []string{"alice", "bob", "carol", "dave"} {
		cli, err := DialOpts(addr, ClientOptions{Tenant: tenant})
		if err != nil {
			t.Fatalf("dial %s: %v", tenant, err)
		}
		var out string
		if err := cli.Call("ping", nil, &out); err != nil {
			t.Fatalf("%s ping: %v", tenant, err)
		}
		cli.Close()
	}
	// A tenant-less client must not create a tenant series at all.
	plain, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := plain.Call("ping", nil, &out); err != nil {
		t.Fatal(err)
	}
	plain.Close()

	snap := reg.Snapshot()
	for _, pinned := range []struct {
		name string
		want float64
	}{
		{obs.VecName("slicer_rpc_tenant_requests_total", "server", "unit", "tenant", "alice"), 1},
		{obs.VecName("slicer_rpc_tenant_requests_total", "server", "unit", "tenant", "bob"), 1},
		// Past the cap the whole label tuple collapses into the sentinel.
		{obs.VecName("slicer_rpc_tenant_requests_total", "server", "other", "tenant", "other"), 2},
	} {
		if got := snap[pinned.name]; got != pinned.want {
			t.Errorf("%s = %v, want %v", pinned.name, got, pinned.want)
		}
	}
	if got := snap[obs.Label(obs.OverflowCounterName, "family", "slicer_rpc_tenant_requests_total")]; got != 2 {
		t.Errorf("overflow counter = %v, want 2", got)
	}
}
