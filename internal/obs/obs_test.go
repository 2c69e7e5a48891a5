package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("req")
	end := tr.Span("alpha")
	time.Sleep(2 * time.Millisecond)
	end()
	h := NewRegistry().Histogram("x_seconds", "")
	done := StartPhase(h, tr, "beta")
	done()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Phase != "alpha" || spans[0].Duration < time.Millisecond {
		t.Errorf("alpha span = %+v", spans[0])
	}
	if spans[1].Phase != "beta" || spans[1].Offset < spans[0].Offset {
		t.Errorf("beta span = %+v", spans[1])
	}
	if h.Count() != 1 {
		t.Errorf("StartPhase histogram count = %d, want 1", h.Count())
	}

	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"trace req", "alpha", "beta"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, buf.String())
		}
	}
	blob, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal trace: %v", err)
	}
	var parsed struct {
		Name  string       `json:"name"`
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatalf("unmarshal trace: %v", err)
	}
	if parsed.Name != "req" || len(parsed.Spans) != 2 {
		t.Errorf("trace JSON = %+v", parsed)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end := tr.Span(fmt.Sprintf("token-%d", i))
			end()
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 16 {
		t.Errorf("got %d spans, want 16", got)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	lg.Info("hidden")
	lg.Warn("visible", "k", 1)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("info line passed a warn-level logger")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, out)
	}
	if rec["msg"] != "visible" || rec["k"].(float64) != 1 {
		t.Errorf("log record = %v", rec)
	}

	if _, err := NewLogger(io.Discard, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(io.Discard, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
	Nop().Error("into the void") // must not panic
}

func TestAdminEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_total", "A demo counter.").Add(9)
	store := newTraceStore(8)
	demo := NewTrace("admin-demo")
	endSpan := demo.Span("phase-a")
	endSpan()
	store.Record(demo)
	a, err := StartAdmin("127.0.0.1:0", reg, store, Nop())
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	defer a.Close()
	base := "http://" + a.Addr()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "demo_total 9") ||
		!strings.Contains(body, "slicer_process_goroutines") {
		t.Errorf("/metrics = %d\n%s", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/metrics?format=json = %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/debug/vars = %d", code)
		_ = body
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := get("/debug/traces"); code != 200 || !json.Valid([]byte(body)) ||
		!strings.Contains(body, demo.ID()) {
		t.Errorf("/debug/traces = %d %q", code, body)
	}
	if code, body := get("/debug/traces?id=" + demo.ID()); code != 200 ||
		!strings.Contains(body, "admin-demo") || !strings.Contains(body, "phase-a") {
		t.Errorf("/debug/traces?id = %d %q", code, body)
	}
	if code, _ := get("/debug/traces?id=doesnotexist"); code != 404 {
		t.Errorf("missing trace id = %d, want 404", code)
	}
}
