package slicer

import (
	"compress/gzip"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// startObservedCloud boots an instrumented loopback cloud server with an
// indexed 3-record database, returning the server and a closure running one
// Less(100) search (traced when tr != nil).
func startObservedCloud(t *testing.T, reg *obs.Registry) (*wire.CloudServer, func(*obs.Trace)) {
	t.Helper()
	srv := wire.NewCloudServer()
	srv.SetObservability(reg, obs.Nop())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]Record{NewRecord(1, 10), NewRecord(2, 200), NewRecord(3, 30)})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := wire.DialCloud(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if err := cli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("cloud init: %v", err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	searchOnce := func(tr *obs.Trace) {
		req, err := user.Token(Less(100))
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			if _, err := cli.SearchTraced(req, tr); err != nil {
				t.Fatalf("traced search: %v", err)
			}
		} else if _, err := cli.Search(req); err != nil {
			t.Fatalf("search: %v", err)
		}
	}
	return srv, searchOnce
}

// TestExemplarLinksTrace is the acceptance check for trace exemplars: after
// one traced search, the /metrics exposition must carry an OpenMetrics
// exemplar on a slicer_rpc_request_seconds bucket whose trace_id resolves
// on the SAME admin endpoint's /debug/traces — the p99-to-trace link an
// operator follows when an SLO pages.
func TestExemplarLinksTrace(t *testing.T) {
	reg := obs.NewRegistry()
	srv, search := startObservedCloud(t, reg)

	adm, err := obs.StartAdminOpts("127.0.0.1:0", obs.AdminOptions{
		Registry: reg, Traces: srv.Traces(), Logger: obs.Nop(),
	})
	if err != nil {
		t.Fatalf("StartAdminOpts: %v", err)
	}
	defer adm.Close()

	tr := obs.NewTrace("exemplar search")
	search(tr)

	res, err := http.Get("http://" + adm.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()

	// An exemplar line: <family>_bucket{...} N # {trace_id="..."} value
	exemplarRe := regexp.MustCompile(`# \{trace_id="([0-9a-f]+)"\} `)
	traceID := ""
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.Contains(line, "slicer_rpc_request_seconds_bucket") ||
			!strings.Contains(line, `method="cloud.search"`) {
			continue
		}
		if m := exemplarRe.FindStringSubmatch(line); m != nil {
			traceID = m[1]
			break
		}
	}
	if traceID == "" {
		t.Fatalf("no exemplar on any cloud.search duration bucket:\n%s", body)
	}
	if traceID != tr.ID() {
		t.Fatalf("exemplar trace_id = %s, want the traced search's %s", traceID, tr.ID())
	}

	// The link must resolve: the exemplar's trace ID fetches the server-side
	// trace from the same admin endpoint.
	res, err = http.Get("http://" + adm.Addr() + "/debug/traces?id=" + traceID)
	if err != nil {
		t.Fatalf("follow exemplar: %v", err)
	}
	rendered, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(string(rendered), "cloud.collect") {
		t.Errorf("exemplar link /debug/traces?id=%s = %d %q, want 200 with the cloud spans",
			traceID, res.StatusCode, rendered)
	}

	// An untraced search must not disturb the exemplar (no trace, no ID).
	search(nil)
	res, err = http.Get("http://" + adm.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if m := exemplarRe.FindStringSubmatch(string(body2)); m == nil || m[1] != tr.ID() {
		t.Errorf("exemplar lost after an untraced search: %v", m)
	}
}

// TestProfilerCapturesOnBreach is the end-to-end acceptance check for
// trigger-based profiling: a forced SLO breach over real loopback RPCs must
// produce a complete, SIGKILL-safe capture bundle in the data directory,
// and repeated captures must stay bounded at the profiler's 4 retained
// bundles.
func TestProfilerCapturesOnBreach(t *testing.T) {
	reg := obs.NewRegistry()
	_, search := startObservedCloud(t, reg)

	profDir := filepath.Join(t.TempDir(), "profiles")
	prof, err := obs.NewProfiler(obs.ProfilerOptions{
		Dir:         profDir,
		CPUDuration: 50 * time.Millisecond,
		MinInterval: -1, // every breach may capture in this test
		Registry:    reg,
		Logger:      obs.Nop(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// An unmeetable objective: no RPC finishes within 1ns, so a handful of
	// searches drive both burn windows far past the 14.4x page threshold.
	engine := obs.NewEngine(reg, []obs.Objective{{
		Name:      "search",
		Metric:    wire.RPCDurationSeries("cloud", wire.MethodCloudSearch),
		Target:    time.Nanosecond,
		GoodRatio: 0.99,
		Window:    time.Minute,
	}}, obs.EngineOptions{Logger: obs.Nop()})
	var captured []string
	engine.OnBreach(func(st obs.SLOStatus) {
		// Synchronous capture so the test observes the bundle deterministically
		// (production wiring uses the async prof.Trigger).
		dir, err := prof.CaptureNow("slo-" + st.Name)
		if err != nil {
			t.Errorf("breach capture: %v", err)
		}
		captured = append(captured, dir)
	})

	for i := 0; i < 5; i++ {
		search(nil)
	}
	st := engine.Evaluate()
	if len(st) != 1 || st[0].State != "breach" {
		t.Fatalf("forced objective did not breach: %+v", st)
	}
	if len(captured) != 1 {
		t.Fatalf("breach captured %d bundles, want 1", len(captured))
	}

	// SIGKILL-safety: the reported bundle is complete on disk — every gzip
	// stream decompresses to the end (a torn capture would not).
	entries, err := os.ReadDir(captured[0])
	if err != nil {
		t.Fatalf("capture bundle unreadable: %v", err)
	}
	sawCPU := false
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".gz") {
			continue
		}
		if ent.Name() == "cpu.pprof.gz" {
			sawCPU = true
		}
		f, err := os.Open(filepath.Join(captured[0], ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			t.Errorf("%s: not gzip: %v", ent.Name(), err)
			f.Close()
			continue
		}
		if _, err := io.Copy(io.Discard, gz); err != nil {
			t.Errorf("%s: torn gzip stream: %v", ent.Name(), err)
		}
		gz.Close()
		f.Close()
	}
	if !sawCPU {
		// Another test's CPU profile may have been running; the bundle must
		// say so rather than silently lack the profile.
		meta, _ := os.ReadFile(filepath.Join(captured[0], "meta.json"))
		if !strings.Contains(string(meta), "cpuError") {
			t.Errorf("bundle has neither cpu.pprof.gz nor a recorded cpuError: %s", meta)
		}
	}

	// Re-evaluating inside the breach must not capture again...
	engine.Evaluate()
	if len(captured) != 1 {
		t.Fatalf("steady-state breach re-captured (%d)", len(captured))
	}
	// ...and forcing more captures keeps the directory bounded at 4 bundles.
	for i := 0; i < 4; i++ {
		if _, err := prof.CaptureNow("manual"); err != nil {
			t.Fatalf("manual capture %d: %v", i, err)
		}
	}
	dirs, err := os.ReadDir(profDir)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for _, d := range dirs {
		if strings.HasPrefix(d.Name(), "capture-") {
			bundles = append(bundles, d.Name())
		}
	}
	if len(bundles) != 4 {
		t.Errorf("profile dir holds %d bundles, want 4: %v", len(bundles), bundles)
	}
	for _, b := range bundles {
		if !strings.Contains(b, "manual") {
			t.Errorf("retention kept an old bundle over a newer one: %v", bundles)
		}
	}
}
