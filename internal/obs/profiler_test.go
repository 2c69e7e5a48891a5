package obs

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// readCaptureDirs lists capture bundles under dir in lexicographic
// (= capture) order.
func readCaptureDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "capture-") {
			out = append(out, ent.Name())
		}
	}
	return out
}

// TestProfilerCaptureBundle checks one capture end to end: bundle layout,
// valid gzip framing on every profile, and a meta.json that indexes
// exactly the files present.
func TestProfilerCaptureBundle(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	p, err := NewProfiler(ProfilerOptions{
		Dir:         dir,
		CPUDuration: 50 * time.Millisecond,
		MinInterval: -1,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := p.CaptureNow("slo-search")
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	if got := filepath.Base(bundle); got != "capture-000001-slo-search" {
		t.Errorf("bundle name = %q", got)
	}

	metaRaw, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	var meta struct {
		Seq      int      `json:"seq"`
		Reason   string   `json:"reason"`
		Files    []string `json:"files"`
		CPUError string   `json:"cpuError"`
	}
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		t.Fatalf("meta.json invalid: %v\n%s", err, metaRaw)
	}
	if meta.Seq != 1 || meta.Reason != "slo-search" {
		t.Errorf("meta = %+v", meta)
	}
	for _, name := range meta.Files {
		f, err := os.Open(filepath.Join(bundle, name))
		if err != nil {
			t.Errorf("indexed file missing: %v", err)
			continue
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			t.Errorf("%s: not gzip: %v", name, err)
			f.Close()
			continue
		}
		// A capture interrupted by SIGKILL would leave a torn gzip stream;
		// a completed one must decompress to the end.
		if _, err := io.Copy(io.Discard, gz); err != nil {
			t.Errorf("%s: torn gzip stream: %v", name, err)
		}
		gz.Close()
		f.Close()
	}
	wantGoroutine := false
	for _, name := range meta.Files {
		if name == "goroutine.txt.gz" {
			wantGoroutine = true
		}
	}
	if !wantGoroutine {
		t.Errorf("goroutine dump not indexed: %v", meta.Files)
	}
	if meta.CPUError == "" {
		found := false
		for _, name := range meta.Files {
			if name == "cpu.pprof.gz" {
				found = true
			}
		}
		if !found {
			t.Errorf("no CPU profile and no recorded CPU error: %v", meta.Files)
		}
	}

	snap := reg.Snapshot()
	if got := snap[VecName("slicer_obs_profile_captures_total", "reason", "slo-search")]; got != 1 {
		t.Errorf("capture counter = %v, want 1", got)
	}
}

// TestProfilerRetention checks the bounded ring: with max 2, a third
// capture evicts the oldest bundle.
func TestProfilerRetention(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerOptions{
		Dir:         dir,
		CPUDuration: time.Millisecond,
		MinInterval: -1,
		maxCaptures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.CaptureNow("load"); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	got := readCaptureDirs(t, dir)
	if len(got) != 2 || got[0] != "capture-000002-load" || got[1] != "capture-000003-load" {
		t.Errorf("retained = %v, want captures 2 and 3", got)
	}
}

// TestProfilerRateLimit checks the injectable-clock rate limiter and the
// skip counter.
func TestProfilerRateLimit(t *testing.T) {
	clk := newFakeClock(time.Unix(5000, 0))
	reg := NewRegistry()
	p, err := NewProfiler(ProfilerOptions{
		Dir:         t.TempDir(),
		CPUDuration: time.Millisecond,
		MinInterval: 30 * time.Second,
		Registry:    reg,
		Clock:       clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow("first"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CaptureNow("second"); !errors.Is(err, ErrCaptureRateLimited) {
		t.Fatalf("second capture = %v, want rate-limited", err)
	}
	clk.Advance(31 * time.Second)
	if _, err := p.CaptureNow("third"); err != nil {
		t.Fatalf("post-gap capture = %v", err)
	}
	if got := reg.Snapshot()["slicer_obs_profile_captures_skipped_total"]; got != 1 {
		t.Errorf("skip counter = %v, want 1", got)
	}
}

// TestProfilerSeqRecovery checks a restarted profiler continues the
// sequence past bundles already on disk instead of overwriting them.
func TestProfilerSeqRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := ProfilerOptions{Dir: dir, CPUDuration: time.Millisecond, MinInterval: -1}
	p1, err := NewProfiler(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.CaptureNow("before-restart"); err != nil {
		t.Fatal(err)
	}
	p2, err := NewProfiler(opts)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := p2.CaptureNow("after-restart")
	if err != nil {
		t.Fatal(err)
	}
	if got := filepath.Base(bundle); got != "capture-000002-after-restart" {
		t.Errorf("recovered sequence bundle = %q, want capture-000002-after-restart", got)
	}
}

// TestProfilerReasonSanitized checks hostile trigger reasons cannot
// escape the capture directory or produce unusable names.
func TestProfilerReasonSanitized(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerOptions{Dir: dir, CPUDuration: time.Millisecond, MinInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := p.CaptureNow("../../etc/PASSWD !!")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(dir, bundle)
	if err != nil || strings.HasPrefix(rel, "..") {
		t.Fatalf("capture escaped its root: %q", bundle)
	}
	if name := filepath.Base(bundle); strings.ContainsAny(name, "/\\ !") {
		t.Errorf("unsafe bundle name %q", name)
	}
}
