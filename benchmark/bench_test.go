package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"slicer/internal/core"
)

var toyScale = scale{
	params:     core.Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512},
	records:    64,
	cycles:     3,
	batch:      2,
	warmRounds: 5,
	warmCycles: 1,
	setups:     1,

	epochRounds: 20,
	minEpochs:   countedEpochs,
}

func toyConfig(t *testing.T, s spec, traced bool) config {
	return config{spec: s, scale: toyScale, seed: 7, seconds: 0.2, traced: traced, scratch: t.TempDir(), outDir: t.TempDir()}
}

// TestSmoke runs every workload at toy size in both modes and holds the
// output to BENCHMARK.json: each of its metrics once, nothing else, every
// value finite, no operation failed (which includes the tamper probes being
// refunded and the balances adding up).
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(specs))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wl := range bf.Workloads {
		s, ok := specByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			cfg := toyConfig(t, s, traced)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is outside the contract", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s is not finite", wl.Name, traced, m.Name)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", wl.Name, m.Name, got.Value)
				}
			}
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("last line is not the result object: %.80s", last)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl.Name+".json")); err != nil {
					t.Errorf("traced run left no trace file: %v", err)
				}
				if un := res.Metrics["slicer.unattributed_pct"].Value; un > 10 {
					t.Errorf("%s: %.1f%% of round time is unattributed", wl.Name, un)
				}
			}
		}
	}
}

// TestGateTrips checks the correctness gate from the other side: a round
// whose IDs disagree with the oracle, and a tampered response that is paid
// for, must both count as failures.
func TestGateTrips(t *testing.T) {
	s, _ := specByName("inproc-order")
	b, _, _, err := setUp(toyConfig(t, s, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.gen.db.add([]core.Record{core.NewRecord(1<<40, 0)}) // a record the cloud never got
	if _, err := b.search(core.Less(255), kindSteady, false); err != nil {
		t.Fatal(err)
	}
	if b.sm.failed != 1 {
		t.Errorf("oracle mismatch counted %d failures, want 1", b.sm.failed)
	}
	out, err := b.sys.round(core.Less(255), 0, nil, dropEntry)
	if err != nil {
		t.Fatal(err)
	}
	if out.settled || out.ids != nil {
		t.Error("a response with an entry dropped was paid for")
	}
}

// TestIQR pins the quartile rule to Python's statistics.quantiles(n=4).
func TestIQR(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	if got := iqr([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); got != 27.5 {
		t.Errorf("iqr = %v, want 27.5", got)
	}
}

func TestCompare(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, wl := range bf.Workloads {
			r := &result{Workload: wl.Name, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
			for _, m := range bf.EndToEnd {
				v := 100.0
				if m.Name == "search_p50_ms" {
					v *= scale
				}
				r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
			}
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("a", 1), write("b", 1.05), write("c", 1.5)
	var buf bytes.Buffer
	if worse, err := compare(&buf, bf, base, same); err != nil || worse {
		t.Errorf("5%% inside the bound: worse=%v err=%v", worse, err)
	}
	if worse, err := compare(&buf, bf, base, slow); err != nil || !worse {
		t.Errorf("50%% slower search_p50_ms: worse=%v err=%v", worse, err)
	}
}
