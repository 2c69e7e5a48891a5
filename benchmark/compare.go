package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is BENCHMARK.json, the contract this program is written to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkFile finds BENCHMARK.json at the root of the checkout, whether
// the program runs from there or from its own directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, nil
	}
	return nil, lastErr
}

// readSet reads a result set (one run per line) and groups the untraced
// runs' values by workload and metric.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if r.Failed > 0 || !r.Correct {
			return nil, fmt.Errorf("%s: %s seed %d failed %d of %d operations", path, r.Workload, r.Seed, r.Failed, r.Attempted)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[r.Workload][name] = append(set[r.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// compare prints one row per workload and end-to-end metric: both medians,
// B over A, the bound, and a verdict. B is "worse" when its median is worse
// than A's by more than the bound; when A's own runs spread (first to third
// quartile, over the median) wider than the bound the row is "unresolved",
// because the benchmark could not have told. It reports whether any row is
// worse.
func compare(w io.Writer, bf *benchmarkFile, pathA, pathB string) (worse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "spread", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing from a result set", wl.Name, m.Name)
			}
			ma, mb := median(va), median(vb)
			spread := iqr(va) / ma
			change := mb/ma - 1
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case change > m.Bound && spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %9.4f %7.4f %7.2f  %s\n", wl.Name, m.Name, ma, mb, mb/ma, spread, m.Bound, verdict)
		}
	}
	return worse, nil
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them, which is what the driver uses.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(3) - cut(1)
}
