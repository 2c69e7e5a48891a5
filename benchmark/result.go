package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance says where and how a result was measured.
type provenance struct {
	Seconds     float64 `json:"seconds"`
	Records     int     `json:"records"`
	Cycles      int     `json:"churn_cycles"`
	Batch       int     `json:"insert_batch"`
	Setups      int     `json:"setups"`
	EpochRounds int     `json:"epoch_rounds"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPU         string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	GitSHA      string  `json:"git_sha"`
}

// result is one run. The last line of standard output carries the four keys
// the driver reads; --out appends the whole record to a result set.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	TimedSeconds float64           `json:"timed_seconds"`
	Metrics      map[string]metric `json:"metrics"`
	Samples      map[string]int    `json:"samples"`
	Provenance   provenance        `json:"provenance"`
}

func newResult(cfg config, timed float64) *result {
	return &result{
		Workload: cfg.spec.name, Seed: cfg.seed, Traced: cfg.traced, TimedSeconds: timed,
		Metrics: map[string]metric{}, Samples: map[string]int{},
		Provenance: provenance{
			Seconds: cfg.seconds, Records: cfg.records(), Cycles: cfg.cycles(), Batch: cfg.scale.batch,
			Setups: cfg.scale.setups, EpochRounds: cfg.scale.epochRounds,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPU: cpuModel(), GoVersion: runtime.Version(), GitSHA: gitSHA(),
		},
	}
}

// set files a metric of BENCHMARK.json with the number of samples behind it.
func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.Samples[name] = n
}

// finite reports the first metric that is not a finite number.
func (r *result) finite() error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%d samples)", name, r.Samples[name])
		}
	}
	return nil
}

// print writes every metric as a "name unit value" line, then the line the
// driver parses.
func (r *result) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	p := r.Provenance
	fmt.Fprintf(bw, "# %s seed %d traced %v: %.2f s timed, %d records, nproc %d, GOMAXPROCS %d, %s, %s, git %s\n",
		r.Workload, r.Seed, r.Traced, r.TimedSeconds, p.Records, p.NProc, p.GOMAXPROCS, p.CPU, p.GoVersion, p.GitSHA)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(bw, "%s %s %s (n=%d)\n", name, m.Unit, strconv.FormatFloat(m.Value, 'g', -1, 64), r.Samples[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// appendTo adds the record to a result set: one JSON object per line.
func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit without running git; the driver's
// checkout is not a repository, and there it is "unknown".
func gitSHA() string {
	for _, dir := range []string{".git", filepath.Join("..", ".git")} {
		head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(dir, strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(sha))
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
