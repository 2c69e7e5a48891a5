package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Op; Parent indexes the span that caused it (-1 for the operation's
// root). Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op, so the measured path is the same
// code with nothing attached.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func noop() {}

// span opens a span and returns the function that closes it.
func (r *recorder) span(name string, op, parent int) (id int, end func()) {
	if r == nil {
		return -1, noop
	}
	id = len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.t0))})
	return id, func() { r.spans[id].End = int64(time.Since(r.t0)) }
}

// len and truncate let the caller drop the spans of untimed warm-up work.
func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

func (r *recorder) truncate(n int) {
	if r != nil {
		r.spans = r.spans[:n]
	}
}

// layerTime is the ledger row of one span name.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`
}

// ledger sums spans by name. A span's self time is its duration minus its
// children's; the self time of the root spans is what no layer accounts for.
func (r *recorder) ledger() map[string]layerTime {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.TotalMs += float64(d) / 1e6
		lt.SelfMs += float64(d-child[i]) / 1e6
		out[s.Name] = lt
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	for name, lt := range out {
		lt.P50Us = median(durs[name])
		out[name] = lt
	}
	return out
}

// durations lists, in microseconds, every closed span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Ledger   map[string]layerTime `json:"ledger"`
	Metrics  map[string]metric    `json:"metrics"`
	Spans    []span               `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation, NaN when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// slope is the least-squares slope of ys over xs, NaN when xs does not vary.
func slope(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return math.NaN()
	}
	return sxy / sxx
}
