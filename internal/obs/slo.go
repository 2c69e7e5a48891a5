package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLOState is the alerting state of one objective.
type SLOState int

const (
	SLOOK SLOState = iota
	SLOWarning
	SLOBreach
)

func (s SLOState) String() string {
	switch s {
	case SLOWarning:
		return "warning"
	case SLOBreach:
		return "breach"
	}
	return "ok"
}

// Multi-window multi-burn-rate thresholds (Google SRE workbook defaults):
// burn rate is the error budget consumption speed relative to the
// objective (burn 1 = exactly exhausting the budget over the SLO window).
// A page requires BOTH the fast and the slow window to burn hot, so a
// brief spike (fast-only) or an old, already-recovered incident
// (slow-only) does not alert.
const (
	fastBurnThreshold = 14.4
	slowBurnThreshold = 6.0
)

// Objective is one declarative latency SLO: GoodRatio of observations on
// Metric must land at or under Target, judged over a rolling Window.
type Objective struct {
	Name      string        // display name, e.g. "search"
	Metric    string        // registered windowed-histogram name
	Target    time.Duration // latency bound
	GoodRatio float64       // e.g. 0.99 for "99% of requests"
	Window    time.Duration // rolling evaluation window (clamped to the ring span)
}

// SLOStatus is one objective's evaluated state.
type SLOStatus struct {
	Name          string  `json:"name"`
	Metric        string  `json:"metric"`
	TargetSeconds float64 `json:"targetSeconds"`
	GoodRatio     float64 `json:"goodRatio"`
	WindowSeconds float64 `json:"windowSeconds"`
	State         string  `json:"state"`
	FastBurn      float64 `json:"fastBurn"`
	SlowBurn      float64 `json:"slowBurn"`
	GoodFraction  float64 `json:"goodFraction"`
	Count         uint64  `json:"count"`
	P99           float64 `json:"p99"`
	ExemplarTrace string  `json:"exemplarTrace,omitempty"`
	Missing       bool    `json:"missing,omitempty"`
}

// EngineOptions tunes an SLO engine; the zero value selects the defaults.
type EngineOptions struct {
	Logger *slog.Logger
}

// Engine evaluates declarative latency objectives against windowed
// histograms in a registry, exports state/burn-rate gauges and transition
// counters, and fires callbacks on transition to breach (the continuous
// profiler's trigger). Evaluation reads only the histograms' sliding
// rings, whose time comes from their injected clocks — Evaluate itself
// never touches the wall clock, so tests drive the whole ok → warning →
// breach → ok cycle deterministically.
type Engine struct {
	reg         *Registry
	logger      *slog.Logger
	stateVec    *GaugeVec
	burnVec     *GaugeVec
	transitions *CounterVec

	mu         sync.Mutex
	objectives []Objective
	states     map[string]SLOState
	onBreach   []func(SLOStatus)
}

// NewEngine builds an engine over reg for the given objectives. A nil
// registry or empty objective list yields a usable engine that evaluates
// to nothing.
func NewEngine(reg *Registry, objectives []Objective, opts EngineOptions) *Engine {
	if opts.Logger == nil {
		opts.Logger = Nop()
	}
	return &Engine{
		reg:    reg,
		logger: opts.Logger,
		stateVec: reg.GaugeVec("slicer_slo_state",
			"SLO state per objective: 0 ok, 1 warning, 2 breach.", []string{"slo"}),
		burnVec: reg.GaugeVec("slicer_slo_burn_rate",
			"Error-budget burn rate per objective and evaluation window.", []string{"slo", "window"}),
		transitions: reg.CounterVec("slicer_slo_transitions_total",
			"SLO state transitions, by objective and destination state.", []string{"slo", "to"}),
		objectives: append([]Objective(nil), objectives...),
		states:     make(map[string]SLOState),
	}
}

// Objectives returns the configured objectives.
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Objective(nil), e.objectives...)
}

// OnBreach registers fn to run (synchronously, outside the engine lock)
// whenever an objective transitions into breach.
func (e *Engine) OnBreach(fn func(SLOStatus)) {
	if e == nil || fn == nil {
		return
	}
	e.mu.Lock()
	e.onBreach = append(e.onBreach, fn)
	e.mu.Unlock()
}

// Evaluate re-judges every objective from its histogram's live window,
// updates the exported gauges/counters, and returns the statuses.
func (e *Engine) Evaluate() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	objectives := append([]Objective(nil), e.objectives...)
	callbacks := make([]func(SLOStatus), len(e.onBreach))
	copy(callbacks, e.onBreach)
	e.mu.Unlock()

	statuses := make([]SLOStatus, 0, len(objectives))
	var breached []SLOStatus
	for _, o := range objectives {
		st := e.evaluateOne(o)
		statuses = append(statuses, st)

		state := SLOOK
		switch st.State {
		case SLOWarning.String():
			state = SLOWarning
		case SLOBreach.String():
			state = SLOBreach
		}
		e.stateVec.WithLabelValues(o.Name).Set(float64(state))
		e.burnVec.WithLabelValues(o.Name, "fast").Set(st.FastBurn)
		e.burnVec.WithLabelValues(o.Name, "slow").Set(st.SlowBurn)

		e.mu.Lock()
		prev, known := e.states[o.Name]
		transitioned := !known && state != SLOOK || known && state != prev
		e.states[o.Name] = state
		e.mu.Unlock()
		if transitioned {
			e.transitions.WithLabelValues(o.Name, state.String()).Inc()
			e.logger.Warn("slo state transition",
				"slo", o.Name, "from", prev.String(), "to", state.String(),
				"fastBurn", st.FastBurn, "slowBurn", st.SlowBurn, "p99", st.P99,
				"exemplar", st.ExemplarTrace)
			if state == SLOBreach {
				breached = append(breached, st)
			}
		}
	}
	for _, st := range breached {
		for _, fn := range callbacks {
			fn(st)
		}
	}
	return statuses
}

// evaluateOne judges a single objective.
func (e *Engine) evaluateOne(o Objective) SLOStatus {
	st := SLOStatus{
		Name:          o.Name,
		Metric:        o.Metric,
		TargetSeconds: o.Target.Seconds(),
		GoodRatio:     o.GoodRatio,
		WindowSeconds: o.Window.Seconds(),
		State:         SLOOK.String(),
		GoodFraction:  1,
	}
	h := e.reg.histogramNamed(o.Metric)
	var ring *windowRing
	if h != nil {
		ring = h.win.Load()
	}
	if ring == nil {
		st.Missing = true
		return st
	}
	budget := 1 - o.GoodRatio
	if budget <= 0 {
		budget = 1e-9 // a 100% objective burns infinitely fast on any error
	}
	counts, total, _, slowSpan := ring.view(o.Window)
	target := o.Target.Seconds()
	slowGood := goodFraction(ring.bounds, counts, total, target)
	slowBurn := (1 - slowGood) / budget

	fastSpan := o.Window / 12
	if fastSpan < ring.width {
		fastSpan = ring.width
	}
	fc, ft, _, _ := ring.view(fastSpan)
	fastBurn := (1 - goodFraction(ring.bounds, fc, ft, target)) / budget

	state := SLOOK
	switch {
	case fastBurn >= fastBurnThreshold && slowBurn >= fastBurnThreshold:
		state = SLOBreach
	case fastBurn >= slowBurnThreshold && slowBurn >= slowBurnThreshold:
		state = SLOWarning
	}
	st.State = state.String()
	st.FastBurn = fastBurn
	st.SlowBurn = slowBurn
	st.GoodFraction = slowGood
	st.Count = total
	st.WindowSeconds = slowSpan.Seconds()
	st.P99 = quantileFromBuckets(ring.bounds, counts, total, 0.99)
	if ex, ok := h.ExemplarNear(st.P99); ok {
		st.ExemplarTrace = ex.TraceID
	}
	return st
}

// Run evaluates on a background ticker (default 10s) until the returned
// stop function is called.
func (e *Engine) Run(interval time.Duration) (stop func()) {
	if e == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				e.Evaluate()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// WriteJSON renders {"objectives": [...]} with freshly evaluated statuses
// — the /debug/slo payload.
func (e *Engine) WriteJSON(w io.Writer) error {
	payload := struct {
		Objectives []SLOStatus `json:"objectives"`
	}{e.Evaluate()}
	if payload.Objectives == nil {
		payload.Objectives = []SLOStatus{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// WriteText renders one aligned line per objective.
func (e *Engine) WriteText(w io.Writer) error {
	statuses := e.Evaluate()
	if len(statuses) == 0 {
		_, err := fmt.Fprintln(w, "no objectives configured")
		return err
	}
	for _, st := range statuses {
		if st.Missing {
			if _, err := fmt.Fprintf(w, "%-16s state=%-8s metric %s not collecting\n", st.Name, st.State, st.Metric); err != nil {
				return err
			}
			continue
		}
		_, err := fmt.Fprintf(w, "%-16s state=%-8s burn fast=%.2f slow=%.2f good=%.3f%% p99=%s target=%s window=%s n=%d",
			st.Name, st.State, st.FastBurn, st.SlowBurn, st.GoodFraction*100,
			time.Duration(st.P99*float64(time.Second)).Round(time.Microsecond),
			time.Duration(st.TargetSeconds*float64(time.Second)),
			time.Duration(st.WindowSeconds*float64(time.Second)), st.Count)
		if err != nil {
			return err
		}
		if st.ExemplarTrace != "" {
			if _, err := fmt.Fprintf(w, " exemplar=%s", st.ExemplarTrace); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ParseObjectives parses the -slo flag grammar: objectives separated by
// ';', each a comma-separated list of key=value pairs with keys name,
// metric, target, good and window, e.g.
//
//	name=search,metric=rpc:search,target=250ms,good=0.99,window=2m
//
// good defaults to 0.99 and window to the default ring span (2m). metric
// values are looked up in aliases first, so binaries can map short names
// like "rpc:search" onto their full registered series; unknown metrics
// pass through verbatim (they report Missing until the series appears).
// A spec starting with '@' names a config file holding one objective per
// line, with '#' comments and blank lines ignored.
func ParseObjectives(spec string, aliases map[string]string) ([]Objective, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("obs: slo config: %w", err)
		}
		var parts []string
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if line = strings.TrimSpace(line); line != "" {
				parts = append(parts, line)
			}
		}
		spec = strings.Join(parts, ";")
	}
	var out []Objective
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		o := Objective{GoodRatio: 0.99, Window: time.Duration(DefWindowSubCount) * DefWindowSubWidth}
		for _, kv := range strings.Split(part, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("obs: slo objective %q: expected key=value, got %q", part, kv)
			}
			v = strings.TrimSpace(v)
			var err error
			switch strings.TrimSpace(k) {
			case "name":
				o.Name = v
			case "metric":
				o.Metric = v
			case "target":
				o.Target, err = time.ParseDuration(v)
			case "good":
				o.GoodRatio, err = strconv.ParseFloat(v, 64)
			case "window":
				o.Window, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("obs: slo objective %q: unknown key %q (want name, metric, target, good or window)", part, k)
			}
			if err != nil {
				return nil, fmt.Errorf("obs: slo objective %q: %s: %w", part, k, err)
			}
		}
		if o.Metric == "" {
			return nil, fmt.Errorf("obs: slo objective %q: metric is required", part)
		}
		if o.Target <= 0 {
			return nil, fmt.Errorf("obs: slo objective %q: target must be a positive duration", part)
		}
		if o.GoodRatio <= 0 || o.GoodRatio >= 1 {
			return nil, fmt.Errorf("obs: slo objective %q: good must be in (0, 1)", part)
		}
		if o.Window <= 0 {
			return nil, fmt.Errorf("obs: slo objective %q: window must be positive", part)
		}
		if o.Name == "" {
			o.Name = o.Metric
		}
		if full, ok := aliases[o.Metric]; ok {
			o.Metric = full
		}
		out = append(out, o)
	}
	return out, nil
}
