package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSLOBurnRate drives one objective through the full ok → warning →
// breach → ok cycle on an injectable clock, with every burn rate
// hand-computed. Ring: 6 x 10s. Objective: p(latency <= 100ms) >= 99%
// over 60s, so the error budget is 1% and burn = badFraction / 0.01.
func TestSLOBurnRate(t *testing.T) {
	reg := NewRegistry()
	clk := newFakeClock(time.Unix(100000, 0))
	h := reg.WindowedHistogramOpts("m_seconds", "", []float64{0.1, 1},
		WindowOptions{subWindows: 6, width: 10 * time.Second, Clock: clk.Now})

	engine := NewEngine(reg, []Objective{{
		Name:      "search",
		Metric:    "m_seconds",
		Target:    100 * time.Millisecond,
		GoodRatio: 0.99,
		Window:    time.Minute,
	}}, EngineOptions{})
	var breaches []SLOStatus
	engine.OnBreach(func(st SLOStatus) { breaches = append(breaches, st) })

	status := func() SLOStatus {
		sts := engine.Evaluate()
		if len(sts) != 1 {
			t.Fatalf("Evaluate returned %d statuses, want 1", len(sts))
		}
		return sts[0]
	}

	// Phase 1: 1000 good observations -> ok, zero burn.
	for i := 0; i < 1000; i++ {
		h.Observe(0.05)
	}
	st := status()
	if st.State != "ok" || st.FastBurn != 0 || st.SlowBurn != 0 || st.GoodFraction != 1 {
		t.Fatalf("phase 1 = %+v, want ok with zero burn", st)
	}

	// Phase 2: next sub-window turns fully bad with 100 slow requests.
	// Fast window (one 10s slot): 100/100 bad -> burn 1/0.01 = 100.
	// Slow window (60s): 100/1100 bad -> burn (100/1100)/0.01 = 9.0909...
	// Fast exceeds the page threshold but slow does not -> warning only.
	clk.Advance(10 * time.Second)
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	st = status()
	if st.State != "warning" {
		t.Fatalf("phase 2 state = %q, want warning (%+v)", st.State, st)
	}
	if !approxEq(st.FastBurn, 100) || !approxEq(st.SlowBurn, (100.0/1100)/0.01) {
		t.Errorf("phase 2 burns = %v / %v, want 100 / %v", st.FastBurn, st.SlowBurn, (100.0/1100)/0.01)
	}
	if len(breaches) != 0 {
		t.Fatalf("warning fired the breach callback: %+v", breaches)
	}

	// Phase 3: 400 more bad in the same sub-window. Slow window is now
	// 500/1500 bad -> burn 33.33 >= 14.4; fast stays at 100 -> breach.
	// The window p99 (target 0.99*1500 = 1485) interpolates inside the
	// second bucket: 0.1 + 0.9*(1485-1000)/500 = 0.973.
	for i := 0; i < 400; i++ {
		h.Observe(0.5)
	}
	st = status()
	if st.State != "breach" {
		t.Fatalf("phase 3 state = %q, want breach (%+v)", st.State, st)
	}
	if !approxEq(st.SlowBurn, (500.0/1500)/0.01) || !approxEq(st.FastBurn, 100) {
		t.Errorf("phase 3 burns = %v / %v", st.FastBurn, st.SlowBurn)
	}
	if !approxEq(st.P99, 0.973) {
		t.Errorf("phase 3 p99 = %v, want 0.973", st.P99)
	}
	if len(breaches) != 1 || breaches[0].Name != "search" {
		t.Fatalf("breach callbacks = %+v, want exactly one for search", breaches)
	}

	// Re-evaluating inside the breach must not re-fire the callback or
	// re-count the transition.
	_ = status()
	if len(breaches) != 1 {
		t.Fatalf("re-evaluation re-fired the breach callback (%d)", len(breaches))
	}

	// Phase 4: the clock leaves every observation behind; an idle service
	// burns nothing -> back to ok.
	clk.Advance(70 * time.Second)
	st = status()
	if st.State != "ok" || st.FastBurn != 0 || st.SlowBurn != 0 || st.Count != 0 {
		t.Fatalf("phase 4 = %+v, want idle ok", st)
	}

	// The exported series pin the whole journey: final state gauge 0, one
	// transition into each visited state, burn gauges back at zero.
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		`slicer_slo_state{slo="search"}`:                          0,
		`slicer_slo_burn_rate{slo="search",window="fast"}`:        0,
		`slicer_slo_burn_rate{slo="search",window="slow"}`:        0,
		`slicer_slo_transitions_total{slo="search",to="warning"}`: 1,
		`slicer_slo_transitions_total{slo="search",to="breach"}`:  1,
		`slicer_slo_transitions_total{slo="search",to="ok"}`:      1,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestSLOMissingMetric checks that an objective over an unregistered (or
// un-windowed) series reports Missing instead of alerting.
func TestSLOMissingMetric(t *testing.T) {
	reg := NewRegistry()
	reg.HistogramBuckets("plain_seconds", "", []float64{1}) // not windowed
	engine := NewEngine(reg, []Objective{
		{Name: "ghost", Metric: "never_registered", Target: time.Second, GoodRatio: 0.99, Window: time.Minute},
		{Name: "flat", Metric: "plain_seconds", Target: time.Second, GoodRatio: 0.99, Window: time.Minute},
	}, EngineOptions{})
	for _, st := range engine.Evaluate() {
		if !st.Missing || st.State != "ok" {
			t.Errorf("%s = %+v, want missing/ok", st.Name, st)
		}
	}

	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Objectives []SLOStatus `json:"objectives"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(payload.Objectives) != 2 {
		t.Errorf("objectives = %d, want 2", len(payload.Objectives))
	}
}

// TestParseObjectives covers the -slo grammar: inline specs, defaults,
// aliases, config files and every validation error.
func TestParseObjectives(t *testing.T) {
	aliases := map[string]string{"rpc:search": `slicer_rpc_request_seconds{method="cloud.search",server="cloud"}`}

	objs, err := ParseObjectives("name=search,metric=rpc:search,target=250ms,good=0.999,window=5m", aliases)
	if err != nil {
		t.Fatal(err)
	}
	want := Objective{
		Name:      "search",
		Metric:    aliases["rpc:search"],
		Target:    250 * time.Millisecond,
		GoodRatio: 0.999,
		Window:    5 * time.Minute,
	}
	if len(objs) != 1 || objs[0] != want {
		t.Errorf("parsed = %+v, want %+v", objs, want)
	}

	// Defaults: good 0.99, window = the default ring span, name = metric.
	objs, err = ParseObjectives("metric=m_seconds,target=1s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if o := objs[0]; o.Name != "m_seconds" || o.GoodRatio != 0.99 ||
		o.Window != time.Duration(DefWindowSubCount)*DefWindowSubWidth {
		t.Errorf("defaults = %+v", o)
	}

	// Two objectives separated by ';'.
	objs, err = ParseObjectives("metric=a,target=1s;metric=b,target=2s", nil)
	if err != nil || len(objs) != 2 {
		t.Fatalf("multi-spec = %+v, %v", objs, err)
	}

	// @file form with comments and blank lines.
	path := filepath.Join(t.TempDir(), "slo.conf")
	conf := "# latency objectives\n\nname=search,metric=a,target=100ms\nname=update,metric=b,target=1s # trailing comment\n"
	if err := os.WriteFile(path, []byte(conf), 0o600); err != nil {
		t.Fatal(err)
	}
	objs, err = ParseObjectives("@"+path, nil)
	if err != nil || len(objs) != 2 || objs[0].Name != "search" || objs[1].Name != "update" {
		t.Fatalf("@file = %+v, %v", objs, err)
	}

	for _, bad := range []string{
		"target=1s",                       // metric missing
		"metric=a",                        // target missing
		"metric=a,target=-1s",             // negative target
		"metric=a,target=1s,good=1",       // good out of range
		"metric=a,target=1s,good=0",       // good out of range
		"metric=a,target=1s,window=0s",    // window must be positive
		"metric=a,target=1s,shape=square", // unknown key
		"metric=a,target=1s,good",         // not key=value
	} {
		if _, err := ParseObjectives(bad, nil); err == nil {
			t.Errorf("ParseObjectives(%q) accepted invalid spec", bad)
		}
	}
	if _, err := ParseObjectives("@"+filepath.Join(t.TempDir(), "absent.conf"), nil); err == nil {
		t.Error("missing config file not reported")
	}

	if objs, err := ParseObjectives("  ", nil); err != nil || objs != nil {
		t.Errorf("blank spec = %+v, %v", objs, err)
	}
}

// TestSLOAliasesInText checks WriteText renders the missing-metric hint.
func TestSLOWriteText(t *testing.T) {
	engine := NewEngine(NewRegistry(), []Objective{
		{Name: "ghost", Metric: "gone", Target: time.Second, GoodRatio: 0.99, Window: time.Minute},
	}, EngineOptions{})
	var buf bytes.Buffer
	if err := engine.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "not collecting") {
		t.Errorf("missing-metric text = %q", buf.String())
	}
}
