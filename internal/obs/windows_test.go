package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutable injected clock shared by a test and a ring.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(t time.Time) *fakeClock { return &fakeClock{t: t} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestWindowRingEviction checks the ring's core property: observations
// fall out of the merged view exactly when the clock leaves their
// sub-window behind, without any background goroutine.
func TestWindowRingEviction(t *testing.T) {
	clk := newFakeClock(time.Unix(1000, 0))
	ring := newWindowRing([]float64{1, 10}, WindowOptions{
		subWindows: 3, width: 10 * time.Second, Clock: clk.Now,
	})
	if got, want := ring.span(), 30*time.Second; got != want {
		t.Fatalf("span = %v, want %v", got, want)
	}

	ring.observe(0.5) // window A
	clk.Advance(10 * time.Second)
	ring.observe(5) // window B
	clk.Advance(10 * time.Second)
	ring.observe(50) // window C

	if _, total, sum, _ := ring.view(ring.span()); total != 3 || sum != 55.5 {
		t.Errorf("full view = %d obs, sum %v; want 3, 55.5", total, sum)
	}
	// A trailing 10s view holds only the newest sub-window.
	if _, total, sum, eff := ring.view(10 * time.Second); total != 1 || sum != 50 || eff != 10*time.Second {
		t.Errorf("10s view = %d obs, sum %v over %v; want 1, 50, 10s", total, sum, eff)
	}

	// Advancing one more window evicts A: its slot is reused.
	clk.Advance(10 * time.Second)
	ring.observe(0.5) // window D, overwrites A's slot
	if _, total, sum, _ := ring.view(ring.span()); total != 3 || sum != 55.5 {
		t.Errorf("after eviction = %d obs, sum %v; want 3 (B, C, D), 55.5", total, sum)
	}

	// A long idle stretch empties the whole view lazily.
	clk.Advance(time.Hour)
	if _, total, _, _ := ring.view(ring.span()); total != 0 {
		t.Errorf("idle view = %d obs, want 0", total)
	}
}

// TestWindowRingSpanClamp checks that a requested span is clamped to
// [one sub-window, the full ring].
func TestWindowRingSpanClamp(t *testing.T) {
	clk := newFakeClock(time.Unix(0, 0))
	ring := newWindowRing([]float64{1}, WindowOptions{
		subWindows: 4, width: time.Second, Clock: clk.Now,
	})
	if _, _, _, eff := ring.view(0); eff != time.Second {
		t.Errorf("zero span clamps to %v, want 1s", eff)
	}
	if _, _, _, eff := ring.view(time.Hour); eff != 4*time.Second {
		t.Errorf("huge span clamps to %v, want 4s", eff)
	}
	// A fractional span rounds up to whole sub-windows.
	if _, _, _, eff := ring.view(1500 * time.Millisecond); eff != 2*time.Second {
		t.Errorf("1.5s span rounds to %v, want 2s", eff)
	}
}

// TestWindowRingPreEpoch pins floor division for clocks before the Unix
// epoch: adjacent pre-epoch instants must not share a window index with
// post-epoch ones (plain integer division truncates toward zero and
// would merge windows around t=0).
func TestWindowRingPreEpoch(t *testing.T) {
	clk := newFakeClock(time.Unix(-5, 0))
	ring := newWindowRing([]float64{1}, WindowOptions{
		subWindows: 4, width: 10 * time.Second, Clock: clk.Now,
	})
	before := ring.windowIndex(time.Unix(-5, 0))
	after := ring.windowIndex(time.Unix(5, 0))
	if before != -1 || after != 0 {
		t.Errorf("window indices around epoch = %d, %d; want -1, 0", before, after)
	}
	ring.observe(0.5)
	clk.Advance(10 * time.Second) // crosses the epoch into window 0
	ring.observe(0.5)
	if _, total, _, _ := ring.view(ring.span()); total != 2 {
		t.Errorf("cross-epoch view = %d obs, want 2", total)
	}
}

// TestQuantileFromBuckets pins the interpolation arithmetic on a
// hand-computed distribution.
func TestQuantileFromBuckets(t *testing.T) {
	bounds := []float64{100, 200, 400}
	// 10 obs <= 100, 60 in (100,200], 20 in (200,400], 10 above.
	counts := []uint64{10, 60, 20, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.05, 50},  // target 5 inside the first bucket: 0 + 100*5/10
		{0.10, 100}, // exactly the first bucket's cumulative count
		{0.50, 300.0/180*100 + 100 - 100.0/180*100}, // see below
		{0.90, 400},  // target 90 = cumulative through the third bucket
		{0.999, 400}, // +Inf bucket reports the last finite bound
		{1.5, 400},   // q clamps to 1
	}
	// q=0.5: target 50, cum before second bucket 10, so
	// 100 + (200-100)*(50-10)/60 = 166.666...
	cases[2].want = 100 + 100*40.0/60
	for _, c := range cases {
		if got := quantileFromBuckets(bounds, counts, 100, c.q); !approxEq(got, c.want) {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantileFromBuckets(bounds, []uint64{0, 0, 0, 0}, 0, 0.5); got != 0 {
		t.Errorf("empty distribution quantile = %v, want 0", got)
	}
}

// TestGoodFraction pins the SLO numerator estimate.
func TestGoodFraction(t *testing.T) {
	bounds := []float64{100, 200}
	counts := []uint64{50, 30, 20}
	cases := []struct {
		target float64
		want   float64
	}{
		{100, 0.5},           // whole first bucket
		{200, 0.8},           // first two buckets
		{150, 0.5 + 0.3*0.5}, // halfway through the second bucket
		{1000, 0.8},          // +Inf observations are never good
	}
	for _, c := range cases {
		if got := goodFraction(bounds, counts, 100, c.target); !approxEq(got, c.want) {
			t.Errorf("target=%v: got %v, want %v", c.target, got, c.want)
		}
	}
	if got := goodFraction(bounds, []uint64{0, 0, 0}, 0, 100); got != 1 {
		t.Errorf("idle service good fraction = %v, want 1 (not burning)", got)
	}
}

// TestWindowedHistogramRegistry checks the registry plumbing: windowed
// histograms appear in Windows()/WindowSnapshotFor and re-registering
// keeps the first ring.
func TestWindowedHistogramRegistry(t *testing.T) {
	r := NewRegistry()
	clk := newFakeClock(time.Unix(1000, 0))
	h := r.WindowedHistogramOpts("w_seconds", "", []float64{1, 10},
		WindowOptions{subWindows: 2, width: time.Second, Clock: clk.Now})
	if !h.Windowed() {
		t.Fatal("histogram not windowed")
	}
	h.Observe(0.5)
	h.Observe(5)

	snap, ok := r.WindowSnapshotFor("w_seconds")
	if !ok {
		t.Fatal("WindowSnapshotFor missed the registered histogram")
	}
	if snap.Count != 2 || snap.Sum != 5.5 {
		t.Errorf("snapshot = %+v, want count 2 sum 5.5", snap)
	}
	if all := r.Windows(); len(all) != 1 || all["w_seconds"].Count != 2 {
		t.Errorf("Windows() = %+v", all)
	}

	// Re-registering the same name keeps the first ring and its clock.
	h2 := r.WindowedHistogramOpts("w_seconds", "", []float64{1, 10}, WindowOptions{})
	if h2 != h {
		t.Error("re-registration returned a different histogram")
	}
	if got := h2.Window().Count; got != 2 {
		t.Errorf("ring was replaced on re-registration (count %d, want 2)", got)
	}

	// The quantile gauges flow through the generic snapshot API.
	flat := r.Snapshot()
	if _, ok := flat[`w_seconds_window{quantile="p99"}`]; !ok {
		t.Errorf("snapshot missing windowed p99 gauge: %v", flat)
	}

	// A plain histogram stays un-windowed and unlisted.
	if r.HistogramBuckets("plain_seconds", "", []float64{1}).Windowed() {
		t.Error("plain histogram reports a window")
	}
	if _, ok := r.WindowSnapshotFor("plain_seconds"); ok {
		t.Error("WindowSnapshotFor invented a window")
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
