package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefWindowSubCount and DefWindowSubWidth shape the default sliding
// window: 12 sub-windows of 10s give a 2-minute live view that advances in
// 10-second steps — wide enough to smooth scheduler noise, narrow enough
// that a latency regression shows within seconds.
const (
	DefWindowSubCount = 12
	DefWindowSubWidth = 10 * time.Second
)

// WindowOptions configures a sliding-window histogram ring. The zero value
// selects the defaults (12 x 10s, wall clock).
type WindowOptions struct {
	// Clock supplies time to the ring. It defaults to time.Now at this
	// single injection point; every evaluation path (observe, merge,
	// quantile, SLO burn rate) goes through the injected clock, so tests
	// and deterministic replays never touch the wall clock.
	Clock func() time.Time
	// subWindows and width override DefWindowSubCount and DefWindowSubWidth
	// so tests work on short rings.
	subWindows int
	width      time.Duration
}

func (w WindowOptions) withDefaults() WindowOptions {
	if w.subWindows <= 0 {
		w.subWindows = DefWindowSubCount
	}
	if w.width <= 0 {
		w.width = DefWindowSubWidth
	}
	if w.Clock == nil {
		w.Clock = time.Now
	}
	return w
}

// WindowSnapshot is the merged live view of a windowed histogram: the
// observation count, sum and bucket-interpolated quantile estimates over
// the ring's span. Quantiles are estimated by linear interpolation inside
// the containing bucket (Prometheus histogram_quantile semantics), so the
// estimate is exact to within the width of that bucket; observations past
// the last finite bound report the last finite bound.
type WindowSnapshot struct {
	WindowSeconds float64 `json:"windowSeconds"`
	Count         uint64  `json:"count"`
	Sum           float64 `json:"sum"`
	P50           float64 `json:"p50"`
	P90           float64 `json:"p90"`
	P99           float64 `json:"p99"`
	P999          float64 `json:"p999"`
}

// slotEmpty marks a slot that has never held a sub-window. It cannot be a
// plain -1: pre-epoch injected clocks yield legitimate negative window
// indices.
const slotEmpty = math.MinInt64

// windowSlot is one sub-window of observations.
type windowSlot struct {
	index  int64 // absolute window index this slot holds; slotEmpty = unused
	counts []uint64
	total  uint64
	sum    float64
}

// windowRing is a ring of sub-windows sharing the parent histogram's
// bucket bounds. All methods are safe for concurrent use; the ring
// advances lazily on both writes and reads, driven by the injected clock.
type windowRing struct {
	width  time.Duration
	bounds []float64 // shared with the parent histogram; read-only
	now    func() time.Time

	mu    sync.Mutex
	slots []windowSlot
}

func newWindowRing(bounds []float64, opts WindowOptions) *windowRing {
	opts = opts.withDefaults()
	r := &windowRing{width: opts.width, bounds: bounds, now: opts.Clock}
	r.slots = make([]windowSlot, opts.subWindows)
	for i := range r.slots {
		r.slots[i] = windowSlot{index: slotEmpty, counts: make([]uint64, len(bounds)+1)}
	}
	return r
}

// span reports the full live view the ring can serve.
func (r *windowRing) span() time.Duration { return time.Duration(len(r.slots)) * r.width }

// windowIndex maps a time to its absolute window index.
func (r *windowRing) windowIndex(t time.Time) int64 {
	idx := t.UnixNano() / int64(r.width)
	if t.UnixNano() < 0 && t.UnixNano()%int64(r.width) != 0 {
		idx-- // floor division for pre-epoch fake clocks
	}
	return idx
}

// slotFor returns the (reset if stale) slot for the absolute index idx.
// Caller holds r.mu.
func (r *windowRing) slotFor(idx int64) *windowSlot {
	pos := int(((idx % int64(len(r.slots))) + int64(len(r.slots))) % int64(len(r.slots)))
	s := &r.slots[pos]
	if s.index != idx {
		for i := range s.counts {
			s.counts[i] = 0
		}
		s.index, s.total, s.sum = idx, 0, 0
	}
	return s
}

// observe records one value into the current sub-window.
func (r *windowRing) observe(v float64) {
	idx := r.windowIndex(r.now())
	b := sort.SearchFloat64s(r.bounds, v)
	r.mu.Lock()
	s := r.slotFor(idx)
	s.counts[b]++
	s.total++
	s.sum += v
	r.mu.Unlock()
}

// view merges the sub-windows covering the trailing span (clamped to the
// ring's full span, floor one sub-window) into per-bucket counts. The
// returned slice is freshly allocated; effective reports the merged span.
func (r *windowRing) view(span time.Duration) (counts []uint64, total uint64, sum float64, effective time.Duration) {
	k := int((span + r.width - 1) / r.width)
	if k < 1 {
		k = 1
	}
	if k > len(r.slots) {
		k = len(r.slots)
	}
	idx := r.windowIndex(r.now())
	counts = make([]uint64, len(r.bounds)+1)
	r.mu.Lock()
	for i := range r.slots {
		s := &r.slots[i]
		if s.index == slotEmpty || s.index > idx || s.index <= idx-int64(k) {
			continue // empty, stale, or (clock rewound) future slot
		}
		for b, c := range s.counts {
			counts[b] += c
		}
		total += s.total
		sum += s.sum
	}
	r.mu.Unlock()
	return counts, total, sum, time.Duration(k) * r.width
}

// snapshot merges the full ring into a WindowSnapshot.
func (r *windowRing) snapshot() WindowSnapshot {
	counts, total, sum, eff := r.view(r.span())
	return WindowSnapshot{
		WindowSeconds: eff.Seconds(),
		Count:         total,
		Sum:           sum,
		P50:           quantileFromBuckets(r.bounds, counts, total, 0.5),
		P90:           quantileFromBuckets(r.bounds, counts, total, 0.9),
		P99:           quantileFromBuckets(r.bounds, counts, total, 0.99),
		P999:          quantileFromBuckets(r.bounds, counts, total, 0.999),
	}
}

// quantile estimates one quantile over the trailing span.
func (r *windowRing) quantile(q float64, span time.Duration) float64 {
	counts, total, _, _ := r.view(span)
	return quantileFromBuckets(r.bounds, counts, total, q)
}

// quantileFromBuckets estimates the q-quantile of a bucketed distribution
// by linear interpolation inside the containing bucket: the error bound is
// the containing bucket's width (the estimate is exact when observations
// are uniform within the bucket). Observations in the +Inf bucket report
// the last finite bound; an empty distribution reports 0.
func quantileFromBuckets(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= len(bounds) {
				return bounds[len(bounds)-1] // +Inf bucket
			}
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			return lower + (bounds[i]-lower)*(target-cum)/float64(c)
		}
		cum = next
	}
	return bounds[len(bounds)-1]
}

// goodFraction estimates the fraction of observations at or below target,
// interpolating inside the bucket containing the target. An empty
// distribution counts as all-good (an idle service is not burning budget).
func goodFraction(bounds []float64, counts []uint64, total uint64, target float64) float64 {
	if total == 0 {
		return 1
	}
	var good float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if i >= len(bounds) {
			break // +Inf bucket: all above any finite target
		}
		upper := bounds[i]
		if upper <= target {
			good += float64(c)
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		if target > lower && upper > lower {
			good += float64(c) * (target - lower) / (upper - lower)
		}
		break
	}
	f := good / float64(total)
	if f > 1 {
		f = 1
	}
	return f
}

// windowQuantiles are the quantile gauges exported for every windowed
// histogram as <family>_window{...,quantile="pXX"}.
var windowQuantiles = []struct {
	label string
	q     float64
}{
	{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999},
}

// WindowedHistogram is Histogram plus a sliding-window ring with the
// default shape (12 x 10s): the cumulative series keeps exporting as
// before, and live p50/p90/p99/p999 gauges appear under
// <family>_window{...,quantile="pXX"}.
func (r *Registry) WindowedHistogram(name, help string) *Histogram {
	return r.WindowedHistogramOpts(name, help, DefLatencyBuckets, WindowOptions{})
}

// WindowedHistogramOpts is WindowedHistogram with explicit buckets and
// window shape. Calling it on an already-windowed histogram keeps the
// first ring (and its clock).
func (r *Registry) WindowedHistogramOpts(name, help string, buckets []float64, opts WindowOptions) *Histogram {
	if r == nil {
		return nil
	}
	h := r.HistogramBuckets(name, help, buckets)
	ring := newWindowRing(h.bounds, opts)
	if !h.win.CompareAndSwap(nil, ring) {
		return h
	}
	r.mu.Lock()
	r.windowed[name] = h
	r.mu.Unlock()
	family, labels := splitName(name)
	whelp := "Sliding-window quantile estimate of " + family + " (bucket-interpolated)."
	for _, wq := range windowQuantiles {
		q := wq.q
		gname := family + "_window{" + mergeLabelPairs(labels, "quantile", wq.label) + "}"
		r.GaugeFunc(gname, whelp, func() float64 { return ring.quantile(q, ring.span()) })
	}
	return h
}

// Window merges the histogram's sliding-window ring into a live snapshot.
// The zero WindowSnapshot is returned for nil or non-windowed histograms.
func (h *Histogram) Window() WindowSnapshot {
	if h == nil {
		return WindowSnapshot{}
	}
	w := h.win.Load()
	if w == nil {
		return WindowSnapshot{}
	}
	return w.snapshot()
}

// Windowed reports whether the histogram carries a sliding-window ring.
func (h *Histogram) Windowed() bool {
	return h != nil && h.win.Load() != nil
}

// Windows snapshots every windowed histogram by registered name — the
// Snapshot API the bench harness, stats RPCs and slicer-cli consume.
func (r *Registry) Windows() map[string]WindowSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.windowed))
	for name, h := range r.windowed {
		hists[name] = h
	}
	r.mu.Unlock()
	out := make(map[string]WindowSnapshot, len(hists))
	for name, h := range hists {
		out[name] = h.Window()
	}
	return out
}

// WindowSnapshotFor snapshots one windowed histogram by registered name.
func (r *Registry) WindowSnapshotFor(name string) (WindowSnapshot, bool) {
	if r == nil {
		return WindowSnapshot{}, false
	}
	r.mu.Lock()
	h, ok := r.windowed[name]
	r.mu.Unlock()
	if !ok {
		return WindowSnapshot{}, false
	}
	return h.Window(), true
}

// histogramNamed resolves a registered histogram by its full name.
func (r *Registry) histogramNamed(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.kind == kindHistogram {
		return m.hist
	}
	return nil
}
