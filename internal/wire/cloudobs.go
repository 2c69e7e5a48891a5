package wire

import (
	"slicer/internal/core"
	"slicer/internal/obs"
)

// ObservedCloud is a core.Cloud with the cloud's nine instruments: Search,
// SearchTraced and ApplyUpdate count and time its work into the
// slicer_cloud_* series, and a search's per-token phases feed
// slicer_cloud_phase_seconds{phase} and the trace's cloud.collect and
// cloud.witness spans. The split path, SearchResults and AttachWitnesses, is
// unobserved. Without a registry every instrument is nil, which is off and
// reads no clock. Observation never changes a response.
type ObservedCloud struct {
	*core.Cloud
	searches, errors, tokens, results, updates *obs.Counter
	search, collect, witness, updateDur        *obs.Histogram
}

// ObserveCloud returns cloud with its instruments resolved against reg; a
// nil registry records nothing.
func ObserveCloud(cloud *core.Cloud, reg *obs.Registry) *ObservedCloud {
	o := &ObservedCloud{Cloud: cloud}
	if reg == nil {
		return o
	}
	// The search and phase histograms are sliding-window histograms: on
	// top of the cumulative series they export live p50/p90/p99/p999
	// gauges (<family>_window{quantile=...}) for SLOs and dashboards.
	phases := reg.HistogramVecOpts("slicer_cloud_phase_seconds",
		"Latency of one cloud search-pipeline phase, by phase.",
		[]string{"phase"}, obs.VecOpts{Window: &obs.WindowOptions{}})
	o.searches = reg.Counter("slicer_cloud_searches_total", "Search requests served by the cloud.")
	o.errors = reg.Counter("slicer_cloud_search_errors_total", "Search requests that returned an error.")
	o.tokens = reg.Counter("slicer_cloud_search_tokens_total", "Search tokens processed across all requests.")
	o.results = reg.Counter("slicer_cloud_results_total", "Encrypted result entries returned across all requests.")
	o.search = reg.WindowedHistogram("slicer_cloud_search_seconds",
		"Whole-request cloud search latency (Algorithm 4, all tokens).")
	o.collect, o.witness = phases.WithLabelValues("collect"), phases.WithLabelValues("witness")
	o.updates = reg.Counter("slicer_cloud_updates_total", "Index/ADS update deltas applied.")
	o.updateDur = reg.WindowedHistogram("slicer_cloud_update_seconds",
		"ApplyUpdate latency including cached-witness maintenance.")
	return o
}

// Search is SearchTraced without a trace.
func (o *ObservedCloud) Search(req *core.SearchRequest) (*core.SearchResponse, error) {
	return o.SearchTraced(req, nil)
}

// SearchTraced runs the cloud's search, recording every token's collect and
// witness phase into tr (nil is fine).
func (o *ObservedCloud) SearchTraced(req *core.SearchRequest, tr *obs.Trace) (*core.SearchResponse, error) {
	o.searches.Inc()
	o.tokens.Add(uint64(len(req.Tokens)))
	t0 := o.search.Start()
	var hook core.Hook
	if o.collect != nil || tr != nil {
		hook = phaseHook{o, tr}
	}
	resp, err := o.Cloud.SearchTraced(req, hook)
	if err != nil {
		o.errors.Inc()
		return nil, err
	}
	o.search.ObserveSince(t0)
	o.results.Add(uint64(resultEntries(resp)))
	return resp, nil
}

// ApplyUpdate applies an insert delta to the cloud, counted and timed.
func (o *ObservedCloud) ApplyUpdate(out *core.UpdateOutput) error {
	o.updates.Inc()
	defer o.updateDur.ObserveSince(o.updateDur.Start())
	return o.Cloud.ApplyUpdate(out)
}

// phaseHook times a search's phases into o's phase histograms and tr.
type phaseHook struct {
	o  *ObservedCloud
	tr *obs.Trace
}

func (h phaseHook) Span(phase string) func() {
	hist := h.o.collect
	if phase == core.SpanWitness {
		hist = h.o.witness
	}
	return obs.StartPhase(hist, h.tr, phase)
}

// resultEntries counts resp's encrypted result entries.
func resultEntries(resp *core.SearchResponse) int {
	n := 0
	for _, res := range resp.Results {
		n += len(res.ER)
	}
	return n
}
