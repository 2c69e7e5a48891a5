package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// traceCapacity is the recent-ring size of a TraceStore.
const traceCapacity = 256

// StoredTrace is one finalized trace held by a TraceStore.
type StoredTrace struct {
	ID         string        `json:"id"`
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	DurationNs time.Duration `json:"durationNs"`
	Spans      []SpanRecord  `json:"spans"`
}

// WriteText renders the stored trace in the same aligned format as
// Trace.WriteText.
func (st *StoredTrace) WriteText(w io.Writer) error {
	return writeSpansText(w, st.Name, st.ID, st.DurationNs, st.Spans)
}

// TraceStore retains finalized traces in bounded memory for /debug/traces:
// a ring buffer of the most recent traces plus a side table of the slowest
// ones ever seen (so latency outliers survive ring eviction). All methods
// are safe for concurrent use and nil-safe.
type TraceStore struct {
	mu       sync.Mutex
	capacity int
	slowCap  int
	seen     uint64

	recent []StoredTrace // ring, next is the write cursor
	next   int
	filled bool

	slow []StoredTrace // slowest-first is NOT maintained; slowest set, unordered
}

// NewTraceStore creates a store retaining the 256 most recent traces and
// the 32 slowest.
func NewTraceStore() *TraceStore { return newTraceStore(traceCapacity) }

// newTraceStore retains capacity recent traces and capacity/8 (at least 4)
// slowest ones; tests use small rings.
func newTraceStore(capacity int) *TraceStore {
	return &TraceStore{capacity: capacity, slowCap: max(capacity/8, 4)}
}

// Record finalizes a trace into the store. Nil traces and nil stores are
// no-ops.
func (s *TraceStore) Record(tr *Trace) {
	if s == nil || tr == nil {
		return
	}
	s.record(StoredTrace{
		ID:         tr.ID(),
		Name:       tr.Name(),
		Start:      tr.Start(),
		DurationNs: tr.Elapsed(),
		Spans:      tr.Spans(),
	})
}

// record is the clock-free core of Record, split out so tests can insert
// traces with crafted durations.
func (s *TraceStore) record(st StoredTrace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if s.recent == nil {
		s.recent = make([]StoredTrace, s.capacity)
	}
	s.recent[s.next] = st
	s.next++
	if s.next == len(s.recent) {
		s.next, s.filled = 0, true
	}
	// Slowest-N retention: replace the fastest retained trace when full.
	if len(s.slow) < s.slowCap {
		s.slow = append(s.slow, st)
		return
	}
	fastest, min := -1, st.DurationNs
	for i := range s.slow {
		if s.slow[i].DurationNs < min {
			fastest, min = i, s.slow[i].DurationNs
		}
	}
	if fastest >= 0 {
		s.slow[fastest] = st
	}
}

// Seen reports how many traces have been offered to the store.
func (s *TraceStore) Seen() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Recent returns the retained ring contents, newest first.
func (s *TraceStore) Recent() []StoredTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	if s.filled {
		n = len(s.recent)
	}
	out := make([]StoredTrace, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the cursor, wrapping.
		idx := (s.next - 1 - i + len(s.recent)) % len(s.recent)
		out = append(out, s.recent[idx])
	}
	return out
}

// Slowest returns the retained latency outliers, slowest first.
func (s *TraceStore) Slowest() []StoredTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]StoredTrace, len(s.slow))
	copy(out, s.slow)
	s.mu.Unlock()
	// Insertion sort: the table is tiny (capacity/8).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].DurationNs > out[j-1].DurationNs; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Get looks a trace up by ID in the ring and the slowest table.
func (s *TraceStore) Get(id string) (StoredTrace, bool) {
	if s == nil {
		return StoredTrace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	if s.filled {
		n = len(s.recent)
	}
	for i := 0; i < n; i++ {
		idx := (s.next - 1 - i + len(s.recent)) % len(s.recent)
		if s.recent[idx].ID == id {
			return s.recent[idx], true
		}
	}
	for i := range s.slow {
		if s.slow[i].ID == id {
			return s.slow[i], true
		}
	}
	return StoredTrace{}, false
}

// WriteJSON emits {"seen": N, "recent": [...], "slowest": [...]}, the
// /debug/traces list payload.
func (s *TraceStore) WriteJSON(w io.Writer) error {
	payload := struct {
		Seen    uint64        `json:"seen"`
		Recent  []StoredTrace `json:"recent"`
		Slowest []StoredTrace `json:"slowest"`
	}{s.Seen(), s.Recent(), s.Slowest()}
	if payload.Recent == nil {
		payload.Recent = []StoredTrace{}
	}
	if payload.Slowest == nil {
		payload.Slowest = []StoredTrace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}
