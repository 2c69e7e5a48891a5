package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// stored fabricates a finalized trace with a crafted duration, feeding the
// clock-free record() hook directly so tests control latency exactly.
func stored(name string, d time.Duration) StoredTrace {
	return StoredTrace{ID: NewTraceID(), Name: name, DurationNs: d}
}

// TestTraceStoreSlowestExact inserts traces with distinct durations from
// many goroutines and checks Slowest() is EXACTLY the top-N by duration,
// sorted slowest first — not merely "some slow traces". The replace-the-
// fastest retention policy must converge to the true top-N regardless of
// insertion order or interleaving.
func TestTraceStoreSlowestExact(t *testing.T) {
	s := newTraceStore(32) // slowCap = 4
	const workers, perWorker = 8, 50

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Distinct duration per trace: worker*perWorker+i+1 ms.
				d := time.Duration(w*perWorker+i+1) * time.Millisecond
				s.record(stored(fmt.Sprintf("w%d-%d", w, i), d))
			}
		}(w)
	}
	wg.Wait()

	if got := s.Seen(); got != workers*perWorker {
		t.Fatalf("Seen = %d, want %d", got, workers*perWorker)
	}
	slowest := s.Slowest()
	if len(slowest) != 4 {
		t.Fatalf("slowest table holds %d, want 4", len(slowest))
	}
	// The global top-4 durations are 400, 399, 398, 397 ms.
	for i, want := range []time.Duration{400, 399, 398, 397} {
		if slowest[i].DurationNs != want*time.Millisecond {
			t.Errorf("slowest[%d] = %v, want %v", i, slowest[i].DurationNs, want*time.Millisecond)
		}
	}
	// Every retained outlier is reachable by ID even though the ring has
	// long since evicted it.
	for _, st := range slowest {
		if _, ok := s.Get(st.ID); !ok {
			t.Errorf("outlier %s (%v) not found by ID", st.Name, st.DurationNs)
		}
	}
}

// TestTraceStoreSlowestEviction pins the replacement policy: when the
// table is full, a new trace evicts the FASTEST retained one — and only
// when the newcomer is slower than it.
func TestTraceStoreSlowestEviction(t *testing.T) {
	s := newTraceStore(32) // slowCap = 4
	for _, ms := range []int{100, 400, 200, 300} {
		s.record(stored(fmt.Sprintf("t%d", ms), time.Duration(ms)*time.Millisecond))
	}

	// A newcomer slower than the fastest (100ms) replaces exactly it.
	s.record(stored("t250", 250*time.Millisecond))
	want := []string{"t400", "t300", "t250", "t200"}
	got := s.Slowest()
	if len(got) != len(want) {
		t.Fatalf("slowest = %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Errorf("slowest[%d] = %s, want %s (full: %v)", i, got[i].Name, want[i], names(got))
		}
	}

	// A newcomer faster than everything retained changes nothing.
	s.record(stored("t1", time.Millisecond))
	if got := s.Slowest(); len(got) != 4 || got[3].Name != "t200" {
		t.Errorf("fast trace displaced an outlier: %v", names(got))
	}

	// Ties: a newcomer equal to the current fastest does not displace it
	// (strict < comparison), so the table is stable under equal loads.
	s.record(stored("t200b", 200*time.Millisecond))
	if got := s.Slowest(); got[3].Name != "t200" {
		t.Errorf("equal-duration trace displaced the incumbent: %v", names(got))
	}

	// Seen counts every offer, displaced or not.
	if s.Seen() != 7 {
		t.Errorf("Seen = %d, want 7", s.Seen())
	}
}

func names(sts []StoredTrace) []string {
	out := make([]string, len(sts))
	for i := range sts {
		out[i] = sts[i].Name
	}
	return out
}

// TestTraceStoreDefaults pins the served store: 256 recent traces, the 32
// slowest.
func TestTraceStoreDefaults(t *testing.T) {
	s := NewTraceStore()
	if s.capacity != 256 || s.slowCap != 32 {
		t.Fatalf("NewTraceStore() keeps %d recent and %d slowest, want 256 and 32", s.capacity, s.slowCap)
	}
}
