package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("client req")
	ctx := tr.Context()
	if ctx == nil || ctx.TraceID != tr.ID() || !ctx.Sampled {
		t.Fatalf("Context() = %+v for trace %s", ctx, tr.ID())
	}
	if err := ctx.Validate(); err != nil {
		t.Fatalf("fresh context invalid: %v", err)
	}

	// Across the wire: JSON round trip preserves the identity.
	blob, err := json.Marshal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got TraceContext
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got != *ctx {
		t.Errorf("round trip = %+v, want %+v", got, *ctx)
	}

	// Server side: continuing the identity yields the same trace ID.
	srv := NewTraceWithID("cloud.cloud.search", got.TraceID)
	if srv.ID() != tr.ID() {
		t.Errorf("server trace id = %s, want %s", srv.ID(), tr.ID())
	}
	if (*Trace)(nil).Context() != nil {
		t.Error("nil trace produced a context")
	}
}

func TestTraceContextValidate(t *testing.T) {
	long := strings.Repeat("a", maxTraceIDLen)
	cases := []struct {
		name string
		ctx  *TraceContext
		ok   bool
	}{
		{"nil", nil, false},
		{"empty id", &TraceContext{}, false},
		{"valid", &TraceContext{TraceID: NewTraceID(), Sampled: true}, true},
		{"valid with parent", &TraceContext{TraceID: "00ff", ParentSpan: "abc123"}, true},
		{"max length", &TraceContext{TraceID: long}, true},
		{"over length", &TraceContext{TraceID: long + "a"}, false},
		{"uppercase", &TraceContext{TraceID: "DEADBEEF"}, false},
		{"non-hex", &TraceContext{TraceID: "xyz"}, false},
		{"path traversal", &TraceContext{TraceID: "../../etc/passwd"}, false},
		{"control chars", &TraceContext{TraceID: "ab\x00cd"}, false},
		{"bad parent", &TraceContext{TraceID: "00ff", ParentSpan: "not hex!"}, false},
		{"huge parent", &TraceContext{TraceID: "00ff", ParentSpan: long + "ff"}, false},
	}
	for _, tc := range cases {
		err := tc.ctx.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: hostile context accepted", tc.name)
			} else if !errors.Is(err, ErrBadTraceContext) {
				t.Errorf("%s: error %v does not wrap ErrBadTraceContext", tc.name, err)
			}
		}
	}
}

// FuzzTraceContextValidate feeds arbitrary identifiers through validation:
// it must never panic, and anything it accepts must be bounded hex.
func FuzzTraceContextValidate(f *testing.F) {
	f.Add("deadbeef", "cafe")
	f.Add("", "")
	f.Add(strings.Repeat("f", 100), "Z")
	f.Add("../../../etc", "\x00\xff")
	f.Fuzz(func(t *testing.T, id, parent string) {
		ctx := &TraceContext{TraceID: id, ParentSpan: parent, Sampled: true}
		err := ctx.Validate()
		if err != nil {
			if !errors.Is(err, ErrBadTraceContext) {
				t.Fatalf("error %v does not wrap ErrBadTraceContext", err)
			}
			return
		}
		for _, s := range []string{id, parent} {
			if len(s) > maxTraceIDLen {
				t.Fatalf("accepted over-length token %q", s)
			}
			for i := 0; i < len(s); i++ {
				ch := s[i]
				if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
					t.Fatalf("accepted non-hex token %q", s)
				}
			}
		}
	})
}

func TestSpliceRemote(t *testing.T) {
	tr := NewTrace("client")
	endLocal := tr.Span("token")
	endLocal()
	remote := &TraceSummary{
		Name:       "cloud.cloud.search",
		TraceID:    tr.ID(),
		DurationNs: 10 * time.Millisecond,
		Spans: []SpanRecord{
			{Phase: "cloud.collect", Offset: 1 * time.Millisecond, Duration: 4 * time.Millisecond},
			{Phase: "cloud.witness", Party: "preset", Offset: 5 * time.Millisecond, Duration: 3 * time.Millisecond},
		},
	}
	start := tr.Start().Add(2 * time.Millisecond)
	tr.SpliceRemote("cloud", "cloud.search", start, 16*time.Millisecond, remote)

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5: %v", len(spans), spans)
	}
	byPhase := map[string]SpanRecord{}
	for _, s := range spans {
		byPhase[s.Phase] = s
	}
	rpc := byPhase["rpc:cloud.search"]
	if rpc.Party != "cloud" || rpc.Duration != 16*time.Millisecond || rpc.Offset != 2*time.Millisecond {
		t.Errorf("rpc span = %+v", rpc)
	}
	// Wire time is derived (client minus server), never a cross-machine
	// clock subtraction: 16ms observed - 10ms reported = 6ms on the wire.
	wire := byPhase["wire:cloud.search"]
	if wire.Duration != 6*time.Millisecond {
		t.Errorf("wire duration = %v, want 6ms", wire.Duration)
	}
	// Remote spans shift into the client timeline, centered in the RPC span
	// (offset 2ms + half of 6ms wire = 5ms), and inherit the party.
	collect := byPhase["cloud.collect"]
	if collect.Party != "cloud" {
		t.Errorf("collect party = %q, want cloud", collect.Party)
	}
	if want := 5*time.Millisecond + 1*time.Millisecond; collect.Offset != want {
		t.Errorf("collect offset = %v, want %v", collect.Offset, want)
	}
	if byPhase["cloud.witness"].Party != "preset" {
		t.Errorf("explicit party overwritten: %+v", byPhase["cloud.witness"])
	}

	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cloud", "local", "wire:cloud.search", tr.ID()} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSpliceRemoteHostile(t *testing.T) {
	// A hostile server ships a huge span tree and an impossible duration;
	// the splice must stay bounded and the wire time clamps at zero.
	tr := NewTrace("client")
	spans := make([]SpanRecord, 100_000)
	for i := range spans {
		spans[i] = SpanRecord{Phase: fmt.Sprintf("junk-%d", i)}
	}
	remote := &TraceSummary{DurationNs: time.Hour, Spans: spans}
	tr.SpliceRemote("cloud", "m", tr.Start(), time.Millisecond, remote)
	got := tr.Spans()
	if len(got) != maxRemoteSpans+2 {
		t.Errorf("spliced %d spans, want %d", len(got), maxRemoteSpans+2)
	}
	for _, s := range got {
		if s.Phase == "wire:m" && s.Duration != 0 {
			t.Errorf("wire time = %v, want clamp to 0", s.Duration)
		}
	}

	// Context-free peer: only the client-side span.
	tr2 := NewTrace("client")
	tr2.SpliceRemote("chain", "m", tr2.Start(), time.Millisecond, nil)
	if n := len(tr2.Spans()); n != 1 {
		t.Errorf("nil summary spliced %d spans, want 1", n)
	}

	// Nil trace: no-op.
	(*Trace)(nil).SpliceRemote("cloud", "m", time.Now(), 0, remote)
}

// storedAt fabricates a finished trace whose Elapsed is deterministic by
// backdating the start (tests live in package obs for exactly this).
func storedAt(name string, elapsed time.Duration) *Trace {
	return &Trace{name: name, id: NewTraceID(), start: time.Now().Add(-elapsed)}
}

func TestTraceStoreRetention(t *testing.T) {
	s := newTraceStore(4)
	var ids []string
	for i := 0; i < 10; i++ {
		tr := storedAt(fmt.Sprintf("t%d", i), time.Duration(i+1)*time.Second)
		ids = append(ids, tr.ID())
		s.Record(tr)
	}
	if s.Seen() != 10 {
		t.Errorf("Seen = %d, want 10", s.Seen())
	}
	recent := s.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	if recent[0].Name != "t9" || recent[3].Name != "t6" {
		t.Errorf("ring order = %s..%s, want t9..t6", recent[0].Name, recent[3].Name)
	}
	if _, ok := s.Get(ids[9]); !ok {
		t.Error("latest trace not found by ID")
	}
	if _, ok := s.Get("0000"); ok {
		t.Error("found a trace that was never recorded")
	}
	// The slowest table keeps the latency outliers even after ring eviction.
	slowest := s.Slowest()
	if len(slowest) == 0 || slowest[0].Name != "t9" {
		t.Fatalf("slowest = %v", slowest)
	}
	for i := 1; i < len(slowest); i++ {
		if slowest[i].DurationNs > slowest[i-1].DurationNs {
			t.Errorf("slowest not sorted at %d: %v", i, slowest)
		}
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Seen    uint64        `json:"seen"`
		Recent  []StoredTrace `json:"recent"`
		Slowest []StoredTrace `json:"slowest"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("list payload not JSON: %v\n%s", err, buf.String())
	}
	if payload.Seen != 10 || len(payload.Recent) != 4 {
		t.Errorf("payload = seen %d recent %d", payload.Seen, len(payload.Recent))
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var nilStore *TraceStore
	nilStore.Record(NewTrace("x"))
	if nilStore.Seen() != 0 || nilStore.Recent() != nil || nilStore.Slowest() != nil {
		t.Error("nil store not inert")
	}
	if _, ok := nilStore.Get("aa"); ok {
		t.Error("nil store found a trace")
	}
}

// TestTraceStoreRace exercises concurrent record/list/evict; run under -race
// in CI.
func TestTraceStoreRace(t *testing.T) {
	s := newTraceStore(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace(fmt.Sprintf("w%d-%d", w, i))
				end := tr.Span("phase")
				end()
				s.Record(tr)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = s.Recent()
			_ = s.Slowest()
			_, _ = s.Get("feed")
			_ = s.WriteJSON(&bytes.Buffer{})
			_ = s.Seen()
		}
	}()
	wg.Wait()
}
