package store

import (
	"bytes"
	"testing"
	"testing/quick"

	"slicer/internal/mhash"
)

func label(b byte) Label {
	var l Label
	l[0] = b
	return l
}

func payload(b byte) Payload {
	var p Payload
	p[0] = b
	return p
}

func TestIndexPutGet(t *testing.T) {
	ix := NewIndex()
	if err := ix.Put(label(1), payload(10)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := ix.Get(label(1))
	if !ok || got != payload(10) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := ix.Get(label(2)); ok {
		t.Error("missing label found")
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
	if ix.SizeBytes() != 2*EntrySize {
		t.Errorf("SizeBytes = %d, want %d", ix.SizeBytes(), 2*EntrySize)
	}
}

func TestIndexDuplicateLabelRejected(t *testing.T) {
	ix := NewIndex()
	if err := ix.Put(label(1), payload(10)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ix.Put(label(1), payload(11)); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestIndexMerge(t *testing.T) {
	a := NewIndex()
	b := NewIndex()
	if err := a.Put(label(1), payload(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(label(2), payload(2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Len() != 2 {
		t.Errorf("merged Len = %d, want 2", a.Len())
	}
	// Conflicting merge fails.
	c := NewIndex()
	if err := c.Put(label(1), payload(9)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil {
		t.Error("conflicting merge accepted")
	}
}

// TestIndexMergeAllOrNothing merges a delta of one stored label beside many
// fresh ones: the merge must fail without adding any of the fresh entries,
// whatever order the delta's map iterates in.
func TestIndexMergeAllOrNothing(t *testing.T) {
	ix := NewIndex()
	if err := ix.Put(label(0), payload(0)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		delta := NewIndex()
		if err := delta.Put(label(0), payload(1)); err != nil {
			t.Fatal(err)
		}
		for i := byte(1); i <= 32; i++ {
			if err := delta.Put(label(i), payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Merge(delta); err == nil {
			t.Fatalf("trial %d: merge over a stored label accepted", trial)
		}
		if ix.Len() != 1 {
			t.Fatalf("trial %d: failed merge left %d entries, want 1", trial, ix.Len())
		}
		if got, _ := ix.Get(label(0)); got != payload(0) {
			t.Fatalf("trial %d: failed merge overwrote the stored payload", trial)
		}
	}
}

func TestIndexMarshalRoundTrip(t *testing.T) {
	ix := NewIndex()
	for i := byte(0); i < 50; i++ {
		if err := ix.Put(label(i), payload(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := UnmarshalIndex(ix.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalIndex: %v", err)
	}
	if got.Len() != ix.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), ix.Len())
	}
	for i := byte(0); i < 50; i++ {
		d, ok := got.Get(label(i))
		if !ok || d != payload(i+100) {
			t.Fatalf("entry %d lost in round trip", i)
		}
	}
}

func TestUnmarshalIndexRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalIndex([]byte{1, 2}); err == nil {
		t.Error("truncated header accepted")
	}
	ix := NewIndex()
	if err := ix.Put(label(1), payload(1)); err != nil {
		t.Fatal(err)
	}
	enc := ix.Marshal()
	if _, err := UnmarshalIndex(enc[:len(enc)-1]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestLabelPayloadFromBytes(t *testing.T) {
	if _, err := LabelFromBytes(make([]byte, EntrySize-1)); err == nil {
		t.Error("short label accepted")
	}
	if _, err := PayloadFromBytes(make([]byte, EntrySize+1)); err == nil {
		t.Error("long payload accepted")
	}
	raw := bytes.Repeat([]byte{7}, EntrySize)
	l, err := LabelFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l[:], raw) {
		t.Error("label bytes mismatch")
	}
}

func TestTrapdoorStates(t *testing.T) {
	ts := NewTrapdoorStates()
	w := []byte("keyword")
	if _, ok := ts.Get(w); ok {
		t.Error("empty T found a keyword")
	}
	ts.Put(w, TrapdoorState{Trapdoor: []byte{1, 2, 3}, Epoch: 2})
	st, ok := ts.Get(w)
	if !ok || st.Epoch != 2 || !bytes.Equal(st.Trapdoor, []byte{1, 2, 3}) {
		t.Fatalf("Get = %+v, %v", st, ok)
	}
	if ts.Len() != 1 {
		t.Errorf("Len = %d, want 1", ts.Len())
	}
	if ts.SizeBytes() == 0 {
		t.Error("SizeBytes reported 0")
	}
}

func TestTrapdoorStatesPutCopies(t *testing.T) {
	ts := NewTrapdoorStates()
	trapdoor := []byte{1, 2, 3}
	ts.Put([]byte("w"), TrapdoorState{Trapdoor: trapdoor, Epoch: 0})
	trapdoor[0] = 99
	st, _ := ts.Get([]byte("w"))
	if st.Trapdoor[0] != 1 {
		t.Error("stored trapdoor shares memory with the caller")
	}
}

func TestTrapdoorStatesCloneIndependent(t *testing.T) {
	ts := NewTrapdoorStates()
	ts.Put([]byte("w"), TrapdoorState{Trapdoor: []byte{1}, Epoch: 0})
	clone := ts.Clone()
	ts.Put([]byte("w"), TrapdoorState{Trapdoor: []byte{2}, Epoch: 1})
	st, _ := clone.Get([]byte("w"))
	if st.Epoch != 0 || st.Trapdoor[0] != 1 {
		t.Error("clone observed later mutation")
	}
}

func TestTrapdoorStatesRange(t *testing.T) {
	ts := NewTrapdoorStates()
	for _, w := range []string{"a", "b", "c"} {
		ts.Put([]byte(w), TrapdoorState{Trapdoor: []byte(w), Epoch: len(w)})
	}
	seen := 0
	ts.Range(func(keyword []byte, st TrapdoorState) bool {
		seen++
		return true
	})
	if seen != 3 {
		t.Errorf("Range visited %d entries, want 3", seen)
	}
	seen = 0
	ts.Range(func([]byte, TrapdoorState) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Errorf("early-exit Range visited %d entries, want 1", seen)
	}
}

func TestSetHashesPopSemantics(t *testing.T) {
	s := NewSetHashes()
	h := mhash.OfMultiset([][]byte{[]byte("x")})
	s.Put("k", h)
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, ok := s.Get("k")
	if !ok || !got.Equal(h) {
		t.Fatal("Get after Put failed")
	}
	got, ok = s.Pop("k")
	if !ok || !got.Equal(h) {
		t.Fatal("Pop failed")
	}
	if _, ok := s.Pop("k"); ok {
		t.Error("second Pop succeeded")
	}
	if s.Len() != 0 {
		t.Errorf("Len after pop = %d, want 0", s.Len())
	}
}

func TestSetHashKeyInjective(t *testing.T) {
	f := func(t1, t2 []byte, j1, j2 uint8) bool {
		g1 := bytes.Repeat([]byte{1}, 16)
		g2 := bytes.Repeat([]byte{2}, 16)
		k1 := SetHashKey(t1, int(j1), g1, g2)
		k2 := SetHashKey(t2, int(j2), g1, g2)
		same := bytes.Equal(t1, t2) && j1 == j2
		return (k1 == k2) == same
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
