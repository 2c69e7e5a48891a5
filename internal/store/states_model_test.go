package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// statesModel pairs a TrapdoorStates with the plain map it must behave as.
type statesModel struct {
	ts   *TrapdoorStates
	want map[string]TrapdoorState
}

const modelKeys = 300 // small enough that programs overwrite and shadow

func modelKey(i int) []byte { return []byte{'w', byte(i >> 8), byte(i)} }

// checkKey compares Len and Get of one keyword, present or not, with the
// model, and returns the model's entry.
func (m *statesModel) checkKey(t *testing.T, when string, w []byte) (TrapdoorState, bool) {
	t.Helper()
	if got := m.ts.Len(); got != len(m.want) {
		t.Fatalf("%s: Len = %d, want %d", when, got, len(m.want))
	}
	got, ok := m.ts.Get(w)
	want, wantOK := m.want[string(w)]
	if ok != wantOK || got.Epoch != want.Epoch || !bytes.Equal(got.Trapdoor, want.Trapdoor) {
		t.Fatalf("%s: Get(%x) = %+v, %v; want %+v, %v", when, w, got, ok, want, wantOK)
	}
	return want, wantOK
}

// check compares every observable of ts with the model: Len, Get over the
// whole key space (absent keys included), Range visiting each live keyword
// exactly once with its newest state, and SizeBytes.
func (m *statesModel) check(t *testing.T, when string) {
	t.Helper()
	size := 0
	for i := 0; i < modelKeys; i++ {
		w := modelKey(i)
		if want, ok := m.checkKey(t, when, w); ok {
			size += len(w) + len(want.Trapdoor) + 8
		}
	}
	if got := m.ts.SizeBytes(); got != size {
		t.Fatalf("%s: SizeBytes = %d, want %d", when, got, size)
	}
	seen := make(map[string]bool, len(m.want))
	m.ts.Range(func(w []byte, st TrapdoorState) bool {
		want, ok := m.want[string(w)]
		if !ok || seen[string(w)] || st.Epoch != want.Epoch || !bytes.Equal(st.Trapdoor, want.Trapdoor) {
			t.Fatalf("%s: Range yielded %x = %+v (known %v, repeated %v), want %+v", when, w, st, ok, seen[string(w)], want)
		}
		seen[string(w)] = true
		return true
	})
	if len(seen) != len(m.want) {
		t.Fatalf("%s: Range visited %d keywords, want %d", when, len(seen), len(m.want))
	}
}

// checkFrozen pins the shape Freeze leaves: no head, and every generation
// more than twice the next newer one, which is what bounds their number.
func (m *statesModel) checkFrozen(t *testing.T, when string) {
	t.Helper()
	if len(m.ts.head) != 0 {
		t.Fatalf("%s: %d keywords left in head", when, len(m.ts.head))
	}
	for i := 1; i < len(m.ts.gens); i++ {
		if older, newer := len(m.ts.gens[i-1]), len(m.ts.gens[i]); 2*newer >= older {
			t.Fatalf("%s: generation %d has %d keywords beside %d before it", when, i, newer, older)
		}
	}
}

// runStatesModel interprets prog, three bytes per step, as Put, Freeze and
// Clone calls over a handful of dictionaries that descend from one another,
// and checks each against its own model. A clone joins the set and is
// written to like its origin, so a write that leaked through a shared
// generation shows up as a wrong Get on the other side.
func runStatesModel(t *testing.T, prog []byte) {
	dicts := []*statesModel{{ts: NewTrapdoorStates(), want: map[string]TrapdoorState{}}}
	for pc := 0; pc+3 <= len(prog); pc += 3 {
		op, a, b := prog[pc], prog[pc+1], prog[pc+2]
		m := dicts[int(op>>4)%len(dicts)]
		switch op % 8 {
		case 0: // Clone; beyond eight dictionaries the oldest is dropped
			frozen := a&1 == 0 // half the clones are of a dictionary frozen beforehand
			if frozen {
				m.ts.Freeze()
			}
			gens := len(m.ts.gens)
			c := &statesModel{ts: m.ts.Clone(), want: make(map[string]TrapdoorState, len(m.want))}
			for k, st := range m.want {
				c.want[k] = st
			}
			if frozen && len(m.ts.gens) != gens {
				t.Fatal("Clone of a frozen dictionary wrote to it")
			}
			m.checkFrozen(t, "origin after Clone")
			c.checkFrozen(t, "clone")
			c.check(t, "clone")
			m.check(t, "origin after Clone")
			if dicts = append(dicts, c); len(dicts) > 8 {
				dicts = dicts[1:]
			}
		case 1:
			m.ts.Freeze()
			m.checkFrozen(t, "after Freeze")
			m.check(t, "after Freeze")
		default:
			w := modelKey((int(a)<<8 | int(b)) % modelKeys)
			arg := bytes.Repeat([]byte{a ^ op}, int(b%5))
			st := TrapdoorState{Trapdoor: append([]byte(nil), arg...), Epoch: int(op)}
			m.want[string(w)] = st
			m.ts.Put(w, TrapdoorState{Trapdoor: arg, Epoch: int(op)})
			for i := range arg {
				arg[i] ^= 0xff // Put must have copied it
			}
			for _, d := range dicts { // the written one and every relative
				d.checkKey(t, "after a Put", w)
			}
		}
	}
	for _, d := range dicts {
		d.check(t, "at the end")
	}
}

func TestTrapdoorStatesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := make([]byte, 3*1500)
		rand.New(rand.NewSource(seed)).Read(prog)
		runStatesModel(t, prog)
	}
}

func FuzzTrapdoorStatesModel(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 0, 0, 2, 0, 1, 0x12, 0, 1, 1, 0, 0})
	prog := make([]byte, 3*200)
	rand.New(rand.NewSource(7)).Read(prog)
	f.Add(prog)
	f.Fuzz(func(t *testing.T, prog []byte) { runStatesModel(t, prog) })
}
