package mhash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyIdentity(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Error("Empty() not recognized as empty")
	}
	h := e.Add([]byte("x"))
	if h.IsEmpty() {
		t.Error("singleton hash reported empty")
	}
	if !e.Union(h).Equal(h) {
		t.Error("H(∅) is not the union identity")
	}
}

func TestOrderIndependence(t *testing.T) {
	f := func(elements [][]byte, seed int64) bool {
		h1 := OfMultiset(elements)
		shuffled := make([][]byte, len(elements))
		copy(shuffled, elements)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return h1.Equal(OfMultiset(shuffled))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionHomomorphism(t *testing.T) {
	f := func(m, n [][]byte) bool {
		union := OfMultiset(append(append([][]byte{}, m...), n...))
		return union.Equal(OfMultiset(m).Union(OfMultiset(n)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddRemoveInverse(t *testing.T) {
	f := func(base [][]byte, extra []byte) bool {
		h := OfMultiset(base)
		return h.Add(extra).Remove(extra).Equal(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiplicityMatters(t *testing.T) {
	x := []byte("x")
	once := Empty().Add(x)
	twice := Empty().Add(x).Add(x)
	if once.Equal(twice) {
		t.Error("multiset hash ignores multiplicity")
	}
}

func TestDistinctSetsDistinctHashes(t *testing.T) {
	// Not a collision-resistance proof, but a smoke test that unrelated
	// small sets do not collide.
	seen := make(map[string][]string)
	sets := [][]string{
		{}, {"a"}, {"b"}, {"a", "b"}, {"a", "a"}, {"ab"}, {"a", "b", "c"},
		{"c", "b", "a"}, // should equal {"a","b","c"}
	}
	for _, set := range sets {
		elems := make([][]byte, len(set))
		for i, s := range set {
			elems[i] = []byte(s)
		}
		key := string(OfMultiset(elems).Marshal())
		seen[key] = append(seen[key], "")
	}
	// 8 sets, two of which are permutations of each other -> 7 distinct.
	if len(seen) != 7 {
		t.Errorf("got %d distinct hashes, want 7", len(seen))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(elements [][]byte) bool {
		h := OfMultiset(elements)
		got, err := Unmarshal(h.Marshal())
		return err == nil && got.Equal(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsBadWidthAndRange(t *testing.T) {
	if _, err := Unmarshal(make([]byte, Size-1)); err == nil {
		t.Error("short encoding accepted")
	}
	if _, err := Unmarshal(make([]byte, Size)); err == nil {
		t.Error("zero field element accepted")
	}
	tooBig := q.Bytes() // exactly q, outside GF(q)*
	if _, err := Unmarshal(tooBig); err == nil {
		t.Error("value == q accepted")
	}
}

func TestHashToFieldInRange(t *testing.T) {
	f := func(element []byte) bool {
		v, attempts := hashToField(element)
		return attempts >= 1 && v.Sign() > 0 && v.Cmp(q) < 0 && v.Cmp(one) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCountIsAdd(t *testing.T) {
	f := func(a, b []byte) bool {
		h := Empty().Add(a)
		got, attempts := h.AddCount(b)
		_, want := hashToField(b)
		return got.Equal(h.Add(b)) && attempts == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
