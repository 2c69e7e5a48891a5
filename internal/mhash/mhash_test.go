package mhash

import (
	"bytes"
	"crypto/sha256"
	"math/big"
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
	if _, err := Unmarshal(bigQ.Bytes()); err == nil { // exactly q, outside GF(q)*
		t.Error("value == q accepted")
	}
}

func TestHashToFieldInRange(t *testing.T) {
	f := func(element []byte) bool {
		v, attempts := hashToField(element)
		b := feToBig(v)
		return attempts >= 1 && b.Cmp(bigQ) < 0 && b.Cmp(big.NewInt(1)) > 0
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

// The oracle: the big.Int implementation the fixed-width kernel replaced,
// kept to hold the kernel to it value for value.

var bigQ, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)

func bigHashToField(element []byte) (*big.Int, int) {
	for ctr := byte(0); ; ctr++ {
		h := sha256.New()
		h.Write([]byte("slicer/mset-mu-hash/v1"))
		h.Write([]byte{ctr})
		h.Write(element)
		v := new(big.Int).SetBytes(h.Sum(nil))
		v.Mod(v, bigQ)
		if v.Cmp(big.NewInt(1)) > 0 {
			return v, int(ctr) + 1
		}
	}
}

func bigOfMultiset(elements [][]byte) *big.Int {
	h := big.NewInt(1)
	for _, e := range elements {
		v, _ := bigHashToField(e)
		h.Mul(h, v).Mod(h, bigQ)
	}
	return h
}

func feToBig(v fe) *big.Int {
	b := toBytes(v)
	return new(big.Int).SetBytes(b[:])
}

func TestMatchesBigOracle(t *testing.T) {
	f := func(m, n [][]byte) bool {
		hm, hn := OfMultiset(m), OfMultiset(n)
		bm, bn := bigOfMultiset(m), bigOfMultiset(n)
		quo := new(big.Int).ModInverse(bn, bigQ)
		quo.Mul(quo, bm).Mod(quo, bigQ)
		prod := new(big.Int).Mul(bm, bn)
		return bytes.Equal(hm.Marshal(), bm.FillBytes(make([]byte, Size))) &&
			bytes.Equal(hm.Union(hn).Marshal(), prod.Mod(prod, bigQ).FillBytes(make([]byte, Size))) &&
			bytes.Equal(hm.Div(hn).Marshal(), quo.FillBytes(make([]byte, Size)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReduceEdges covers the branches no SHA-256 output reaches in
// practice: a digest at or above q, and the rejected values 0 and 1.
func TestReduceEdges(t *testing.T) {
	one := big.NewInt(1)
	max := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	for _, v := range []*big.Int{
		big.NewInt(0), one, big.NewInt(2),
		new(big.Int).Sub(bigQ, one), bigQ, new(big.Int).Add(bigQ, one), max,
	} {
		var d [Size]byte
		v.FillBytes(d[:])
		got, ok := reduce(&d)
		want := new(big.Int).Mod(v, bigQ)
		if feToBig(got).Cmp(want) != 0 || ok != (want.Cmp(one) > 0) {
			t.Errorf("reduce(%x) = %x, %v; want %x, %v", v, feToBig(got), ok, want, want.Cmp(one) > 0)
		}
	}
}

func TestConstants(t *testing.T) {
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	if feToBig(q).Cmp(bigQ) != 0 {
		t.Error("q limbs")
	}
	if feToBig(rOne).Cmp(new(big.Int).Mod(r, bigQ)) != 0 {
		t.Error("rOne is not R mod q")
	}
	if feToBig(r2).Cmp(new(big.Int).Exp(r, big.NewInt(2), bigQ)) != 0 {
		t.Error("r2 is not R^2 mod q")
	}
	if qInv*q[0] != ^uint64(0) {
		t.Error("qInv is not -q^-1 mod 2^64")
	}
}

// FuzzMulMatchesBig holds the Montgomery product and inverse to a·b mod q
// and a^-1 mod q computed by math/big.
func FuzzMulMatchesBig(f *testing.F) {
	f.Add(make([]byte, Size), make([]byte, Size))
	f.Add(bytes.Repeat([]byte{0xff}, Size), bigQ.Bytes())
	f.Fuzz(func(t *testing.T, x, y []byte) {
		if len(x) != Size || len(y) != Size {
			return
		}
		a, _ := reduce((*[Size]byte)(x))
		b, _ := reduce((*[Size]byte)(y))
		ba, bb := feToBig(a), feToBig(b)
		got := mul(mul(mul(a, r2), mul(b, r2)), fe{1})
		want := new(big.Int).Mul(ba, bb)
		if feToBig(got).Cmp(want.Mod(want, bigQ)) != 0 {
			t.Fatalf("%x * %x = %x, want %x", ba, bb, feToBig(got), want)
		}
		if bb.Sign() == 0 {
			return
		}
		gotInv := mul(inv(mul(b, r2)), fe{1})
		if wantInv := new(big.Int).ModInverse(bb, bigQ); feToBig(gotInv).Cmp(wantInv) != 0 {
			t.Fatalf("1/%x = %x, want %x", bb, feToBig(gotInv), wantInv)
		}
	})
}

func TestAddCountAllocs(t *testing.T) {
	h, element := Empty(), bytes.Repeat([]byte{7}, 32)
	if n := testing.AllocsPerRun(100, func() { h, _ = h.AddCount(element) }); n != 0 {
		t.Errorf("AddCount allocates %v times per call, want 0", n)
	}
}

var sink Hash

// BenchmarkOfMultiset hashes a 480-element result set of 32-byte ers, the
// shape Algorithm 5 verifies per token:
//
//	go test -run '^$' -bench OfMultiset -benchmem ./internal/mhash
func BenchmarkOfMultiset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	elements := make([][]byte, 480)
	for i := range elements {
		elements[i] = make([]byte, 32)
		rng.Read(elements[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = OfMultiset(elements)
		_ = sink.Marshal()
	}
}

// TestGroupOrderFactorization pins the factorization of q - 1 that
// DESIGN.md's security table reads the multiset hash's level from:
// Pohlig–Hellman reduces a discrete log in GF(q)* to the subgroup of the
// largest prime factor, 109 bits, where Pollard rho takes about 2^55
// steps. A change of q must redo that row.
func TestGroupOrderFactorization(t *testing.T) {
	product := new(big.Int).Lsh(big.NewInt(1), 6)
	for _, f := range []struct {
		p    string
		bits int
	}{
		{"3", 2}, {"149", 8}, {"631", 10},
		{"107361793816595537", 57},
		{"174723607534414371449", 68},
		{"341948486974166000522343609283189", 109},
	} {
		p, _ := new(big.Int).SetString(f.p, 10)
		if !p.ProbablyPrime(20) {
			t.Errorf("factor %v of q-1 is not prime", p)
		}
		if p.BitLen() != f.bits {
			t.Errorf("factor %v of q-1 has %d bits, want %d", p, p.BitLen(), f.bits)
		}
		product.Mul(product, p)
	}
	if want := new(big.Int).Sub(qInt, big.NewInt(1)); product.Cmp(want) != 0 {
		t.Fatalf("2^6 · 3 · 149 · 631 · p57 · p68 · p109 = %v, q-1 = %v", product, want)
	}
}
