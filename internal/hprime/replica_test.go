package hprime

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// The tests below hold probablyPrime to (*big.Int).ProbablyPrime part by
// part. Random candidates that pass base 2 are prime, so the probe loop
// alone never drives the random-base rounds or the Lucas test into a
// composite; these tests do.

// chernickOffsets are the d for which m = 2^39 + d makes 6m+1, 12m+1 and
// 18m+1 all prime and their product, a 128-bit Carmichael number, a strong
// pseudoprime to base 2. The first 40 such m.
var chernickOffsets = []uint64{
	3278, 12718, 19542, 40272, 69642, 71318, 76742, 77358, 101418, 104698,
	105162, 117438, 120118, 130492, 145598, 151828, 154638, 159578, 176098, 206102,
	211238, 219962, 225182, 250762, 254932, 257658, 259618, 271042, 288322, 290718,
	310162, 310598, 314602, 328278, 334742, 337182, 350338, 351182, 361058, 376818,
}

func chernick(d uint64) *big.Int {
	m := uint64(1)<<39 + d
	n := new(big.Int).SetUint64(6*m + 1)
	n.Mul(n, new(big.Int).SetUint64(12*m+1))
	return n.Mul(n, new(big.Int).SetUint64(18*m+1))
}

// strongProbablePrimeBig is the oracle for sprp, in math/big: whether n is a
// strong probable prime to base a.
func strongProbablePrimeBig(n, a *big.Int) bool {
	one := big.NewInt(1)
	minus := new(big.Int).Sub(n, one)
	s := minus.TrailingZeroBits()
	x := new(big.Int).Exp(a, new(big.Int).Rsh(minus, s), n)
	if x.Cmp(one) == 0 || x.Cmp(minus) == 0 {
		return true
	}
	for ; s > 1; s-- {
		if x.Mul(x, x).Mod(x, n); x.Cmp(minus) == 0 {
			return true
		}
	}
	return false
}

// shaped returns an odd 128-bit k·2^s ± 1 with k odd that passes sprp2,
// which is then prime but for a vanishing chance, or nil if 2000 tries find
// none.
func shaped(rng *rand.Rand, s uint, sign int64) *big.Int {
	for tries := 0; tries < 2000; tries++ {
		k := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 127-s))
		k.SetBit(k, int(127-s), 1).SetBit(k, 0, 1)
		n := k.Lsh(k, s).Add(k, big.NewInt(sign))
		if n.BitLen() == PrimeBits && sprp2(toWords(n)) {
			return n
		}
	}
	return nil
}

func TestMillerRabinBasesMatchBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(hi, lo uint64) {
		t.Helper()
		n := fromWords(hi, lo)
		limit := new(big.Int).Sub(n, big.NewInt(3))
		oracle := rand.New(rand.NewSource(int64(lo)))
		for i, x := range millerRabinBases(hi, lo) {
			want := new(big.Int).Rand(oracle, limit)
			want.Add(want, big.NewInt(2))
			if got := fromWords(x[0], x[1]); got.Cmp(want) != 0 {
				t.Fatalf("base %d for %v = %v, math/big draws %v", i, n, got, want)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		check(rng.Uint64()|1<<63, rng.Uint64()|1)
	}
	// n-3 below 2^127, where the mask drops the top bit; at 2^127; a borrow
	// out of the low word; the top of the range.
	for _, n := range [][2]uint64{{1 << 63, 1}, {1 << 63, 3}, {1 << 63, 5}, {^uint64(0), 1}, {^uint64(0), ^uint64(0)}} {
		check(n[0], n[1])
	}
}

func TestSprpMatchesBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(n *big.Int) {
		t.Helper()
		f := newField(toWords(n))
		bases := []*big.Int{big.NewInt(2), big.NewInt(3), new(big.Int).Sub(n, big.NewInt(2)), new(big.Int).Sub(n, big.NewInt(1))}
		for i := 0; i < 3; i++ {
			a := new(big.Int).Rand(rng, new(big.Int).Sub(n, big.NewInt(3)))
			bases = append(bases, a.Add(a, big.NewInt(2)))
		}
		for _, a := range bases {
			if got, want := f.sprp(f.toMont(toWords(a))), strongProbablePrimeBig(n, a); got != want {
				t.Fatalf("sprp(%v) to base %v = %v, math/big says %v", n, a, got, want)
			}
		}
	}
	for s := uint(1); s < 127; s += 3 {
		if n := shaped(rng, s, 1); n != nil {
			check(n)
		}
	}
	for _, d := range chernickOffsets {
		check(chernick(d))
	}
	for i := 0; i < 200; i++ {
		check(fromWords(rng.Uint64()|1<<63, rng.Uint64()|1))
	}
}

func TestLucasMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// With sprp2 passed and no factor up to 53, ProbablyPrime(0) is the
	// base-2 round and the Lucas test: the Lucas test is all it adds.
	check := func(n *big.Int) {
		t.Helper()
		if got, want := newField(toWords(n)).lucas(), n.ProbablyPrime(0); got != want {
			t.Fatalf("lucas(%v) = %v, ProbablyPrime(0) = %v", n, got, want)
		}
	}
	// n+1 = k·2^r for every r: the V(s·2^t) ≡ 0 tail runs up to r-2 times.
	for r := uint(1); r < 127; r++ {
		if n := shaped(rng, r, -1); n != nil {
			check(n)
		}
	}
	for _, d := range chernickOffsets {
		check(chernick(d))
	}
	for i := 0; i < 50; i++ {
		check(shaped(rng, 1, 1))
	}

	// Composites the other branches return on, which fail sprp2 and so have
	// no oracle but the math: a square of a prime, for which no P gives
	// Jacobi(P²-4, n) = -1 and the search reaches the square check at P =
	// 40; and multiples of 5 = P+2 at P = 3, where the Jacobi symbol is 0.
	for i := 0; i < 20; i++ {
		q := new(big.Int).SetUint64(rng.Uint64() | 0xc<<60 | 1)
		for !q.ProbablyPrime(10) {
			q.Add(q, big.NewInt(2))
		}
		if n := new(big.Int).Mul(q, q); newField(toWords(n)).lucas() {
			t.Fatalf("lucas accepts the square %v", n)
		}
		n := fromWords(rng.Uint64()|1<<63, rng.Uint64())
		n.Sub(n, new(big.Int).Mod(n, big.NewInt(10))).Add(n, big.NewInt(5))
		if n.BitLen() == PrimeBits && newField(toWords(n)).lucas() {
			t.Fatalf("lucas accepts %v, a multiple of 5", n)
		}
	}
}

func TestJacobiMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		a := uint64(rng.Int63n(1<<27)) + 1
		n := fromWords(rng.Uint64(), rng.Uint64()|1)
		if i%4 == 0 { // a shares the factor g with n
			g := big.NewInt(int64(rng.Intn(50)*2 + 3))
			if n.Div(n, g).Mul(n, g); n.Bit(0) == 0 {
				n.Sub(n, g)
			}
			a *= g.Uint64()
		}
		want := big.Jacobi(new(big.Int).SetUint64(a), n)
		hi, lo := toWords(n)
		if got := jacobi(a, hi, lo); got != want {
			t.Fatalf("jacobi(%d, %v) = %d, math/big says %d", a, n, got, want)
		}
	}
}

// TestMontgomeryMulMatchesBig is TestMontgomerySquareMatchesBig for two
// distinct operands, at the same word edges.
func TestMontgomeryMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := []uint64{0, 1, 2, 1 << 63, 1<<63 + 1, ^uint64(0) - 2, ^uint64(0) - 1, ^uint64(0)}
	word := func() uint64 {
		if rng.Intn(4) > 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Uint64()
	}
	rInv := new(big.Int).Lsh(big.NewInt(1), 128)
	for i := 0; i < 50000; i++ {
		hi, lo := word()|1<<63, word()|1
		n := fromWords(hi, lo)
		a, b := fromWords(word(), word()), fromWords(word(), word())
		if i%2 == 0 { // just below n
			a.Sub(n, big.NewInt(int64(rng.Intn(4)+1)))
		}
		a.Mod(a, n)
		b.Mod(b, n)
		aHi, aLo := toWords(a)
		bHi, bLo := toWords(b)
		gotHi, gotLo := newModulus(hi, lo).mul(aHi, aLo, bHi, bLo)
		want := new(big.Int).Mul(a, b)
		want.Mul(want, new(big.Int).ModInverse(rInv, n)).Mod(want, n)
		if got := fromWords(gotHi, gotLo); got.Cmp(want) != 0 {
			t.Fatalf("mul(%v, %v) mod %v = %v, want %v", a, b, n, got, want)
		}
	}
}

// sieved reports whether hi·2^64 + lo has a factor among smallPrimes, so
// that probe never hands it to probablyPrime.
func sieved(hi, lo uint64) bool {
	for _, p := range smallPrimes {
		if bits.Rem64(hi, lo, p) == 0 {
			return true
		}
	}
	return false
}

// FuzzProbablyPrimeMatchesBig compares the whole test with ProbablyPrime(2)
// on an arbitrary odd 128-bit number with bit 127 set and on the first
// sieve survivor from it.
func FuzzProbablyPrimeMatchesBig(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0)-158) // 2^128-159, prime
	f.Add(^uint64(0), ^uint64(0))
	for _, d := range chernickOffsets[:4] {
		hi, lo := toWords(chernick(d))
		f.Add(hi, lo)
	}
	f.Fuzz(func(t *testing.T, hi, lo uint64) {
		check := func(hi, lo uint64) {
			if got, want := probablyPrime(hi, lo), fromWords(hi, lo).ProbablyPrime(millerRabinRounds); got != want {
				t.Fatalf("probablyPrime(%#x, %#x) = %v, ProbablyPrime = %v", hi, lo, got, want)
			}
		}
		hi, lo = hi|1<<63, lo|1
		check(hi, lo)
		for sieved(hi, lo) {
			if lo += 2; lo < 2 {
				if hi++; hi == 0 {
					return // past 2^128
				}
			}
		}
		check(hi, lo)
	})
}

// TestHashCountAllocs bounds the allocations of one prime derived with the
// memo off. The digest and the returned prime take eight; nothing is
// allocated per probe or per primality test, where math/big made about
// ninety.
func TestHashCountAllocs(t *testing.T) {
	SetCacheCapacity(0)
	defer SetCacheCapacity(DefaultCacheCapacity)
	in := []byte("allocs")
	if allocs := testing.AllocsPerRun(100, func() { HashCount(in) }); allocs > 10 {
		t.Errorf("HashCount allocates %v times per prime, want at most 10", allocs)
	}
}

// TestProbablyPrimeConcurrent derives primes cold from several goroutines
// at once, which share the pooled base generators.
func TestProbablyPrimeConcurrent(t *testing.T) {
	SetCacheCapacity(0)
	defer SetCacheCapacity(DefaultCacheCapacity)
	want := make([]string, 16)
	for i := range want {
		want[i] = Hash([]byte(fmt.Sprintf("concurrent-%d", i))).String()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				i := (k + g) % len(want)
				if got := Hash([]byte(fmt.Sprintf("concurrent-%d", i))).String(); got != want[i] {
					t.Errorf("input %d: %v != %v", i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
