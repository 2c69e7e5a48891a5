package hprime

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashIsPrimeAndFullWidth(t *testing.T) {
	f := func(data []byte) bool {
		p := Hash(data)
		return p.BitLen() == PrimeBits && p.ProbablyPrime(40)
	}
	cfg := &quick.Config{MaxCount: 40} // primality checks are not free
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("slicer"))
	b := Hash([]byte("slicer"))
	if a.Cmp(b) != 0 {
		t.Error("Hash not deterministic")
	}
}

func TestHashDistinguishesInputs(t *testing.T) {
	inputs := []string{"", "a", "b", "ab", "ba", "slicer", "slicer2"}
	seen := make(map[string]string, len(inputs))
	for _, in := range inputs {
		key := Hash([]byte(in)).String()
		if prev, dup := seen[key]; dup {
			t.Errorf("inputs %q and %q map to the same prime", prev, in)
		}
		seen[key] = in
	}
}

func TestHashCountProbes(t *testing.T) {
	p, probes := HashCount([]byte("probe-test"))
	if probes < 1 {
		t.Errorf("probe count %d < 1", probes)
	}
	if p.Cmp(Hash([]byte("probe-test"))) != 0 {
		t.Error("HashCount disagrees with Hash")
	}
}

func TestHashConcatInjectiveFraming(t *testing.T) {
	// Length-prefixed framing: ["ab","c"] and ["a","bc"] must differ even
	// though their concatenations agree.
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a.Cmp(b) == 0 {
		t.Error("HashConcat aliases across part boundaries")
	}
	// And differs from the plain concatenation hash.
	c := Hash([]byte("abc"))
	if a.Cmp(c) == 0 || b.Cmp(c) == 0 {
		t.Error("HashConcat collides with Hash of the concatenation")
	}
}

// referenceProbe is the probe loop as specified and nothing more:
// ProbablyPrime on every odd number from cand upward. No sieve, no word
// filter, no memo.
func referenceProbe(cand *big.Int) (*big.Int, int) {
	two := big.NewInt(2)
	for probes := 1; ; probes++ {
		if cand.ProbablyPrime(millerRabinRounds) {
			return cand, probes
		}
		cand.Add(cand, two)
	}
}

// referenceHashCount derives the candidate as HashCount does and hands it
// to referenceProbe.
func referenceHashCount(data []byte) (*big.Int, int) {
	var buf []byte
	for ctr := uint32(0); len(buf) < PrimeBytes; ctr++ {
		h := sha256.New()
		h.Write([]byte("slicer/hprime/v1"))
		var c [4]byte
		binary.BigEndian.PutUint32(c[:], ctr)
		h.Write(c[:])
		h.Write(data)
		buf = append(buf, h.Sum(nil)...)
	}
	cand := new(big.Int).SetBytes(buf[:PrimeBytes])
	cand.SetBit(cand, PrimeBits-1, 1)
	cand.SetBit(cand, 0, 1)
	return referenceProbe(cand)
}

// toWords splits n < 2^128 into its two words, the inverse of fromWords.
func toWords(n *big.Int) (hi, lo uint64) {
	b := n.FillBytes(make([]byte, PrimeBytes))
	return binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])
}

// TestSieveAgreesWithDirectProbing requires that neither the sieve nor the
// word filter changes which prime an input maps to or how many probes the
// contract charges for: both must equal brute-force probing, memo off.
func TestSieveAgreesWithDirectProbing(t *testing.T) {
	SetCacheCapacity(0)
	defer SetCacheCapacity(DefaultCacheCapacity)
	for i := 0; i < 2000; i++ {
		in := []byte(fmt.Sprintf("reference-%d", i))
		got, probes := HashCount(in)
		want, wantProbes := referenceHashCount(in)
		if got.Cmp(want) != 0 || probes != wantProbes {
			t.Fatalf("HashCount(%q) = %v after %d probes, reference %v after %d", in, got, probes, want, wantProbes)
		}
	}
}

// TestProbeCarriesPast128Bits starts below the largest 128-bit prime's
// successor gap: 2^128-159 is the last prime below 2^128, so probing from
// 2^128-157 carries out of the two words, where the word filter no longer
// sees the candidate and must step aside.
func TestProbeCarriesPast128Bits(t *testing.T) {
	hi, lo := ^uint64(0), ^uint64(0)-156
	got, probes := probe(hi, lo)
	want, wantProbes := referenceProbe(fromWords(hi, lo))
	if got.Cmp(want) != 0 || probes != wantProbes || got.BitLen() != PrimeBits+1 {
		t.Fatalf("probe = %v after %d probes, reference %v after %d", got, probes, want, wantProbes)
	}
}

// strongProbablePrime2 is the oracle for sprp2, in math/big.
func strongProbablePrime2(n *big.Int) bool {
	one := big.NewInt(1)
	minus := new(big.Int).Sub(n, one)
	s := minus.TrailingZeroBits()
	x := new(big.Int).Exp(big.NewInt(2), new(big.Int).Rsh(minus, s), n)
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

// TestSprp2MatchesBigOracle checks the word arithmetic against math/big on
// odd 128-bit numbers of every shape the loop distinguishes: n-1 with 1 to
// 127 trailing zeros (a zero low word from 64 on), random composites, and
// primes, every one of which must pass or H_prime would skip it.
func TestSprp2MatchesBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(hi, lo uint64) bool {
		t.Helper()
		n := fromWords(hi, lo)
		got, want := sprp2(hi, lo), strongProbablePrime2(n)
		if got != want {
			t.Fatalf("sprp2(%#x, %#x) = %v, math/big says %v", hi, lo, got, want)
		}
		if prime := n.ProbablyPrime(millerRabinRounds); prime && !got {
			t.Fatalf("sprp2 rejects the prime %v", n)
		}
		return got
	}
	// k·2^s + 1 with k odd and bit 127 set, until one per s passes.
	for s := uint(1); s < 128; s++ {
		for tries := 0; tries < 2000; tries++ {
			k := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 127-s))
			k.SetBit(k, int(127-s), 1).SetBit(k, 0, 1)
			n := k.Lsh(k, s).SetBit(k, 0, 1)
			if check(toWords(n)) {
				break
			}
		}
	}
	for i := 0; i < 20000; i++ {
		check(rng.Uint64()|1<<63, rng.Uint64()|1)
	}
	for _, n := range [][2]uint64{
		{1 << 63, 1}, {^uint64(0), ^uint64(0)}, {^uint64(0), 1}, {1 << 63, ^uint64(0)},
		{^uint64(0), ^uint64(0) - 158}, // 2^128-159, prime
	} {
		check(n[0], n[1])
	}
}

// TestMontgomerySquareMatchesBig drives square through the carries that
// random candidates reach once in 2^64 tries: moduli and operands whose words
// are all ones, all zeros, or one off.
func TestMontgomerySquareMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
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
		a := fromWords(word(), word())
		if i%2 == 0 { // just below n
			a.Sub(n, big.NewInt(int64(rng.Intn(4)+1)))
		}
		a.Mod(a, n)
		gotHi, gotLo := newModulus(hi, lo).square(toWords(a))
		want := new(big.Int).Mul(a, a)
		want.Mul(want, new(big.Int).ModInverse(rInv, n)).Mod(want, n)
		if got := fromWords(gotHi, gotLo); got.Cmp(want) != 0 {
			t.Fatalf("square(%v) mod %v = %v, want %v", a, n, got, want)
		}
	}
}

// FuzzHashCountMatchesReference is the exactness claim under mutation: the
// prime and the probe count of HashCount on arbitrary input, and of the
// probe loop from an arbitrary candidate, equal brute-force probing.
func FuzzHashCountMatchesReference(f *testing.F) {
	SetCacheCapacity(0)
	defer SetCacheCapacity(DefaultCacheCapacity)
	f.Add([]byte("s1"), uint64(0), uint64(0))
	f.Add([]byte{}, ^uint64(0), ^uint64(0)-156)
	f.Add([]byte("carry"), uint64(1), ^uint64(0)-2)
	f.Fuzz(func(t *testing.T, data []byte, hi, lo uint64) {
		got, probes := HashCount(data)
		want, wantProbes := referenceHashCount(data)
		if got.Cmp(want) != 0 || probes != wantProbes {
			t.Fatalf("HashCount(%x) = %v after %d probes, reference %v after %d", data, got, probes, want, wantProbes)
		}
		hi, lo = hi|1<<63, lo|1
		got, probes = probe(hi, lo)
		want, wantProbes = referenceProbe(fromWords(hi, lo))
		if got.Cmp(want) != 0 || probes != wantProbes {
			t.Fatalf("probe(%#x, %#x) = %v after %d probes, reference %v after %d", hi, lo, got, probes, want, wantProbes)
		}
	})
}
