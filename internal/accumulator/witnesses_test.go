package accumulator

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// witParams memoizes one parameter set per modulus size for the witness
// tests and benchmarks; a 1024-bit Setup is too slow to repeat.
var (
	witMu     sync.Mutex
	witParams = map[int]*Params{}
)

func witSetup(tb testing.TB, bits int) *Params {
	tb.Helper()
	witMu.Lock()
	defer witMu.Unlock()
	if p, ok := witParams[bits]; ok {
		return p
	}
	p, err := Setup(bits)
	if err != nil {
		tb.Fatalf("Setup(%d): %v", bits, err)
	}
	witParams[bits] = p
	return p
}

// allWitnesses evaluates Witnesses at every index, serially.
func allWitnesses(tb testing.TB, p *Params, primes []*big.Int) []*big.Int {
	tb.Helper()
	witness, err := p.Witnesses(primes)
	if err != nil {
		tb.Fatalf("Witnesses: %v", err)
	}
	out := make([]*big.Int, len(primes))
	for i := range out {
		out[i] = witness(i)
	}
	return out
}

func equalWitnesses(tb testing.TB, got, want []*big.Int) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%d witnesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			tb.Fatalf("witness %d differs from RootFactor's", i)
		}
	}
}

// TestWitnessesMatchRootFactor holds the owner's CRT witnesses to the
// public RootFactor, byte for byte, across the set sizes where the prefix
// and suffix products have edges (empty, one, odd, powers of two ± 1).
func TestWitnessesMatchRootFactor(t *testing.T) {
	cases := []struct{ bits, n int }{
		{512, 0}, {512, 1}, {512, 2}, {512, 3}, {512, 7}, {512, 8}, {512, 9},
		{512, 64}, {512, 1000}, {1024, 64},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d-bit/%d", tc.bits, tc.n), func(t *testing.T) {
			p := witSetup(t, tc.bits)
			primes := fpPrimes(tc.n, fmt.Sprintf("wit-%d", tc.bits))
			equalWitnesses(t, allWitnesses(t, p, primes), p.RootFactor(primes))
		})
	}
}

// TestWitnessesMemberDividesPhi plants members that divide p−1 and q−1
// (2, and p−1 and q−1 themselves, so E_i reduces to 0 on one side): the
// CRT path takes no inverse, so such a member needs no fallback.
func TestWitnessesMemberDividesPhi(t *testing.T) {
	p := witSetup(t, 512)
	// φ(n) = (p−1)(q−1): 2 divides it, and so do p−1 and q−1.
	s := new(big.Int).Sub(p.N, p.phi)
	s.Add(s, one)
	d := new(big.Int).Mul(s, s)
	d.Sqrt(d.Sub(d, new(big.Int).Lsh(p.N, 2)))
	fp := new(big.Int).Rsh(new(big.Int).Add(s, d), 1)
	fq := new(big.Int).Rsh(new(big.Int).Sub(s, d), 1)
	if new(big.Int).Mul(fp, fq).Cmp(p.N) != 0 {
		t.Fatal("test did not recover the factors")
	}
	planted := []*big.Int{big.NewInt(2), new(big.Int).Sub(fp, one), new(big.Int).Sub(fq, one)}
	primes := append(fpPrimes(5, "planted"), planted...)
	equalWitnesses(t, allWitnesses(t, p, primes), p.RootFactor(primes))
}

func TestWitnessesNeedTrapdoor(t *testing.T) {
	pub := Params{PublicParams: *witSetup(t, 512).Public()}
	if _, err := pub.Witnesses(fpPrimes(2, "pub")); err == nil {
		t.Fatal("Witnesses ran without φ(n)")
	}
	good := witSetup(t, 512)
	for _, phi := range []*big.Int{
		new(big.Int).Sub(good.phi, one),
		new(big.Int).Add(good.N, big.NewInt(7)), // p + q would be negative
		new(big.Int).Sub(good.N, one),           // p + q = 2: q would be 1
	} {
		bad := &Params{PublicParams: good.PublicParams, phi: phi}
		if _, err := bad.Witnesses(fpPrimes(2, "bad")); err == nil {
			t.Fatalf("Witnesses accepted φ(n) = %v, which does not factor n", phi)
		}
	}
}

// nextPrime returns the least prime ≥ x.
func nextPrime(x uint64) *big.Int {
	p := new(big.Int).SetUint64(x)
	for !p.ProbablyPrime(20) {
		p.Add(p, one)
	}
	return p
}

// FuzzWitnessesMatchRootFactor builds a small modulus from the two seeds
// and a set of small members from the bytes, so members that divide p−1
// or q−1 and repeated members are common, and holds Witnesses to
// RootFactor on it.
func FuzzWitnessesMatchRootFactor(f *testing.F) {
	f.Add(uint32(1<<31+11), uint32(1<<31+99), uint64(5), []byte{1, 2, 3})
	f.Add(uint32(3_000_000_019), uint32(4_000_000_007), uint64(1<<40+3), []byte{0, 0, 7, 200})
	f.Add(uint32(2_147_483_659), uint32(2_147_483_659), uint64(9), []byte{})
	f.Fuzz(func(t *testing.T, ps, qs uint32, a uint64, xs []byte) {
		fp, fq := nextPrime(uint64(ps)|1<<31), nextPrime(uint64(qs)|1<<31)
		if fp.Cmp(fq) == 0 {
			t.Skip("p = q")
		}
		n := new(big.Int).Mul(fp, fq)
		g := new(big.Int).SetUint64(a)
		g.Mul(g, g).Mod(g, n)
		if g.Cmp(one) <= 0 || new(big.Int).GCD(nil, nil, g, n).Cmp(one) != 0 {
			t.Skip("g is not a unit above 1")
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(fp, one), new(big.Int).Sub(fq, one))
		p := &Params{PublicParams: PublicParams{N: n, G: g}, phi: phi}
		if len(xs) > 24 {
			xs = xs[:24]
		}
		primes := make([]*big.Int, len(xs))
		for i, b := range xs {
			primes[i] = nextPrime(uint64(b) + 2)
		}
		equalWitnesses(t, allWitnesses(t, p, primes), p.RootFactor(primes))
	})
}

// BenchmarkWitnesses times the owner's CRT witnesses for a whole set,
// serially, beside BenchmarkRootFactor's public rebuild of the same set.
func BenchmarkWitnesses(b *testing.B) {
	benchWitnessSets(b, func(p *Params, primes []*big.Int) { allWitnesses(b, p, primes) })
}

func BenchmarkRootFactor(b *testing.B) {
	benchWitnessSets(b, func(p *Params, primes []*big.Int) { p.RootFactor(primes) })
}

func benchWitnessSets(b *testing.B, run func(*Params, []*big.Int)) {
	for _, bits := range []int{512, 1024} {
		for _, n := range []int{1000, 8192} {
			b.Run(fmt.Sprintf("%d-bit/%d", bits, n), func(b *testing.B) {
				p := witSetup(b, bits)
				primes := fpPrimes(n, "bench-witnesses")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(p, primes)
				}
			})
		}
	}
}
