// Package hprime implements H_prime, the random-oracle-style mapping from
// arbitrary byte strings to prime representatives (Barić–Pfitzmann style).
// The RSA accumulator can only accumulate primes; Slicer therefore derives a
// prime representative for each (search token, set hash) pair before
// accumulation.
//
// Construction: expand the input with SHA-256 into a PrimeBits-wide odd
// candidate with the top bit forced (so every output has exactly PrimeBits
// bits), then probe candidate, candidate+2, candidate+4, ... until a
// probable prime is found. The mapping is deterministic, so the cloud and
// the on-chain verifier derive the same prime independently, and collision
// resistance reduces to that of SHA-256 plus the sparseness of the probe
// window.
//
// The probe loop is hot (index building derives one prime per keyword, and
// every owner Insert derives fresh ones), so composites are first discarded
// by an incremental trial-division sieve: the candidate's residues modulo
// all small primes are computed once and advanced by +2 per probe in machine
// words. A survivor is then accepted exactly when
// (*big.Int).ProbablyPrime(2) accepts it, but the test runs on the
// candidate's two words with no big.Int (probablyPrime): math/big's trial
// division, its base-2 Miller–Rabin round (sprp2), its two rounds to bases
// drawn from a math/rand source seeded with the low word, and its almost
// extra strong Lucas test, all in Montgomery form. It replicates math/big
// part for part, so every prime and every probe count (and so all gas) is
// the one ProbablyPrime gives, on every input. A cold prime went from
// 134–191 µs, 99 allocations and 12.5 KB to 60–76 µs, 9 and 2.1 KB, at
// 42.61 probes either way (BenchmarkHashCold, 2000 primes, five runs of each
// binary alternated, 2-vCPU Xeon). A Go release that changed math/big's
// bases or its Lucas test would be caught by the oracle tests, which compare
// each part with math/big, and by testdata/kat.golden.
package hprime

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"math/bits"
	"math/rand" //slicer:allow weakrand -- math/big's public Miller–Rabin bases, seeded by the candidate; no key material
	"sync"
)

// PrimeBits is the bit width of generated prime representatives. 128 bits
// keeps accumulator exponentiations cheap while leaving collisions
// infeasible, mirroring the paper's lightweight parameterization.
const PrimeBits = 128

// PrimeBytes is the fixed serialized width of prime representatives.
const PrimeBytes = PrimeBits / 8

// millerRabinRounds is the extra Miller–Rabin work on top of Go's baseline
// Baillie–PSW test (which has no known composite passing it).
const millerRabinRounds = 2

// smallPrimes drives the trial-division pre-sieve: the 308 odd primes below
// sieveLimit (the candidates are always odd). An array, so that a probe
// loop's residue table lives on its stack.
var smallPrimes = sieve()

const sieveLimit = 1 << 11

func sieve() (primes [308]uint64) {
	composite := make([]bool, sieveLimit)
	n := 0
	for p := 3; p < sieveLimit; p += 2 {
		if composite[p] {
			continue
		}
		primes[n] = uint64(p)
		n++
		for m := p * p; m < sieveLimit; m += 2 * p {
			composite[m] = true
		}
	}
	if n != len(primes) {
		panic("hprime: smallPrimes is sized for another sieveLimit")
	}
	return primes
}

// Hash maps data to a PrimeBits-bit prime. The same input always yields the
// same prime.
func Hash(data []byte) *big.Int {
	p, _ := HashCount(data)
	return p
}

// HashCount is Hash instrumented with the number of candidates probed
// before a prime was found; the on-chain verifier charges gas per probe.
// Results are memoized in a bounded cache (see SetCacheCapacity): repeat
// inputs return the identical prime and probe count without re-probing.
func HashCount(data []byte) (*big.Int, int) {
	// Expand to PrimeBytes of digest material (counter-mode SHA-256).
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
	// The first digest block is a collision-resistant fingerprint of data;
	// use it as the memo key so cache hits skip the whole probe loop.
	var key [sipWidth]byte
	copy(key[:], buf)
	if e, ok := cache.lookup(key); ok {
		return new(big.Int).Set(e.prime), e.probes
	}
	// The candidate: the digest's first two words, top bit forced (so every
	// output has full width) and odd.
	hi := binary.BigEndian.Uint64(buf) | 1<<63
	lo := binary.BigEndian.Uint64(buf[8:]) | 1
	prime, probes := probe(hi, lo)
	cache.store(key, cachedPrime{prime: new(big.Int).Set(prime), probes: probes})
	return prime, probes
}

// probe walks the odd numbers from the candidate hi·2^64 + lo (odd, bit 127
// set) upward to the first that ProbablyPrime accepts, and counts them.
func probe(hi, lo uint64) (*big.Int, int) {
	// Seed the incremental residue table with word arithmetic (the running
	// remainder is < p, as bits.Rem64 requires). A big.Int division per sieve
	// prime here would cost more than the primality tests the sieve saves.
	var residues [len(smallPrimes)]uint64 // ranged over as slices: ranging over an array copies it
	for i, p := range smallPrimes[:] {
		residues[i] = bits.Rem64(hi%p, lo, p)
	}

	probes := 0
	for {
		probes++
		smooth := false
		for _, r := range residues[:] {
			if r == 0 {
				smooth = true
				break
			}
		}
		if !smooth {
			// hi's top bit is clear only once the probes have carried past
			// 2^128: the words then hold cand - 2^128, and math/big decides.
			if hi>>63 == 0 {
				cand := fromWords(hi, lo)
				if cand.SetBit(cand, PrimeBits, 1).ProbablyPrime(millerRabinRounds) {
					return cand, probes
				}
			} else if probablyPrime(hi, lo) {
				return fromWords(hi, lo), probes
			}
		}
		if lo += 2; lo < 2 {
			hi++
		}
		for i, p := range smallPrimes[:] {
			residues[i] += 2
			if residues[i] >= p {
				residues[i] -= p
			}
		}
	}
}

// fromWords returns hi·2^64 + lo.
func fromWords(hi, lo uint64) *big.Int {
	n := new(big.Int).SetUint64(hi)
	return n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(lo))
}

// sprp2 reports whether n = hi·2^64 + lo, odd and with bit 127 set, is a
// strong probable prime to base 2. Every prime is; a number that is not has
// been proven composite. It computes in Montgomery form with R = 2^128 on
// machine words and allocates nothing.
func sprp2(hi, lo uint64) bool {
	n := newModulus(hi, lo)
	// R mod n = 2^128 - n, because 2^127 <= n; and multiplying by the base 2
	// is a doubling.
	return n.strongProbablePrime(^hi, -lo, func(xHi, xLo uint64) (uint64, uint64) {
		return n.reduce(xHi>>63, xHi<<1|xLo>>63, xLo<<1)
	})
}

// strongProbablePrime reports whether n is a strong probable prime to the
// base b that timesBase multiplies by, in Montgomery form with one = R mod
// n: with n-1 = d·2^s and d odd, whether b^d = ±1 or b^(d·2^r) = -1 (mod n)
// for some 0 < r < s.
func (n modulus) strongProbablePrime(oneHi, oneLo uint64, timesBase func(hi, lo uint64) (uint64, uint64)) bool {
	minusHi, minusLo := n.sub(0, 0, oneHi, oneLo)

	// Left to right over the bits of n-1 = hi·2^64 + (lo-1), stopping above
	// its s trailing zeros: square, and multiply by b where the bit is set.
	eHi, eLo := n.hi, n.lo-1
	s := trailingZeros(eHi, eLo)
	xHi, xLo := oneHi, oneLo
	for i := 127; i >= s; i-- {
		xHi, xLo = n.square(xHi, xLo)
		if eHi>>63 != 0 {
			xHi, xLo = timesBase(xHi, xLo)
		}
		eHi, eLo = eHi<<1|eLo>>63, eLo<<1
	}
	if xHi == oneHi && xLo == oneLo || xHi == minusHi && xLo == minusLo {
		return true
	}
	for ; s > 1; s-- {
		xHi, xLo = n.square(xHi, xLo)
		if xHi == minusHi && xLo == minusLo {
			return true
		}
	}
	return false
}

// modulus is an odd 128-bit n with bit 127 set, with -n^-1 mod 2^64.
type modulus struct{ hi, lo, negInv uint64 }

func newModulus(hi, lo uint64) modulus {
	// Newton's iteration: an odd lo is its own inverse mod 8, and each step
	// doubles the number of correct bits.
	inv := lo
	for i := 0; i < 5; i++ {
		inv *= 2 - lo*inv
	}
	return modulus{hi: hi, lo: lo, negInv: -inv}
}

// reduce returns carry·2^128 + hi·2^64 + lo, which is below 2n, modulo n.
func (n modulus) reduce(carry, hi, lo uint64) (uint64, uint64) {
	l, borrow := bits.Sub64(lo, n.lo, 0)
	h, borrow := bits.Sub64(hi, n.hi, borrow)
	if carry != 0 || borrow == 0 {
		return h, l
	}
	return hi, lo
}

// square returns a²/R mod n for a < n: the four-word square, then one
// Montgomery step per low word.
func (n modulus) square(aHi, aLo uint64) (uint64, uint64) {
	t1, t0 := bits.Mul64(aLo, aLo)
	t3, t2 := bits.Mul64(aHi, aHi)
	crossHi, crossLo := bits.Mul64(aHi, aLo) // counts twice, at 2^64
	var c uint64
	t1, c = bits.Add64(t1, crossLo<<1, 0)
	t2, c = bits.Add64(t2, crossHi<<1|crossLo>>63, c)
	t3, _ = bits.Add64(t3, crossHi>>63, c) // a² < 2^256

	t1, t2, c = n.step(t0, t1, t2)
	t3, top := bits.Add64(t3, c, 0)
	t2, t3, c = n.step(t1, t2, t3)
	return n.reduce(top+c, t3, t2)
}

// step adds to the three-word t the multiple of n that clears t0 and drops
// that word: (t + m·n)/2^64 with m = t0·(-n^-1) mod 2^64, two words and a
// carry.
func (n modulus) step(t0, t1, t2 uint64) (r0, r1, carry uint64) {
	m := t0 * n.negInv
	h0, l0 := bits.Mul64(m, n.lo)
	h1, l1 := bits.Mul64(m, n.hi)
	_, c := bits.Add64(t0, l0, 0)
	r0, c = bits.Add64(t1, h0, c)
	r1, carry = bits.Add64(t2, h1, c)
	r0, c = bits.Add64(r0, l1, 0)
	r1, c = bits.Add64(r1, 0, c)
	return r0, r1, carry + c
}

// mul returns a·b/R mod n for a, b < n: the four-word product, then one
// Montgomery step per low word.
func (n modulus) mul(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	t1, t0 := bits.Mul64(aLo, bLo)
	t3, t2 := bits.Mul64(aHi, bHi)
	h1, l1 := bits.Mul64(aHi, bLo)
	h2, l2 := bits.Mul64(aLo, bHi)
	var c uint64
	t1, c = bits.Add64(t1, l1, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3 += c
	t1, c = bits.Add64(t1, l2, 0)
	t2, c = bits.Add64(t2, h2, c)
	t3 += c // a·b < 2^256

	t1, t2, c = n.step(t0, t1, t2)
	t3, top := bits.Add64(t3, c, 0)
	t2, t3, c = n.step(t1, t2, t3)
	return n.reduce(top+c, t3, t2)
}

// add returns a + b mod n for a, b < n.
func (n modulus) add(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	lo, c := bits.Add64(aLo, bLo, 0)
	hi, c := bits.Add64(aHi, bHi, c)
	return n.reduce(c, hi, lo)
}

// sub returns a - b mod n for a, b < n.
func (n modulus) sub(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	lo, borrow := bits.Sub64(aLo, bLo, 0)
	hi, borrow := bits.Sub64(aHi, bHi, borrow)
	if borrow != 0 {
		var c uint64
		lo, c = bits.Add64(lo, n.lo, 0)
		hi, _ = bits.Add64(hi, n.hi, c)
	}
	return hi, lo
}

// mulSub returns a·b/R - c mod n, a step of the Lucas V-ladder.
func (n modulus) mulSub(aHi, aLo, bHi, bLo, cHi, cLo uint64) (uint64, uint64) {
	hi, lo := n.mul(aHi, aLo, bHi, bLo)
	return n.sub(hi, lo, cHi, cLo)
}

// field is modulus with the two constants of Montgomery form: R mod n,
// which stands for 1, and R² mod n, which converts into the form.
type field struct {
	modulus
	oneHi, oneLo, r2Hi, r2Lo uint64
}

func newField(hi, lo uint64) field {
	f := field{modulus: newModulus(hi, lo), oneHi: ^hi, oneLo: -lo} // 2^128 - n, as in sprp2
	// R² = R·2^128: 128 doublings of R mod n.
	f.r2Hi, f.r2Lo = f.oneHi, f.oneLo
	for i := 0; i < 128; i++ {
		f.r2Hi, f.r2Lo = f.add(f.r2Hi, f.r2Lo, f.r2Hi, f.r2Lo)
	}
	return f
}

// toMont returns x·R mod n for x < n.
func (f field) toMont(xHi, xLo uint64) (uint64, uint64) {
	return f.mul(xHi, xLo, f.r2Hi, f.r2Lo)
}

// baseRands holds the generators of the Miller–Rabin bases. Each prime
// reseeds one, where math/big allocates a fresh 4.9 KB source.
var baseRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// probablyPrime reports whether n = hi·2^64 + lo, odd with bit 127 set, is
// accepted by (*big.Int).ProbablyPrime(millerRabinRounds), which it
// replicates part for part: trial division by the odd primes up to 53, a
// Miller–Rabin round to base 2 and one to each of millerRabinRounds bases
// drawn from a math/rand source seeded with n's low word, and the almost
// extra strong Lucas test. n must pass every part, so the order (base 2
// first, the cheapest rejection) does not matter, and the answer is the
// same on every input, not merely on every input anyone has tried.
func probablyPrime(hi, lo uint64) bool {
	const oddPrimorial53 = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53
	r := bits.Rem64(hi, lo, oddPrimorial53)
	for _, p := range smallPrimes[:15] {
		if r%p == 0 {
			return false
		}
	}
	if !sprp2(hi, lo) {
		return false
	}
	f := newField(hi, lo)
	for _, x := range millerRabinBases(hi, lo) {
		if !f.sprp(f.toMont(x[0], x[1])) {
			return false
		}
	}
	return f.lucas()
}

// millerRabinBases returns the bases (high word, low word) of math/big's
// random Miller–Rabin rounds for n = hi·2^64 + lo, drawn as it draws them
// (nat.random, then +2) from a generator seeded with lo: uniform below n-3
// by rejection, each word two Uint32 draws with the low half first, the top
// word masked to the bit length of n-3.
func millerRabinBases(hi, lo uint64) (bases [millerRabinRounds][2]uint64) {
	rng := baseRands.Get().(*rand.Rand)
	defer baseRands.Put(rng)
	rng.Seed(int64(lo))
	limLo, borrow := bits.Sub64(lo, 3, 0)
	limHi := hi - borrow
	mask := ^uint64(0) >> bits.LeadingZeros64(limHi)
	for i := range bases {
		for {
			xLo := uint64(rng.Uint32()) | uint64(rng.Uint32())<<32
			xHi := (uint64(rng.Uint32()) | uint64(rng.Uint32())<<32) & mask
			if xHi < limHi || xHi == limHi && xLo < limLo {
				xLo, c := bits.Add64(xLo, 2, 0)
				bases[i] = [2]uint64{xHi + c, xLo}
				break
			}
		}
	}
	return bases
}

// sprp reports whether n is a strong probable prime to the base x·R mod n.
func (f field) sprp(xHi, xLo uint64) bool {
	return f.strongProbablePrime(f.oneHi, f.oneLo, func(aHi, aLo uint64) (uint64, uint64) {
		return f.mul(aHi, aLo, xHi, xLo)
	})
}

// lucas is math/big's almost extra strong Lucas test on n, which is not
// divisible by 3 (so n+1 fits the words): P from 3 upward until
// Jacobi(P²-4, n) = -1 (Baillie–OEIS method C), n+1 = s·2^r with s odd, and
// then V(s) ≡ ±2 with P·V(s) ≡ 2·V(s+1), or V(s·2^t) ≡ 0 for some t < r-1,
// where V is the Lucas sequence V(0) = 2, V(1) = P, V(k+1) = P·V(k) - V(k-1).
func (f field) lucas() bool {
	p := uint64(3)
	for ; ; p++ {
		if p > 10000 {
			panic("hprime: cannot find (D/n) = -1 for " + fromWords(f.hi, f.lo).String())
		}
		j := jacobi(p*p-4, f.hi, f.lo)
		if j == -1 {
			break
		}
		if j == 0 {
			return false // p+2 divides n and is smaller
		}
		if p == 40 { // a square n has no such P
			n := fromWords(f.hi, f.lo)
			root := new(big.Int).Sqrt(n)
			if root.Mul(root, root).Cmp(n) == 0 {
				return false
			}
		}
	}

	// Left to right over the bits of n+1, stopping above its r trailing
	// zeros, as strongProbablePrime walks n-1: from k = 0 up to k = s.
	eLo, c := bits.Add64(f.lo, 1, 0)
	eHi := f.hi + c
	r := trailingZeros(eHi, eLo)
	pHi, pLo := f.toMont(0, p)
	twoHi, twoLo := f.add(f.oneHi, f.oneLo, f.oneHi, f.oneLo)
	vHi, vLo, wHi, wLo := twoHi, twoLo, pHi, pLo // V(k), V(k+1)
	for i := 127; i >= r; i-- {
		// V(2k) = V(k)² - 2, V(2k+1) = V(k)·V(k+1) - P, V(2k+2) = V(k+1)² - 2.
		if eHi>>63 != 0 {
			vHi, vLo = f.mulSub(vHi, vLo, wHi, wLo, pHi, pLo)
			wHi, wLo = f.mulSub(wHi, wLo, wHi, wLo, twoHi, twoLo)
		} else {
			wHi, wLo = f.mulSub(vHi, vLo, wHi, wLo, pHi, pLo)
			vHi, vLo = f.mulSub(vHi, vLo, vHi, vLo, twoHi, twoLo)
		}
		eHi, eLo = eHi<<1|eLo>>63, eLo<<1
	}

	minusTwoHi, minusTwoLo := f.sub(0, 0, twoHi, twoLo)
	if vHi == twoHi && vLo == twoLo || vHi == minusTwoHi && vLo == minusTwoLo {
		// U(s) ≡ 0 exactly when P·V(s) ≡ 2·V(s+1).
		aHi, aLo := f.mul(vHi, vLo, pHi, pLo)
		bHi, bLo := f.add(wHi, wLo, wHi, wLo)
		if aHi == bHi && aLo == bLo {
			return true
		}
	}
	for t := 0; t < r-1; t++ {
		if vHi|vLo == 0 {
			return true
		}
		if vHi == twoHi && vLo == twoLo { // a fixed point of V(2k) = V(k)² - 2
			return false
		}
		vHi, vLo = f.mulSub(vHi, vLo, vHi, vLo, twoHi, twoLo)
	}
	return false
}

// jacobi returns the Jacobi symbol (a/n) for a > 0 and the odd n =
// hi·2^64 + lo. After the first reciprocity step the symbol is
// ((n mod a)/a), so the rest runs on single words.
func jacobi(a, hi, lo uint64) int {
	j := 1
	for a%2 == 0 { // (2/n) = -1 exactly when n ≡ 3, 5 mod 8
		a /= 2
		if lo%8 == 3 || lo%8 == 5 {
			j = -j
		}
	}
	if a%4 == 3 && lo%4 == 3 { // (a/n) = -(n/a) when both are 3 mod 4
		j = -j
	}
	x, m := bits.Rem64(hi, lo, a), a
	for x != 0 {
		for x%2 == 0 {
			x /= 2
			if m%8 == 3 || m%8 == 5 {
				j = -j
			}
		}
		x, m = m, x
		if x%4 == 3 && m%4 == 3 {
			j = -j
		}
		x %= m
	}
	if m != 1 {
		return 0
	}
	return j
}

// trailingZeros counts the trailing zero bits of hi·2^64 + lo, which is not
// zero.
func trailingZeros(hi, lo uint64) int {
	if lo == 0 {
		return 64 + bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(lo)
}

// HashConcat maps the concatenation of several parts to a prime without
// materialising the concatenation ambiguously: each part is length-prefixed
// so that distinct part sequences can never encode identically.
func HashConcat(parts ...[]byte) *big.Int {
	p, _ := HashConcatCount(parts...)
	return p
}

// HashConcatCount is HashConcat instrumented with the probe count.
func HashConcatCount(parts ...[]byte) (*big.Int, int) {
	h := sha256.New()
	for _, p := range parts {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(p)))
		h.Write(l[:])
		h.Write(p)
	}
	return HashCount(h.Sum(nil))
}
