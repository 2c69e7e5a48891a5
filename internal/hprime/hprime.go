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
// large builds have hundreds of thousands of keywords), so composites are
// first discarded by an incremental trial-division sieve: the candidate's
// residues modulo all small primes are computed once and advanced by +2 per
// probe in machine words. A sieve survivor then takes a strong-probable-prime
// test to base 2, also in machine words (sprp2): failing it proves the
// candidate composite, and math/big's ProbablyPrime runs the same round
// first, so only what ProbablyPrime would reject is rejected. Acceptance is
// still ProbablyPrime's alone, which in effect runs once per prime instead of
// once per survivor.
package hprime

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
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
	cand := fromWords(hi, lo)

	// Seed the incremental residue table with word arithmetic (the running
	// remainder is < p, as bits.Rem64 requires). A big.Int division per sieve
	// prime here would cost more than the primality tests the sieve saves.
	var residues [len(smallPrimes)]uint64 // ranged over as slices: ranging over an array copies it
	for i, p := range smallPrimes[:] {
		residues[i] = bits.Rem64(hi%p, lo, p)
	}

	two := big.NewInt(2)
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
		// hi's top bit is clear only once the probes have carried past 2^128:
		// the words no longer hold cand and the filter steps aside.
		if !smooth && (hi>>63 == 0 || sprp2(hi, lo)) && cand.ProbablyPrime(millerRabinRounds) {
			return cand, probes
		}
		cand.Add(cand, two)
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
// strong probable prime to base 2: with n-1 = d·2^s and d odd, whether
// 2^d = ±1 or 2^(d·2^r) = -1 (mod n) for some 0 < r < s. Every prime is; a
// number that is not has been proven composite. It computes in Montgomery
// form with R = 2^128 on machine words and allocates nothing.
func sprp2(hi, lo uint64) bool {
	n := newModulus(hi, lo)

	// R mod n = 2^128 - n, because 2^127 <= n; n is odd, so no borrow.
	oneHi, oneLo := ^hi, -lo
	minusLo, borrow := bits.Sub64(lo, oneLo, 0)
	minusHi, _ := bits.Sub64(hi, oneHi, borrow)

	// Left to right over the bits of n-1 = hi·2^64 + (lo-1), stopping above
	// its s trailing zeros: square, and double where the bit is set, since
	// multiplying by the base 2 is a doubling.
	eHi, eLo := hi, lo-1
	s := bits.TrailingZeros64(eLo)
	if eLo == 0 {
		s = 64 + bits.TrailingZeros64(eHi)
	}
	xHi, xLo := oneHi, oneLo
	for i := 127; i >= s; i-- {
		xHi, xLo = n.square(xHi, xLo)
		if eHi>>63 != 0 {
			xHi, xLo = n.reduce(xHi>>63, xHi<<1|xLo>>63, xLo<<1)
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

// Marshal serializes a prime representative at fixed width.
func Marshal(p *big.Int) ([]byte, error) {
	if p.BitLen() > PrimeBits {
		return nil, fmt.Errorf("hprime: prime of %d bits exceeds representative width", p.BitLen())
	}
	return p.FillBytes(make([]byte, PrimeBytes)), nil
}

// Unmarshal parses a fixed-width prime representative. It verifies primality
// so corrupted accumulator inputs are rejected early.
func Unmarshal(data []byte) (*big.Int, error) {
	if len(data) != PrimeBytes {
		return nil, fmt.Errorf("hprime: representative must be %d bytes, got %d", PrimeBytes, len(data))
	}
	p := new(big.Int).SetBytes(data)
	if !p.ProbablyPrime(millerRabinRounds) {
		return nil, fmt.Errorf("hprime: %v is not prime", p)
	}
	return p, nil
}
