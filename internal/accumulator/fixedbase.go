package accumulator

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// FixedBase is a Lim–Lee comb precomputation for repeated exponentiation of
// one fixed base: after a one-time table build (capBits squarings plus
// v·2^teeth multiplies), every Exp costs roughly capBits/teeth modular
// multiplies instead of the ~1.3·capBits squarings-plus-multiplies of an
// independent big.Int.Exp. It pays off when the same base (the generator g,
// or the current accumulation value during a bulk update) is raised to
// several large exponents.
//
// The exponent window is split into teeth·v combs: tooth j reads exponent
// bit j·a+k·b+t for column k and step t, so one table lookup per column
// folds `teeth` exponent bits at once. The tables hold Montgomery-form
// words and Exp multiplies them with montCtx.mul, converting the result out
// once at the end. Tables are immutable after construction, making a
// FixedBase safe for concurrent Exp calls.
type FixedBase struct {
	pp      *PublicParams
	base    *big.Int
	teeth   int // comb teeth h: exponent bits folded per table lookup
	v       int // columns: tables trading build time for eval multiplies
	a, b    int // bit strides: a = tooth spacing, b = column spacing
	capBits int
	mont    *montCtx
	// tables holds v·2^teeth entries of mont.n words each; entry k<<teeth|u
	// is Π_{j: bit j of u} base^(2^(j·a+k·b)) in Montgomery form (entry
	// u = 0 of each column is unused).
	tables []uint
}

// fixedBaseColumns is the column count v. Four columns quarter the
// squaring count of the evaluation loop at 4x the table build cost — the
// sweet spot measured on the quick-scale moduli.
const fixedBaseColumns = 4

// defaultTeeth picks the comb teeth for a capacity: wider combs amortize
// better but the table build pays v·2^teeth multiplies, so tiny capacities
// shrink the comb. Capped at 12 (16K table entries at v=4).
func defaultTeeth(capBits int) int {
	t := bits.Len(uint(capBits)) - 7 // ~log2(capBits)-7: build ≈ eval cost
	if t < 4 {
		t = 4
	}
	if t > 12 {
		t = 12
	}
	return t
}

// NewFixedBase builds a comb table for base covering exponents of up to
// capBits bits. teeth <= 0 selects a size-appropriate default. The base is
// not mutated and must lie in [1, N); N must be odd, as an RSA modulus or
// an odd prime is, because the table is kept in Montgomery form.
func (pp *PublicParams) NewFixedBase(base *big.Int, capBits, teeth int) (*FixedBase, error) {
	if base == nil || base.Sign() <= 0 || base.Cmp(pp.N) >= 0 {
		return nil, fmt.Errorf("accumulator: fixed base outside [1, N)")
	}
	if capBits < 1 {
		return nil, fmt.Errorf("accumulator: fixed-base capacity %d bits invalid", capBits)
	}
	if teeth <= 0 {
		teeth = defaultTeeth(capBits)
	}
	if teeth > 20 {
		return nil, fmt.Errorf("accumulator: %d comb teeth would need a %d-entry table", teeth, fixedBaseColumns<<teeth)
	}
	mont, err := newMontCtx(pp.N)
	if err != nil {
		return nil, err
	}
	h, v := teeth, fixedBaseColumns
	a := (capBits + h - 1) / h
	b := (a + v - 1) / v
	a = b * v // round the tooth stride up to a whole number of columns
	fb := &FixedBase{pp: pp, base: new(big.Int).Set(base), teeth: h, v: v, a: a, b: b, capBits: a * h, mont: mont}
	fb.tables = make([]uint, (v<<h)*mont.n)

	// Anchors base^(2^(j·a+k·b)) are a pure squaring chain; big.Int.Exp with
	// a power-of-two exponent runs it at internal (Montgomery) speed. Each
	// lands in its single-tooth entry u = 2^j of column k.
	cur := new(big.Int).Set(base)
	shift := new(big.Int).Lsh(one, uint(b))
	for m := 0; m < h*v; m++ {
		k, j := m%v, m/v
		mont.toMont(fb.entry(k, 1<<j), cur)
		if m < h*v-1 {
			cur.Exp(cur, shift, pp.N)
		}
	}

	// Each other entry extends the entry with its lowest set bit cleared by
	// one anchor multiply, so the 2^h-entry table costs 2^h multiplies.
	t := make([]uint, mont.n+1)
	for k := 0; k < v; k++ {
		for u := 1; u < 1<<h; u++ {
			if low := u & -u; low != u {
				mont.mul(fb.entry(k, u), fb.entry(k, u^low), fb.entry(k, low), t)
			}
		}
	}
	return fb, nil
}

// entry returns the table entry for column k and tooth pattern u.
func (fb *FixedBase) entry(k, u int) []uint {
	i := (k<<fb.teeth | u) * fb.mont.n
	return fb.tables[i : i+fb.mont.n : i+fb.mont.n]
}

// CapBits reports the largest exponent bit length the table covers.
func (fb *FixedBase) CapBits() int { return fb.capBits }

// Base returns a copy of the fixed base.
func (fb *FixedBase) Base() *big.Int { return new(big.Int).Set(fb.base) }

// Exp computes base^e mod N. Exponents beyond the table capacity (or
// negative ones) fall back to big.Int.Exp on the stored base, so the result
// is always defined and identical to the naive path. Safe for concurrent
// use.
func (fb *FixedBase) Exp(e *big.Int) *big.Int {
	if e.Sign() < 0 || e.BitLen() > fb.capBits {
		return new(big.Int).Exp(fb.base, e, fb.pp.N)
	}
	if e.Sign() == 0 {
		return big.NewInt(1)
	}
	n := fb.mont.n
	scratch := make([]uint, 2*n+1)
	r, tmp := scratch[:n:n], scratch[n:]
	started := false
	ew := e.Bits()
	bitAt := func(i int) uint {
		wi := i / bits.UintSize
		if wi >= len(ew) {
			return 0
		}
		return uint(ew[wi]>>(uint(i)%bits.UintSize)) & 1
	}
	for t := fb.b - 1; t >= 0; t-- {
		if started {
			fb.mont.mul(r, r, r, tmp)
		}
		for k := 0; k < fb.v; k++ {
			u := 0
			for j := 0; j < fb.teeth; j++ {
				u |= int(bitAt(j*fb.a+k*fb.b+t)) << j
			}
			if u == 0 {
				continue
			}
			if !started {
				copy(r, fb.entry(k, u))
				started = true
				continue
			}
			fb.mont.mul(r, r, fb.entry(k, u), tmp)
		}
	}
	return fb.mont.fromMont(r, tmp)
}

// montCtx is Montgomery arithmetic modulo an odd m of n words, with
// R = 2^(n·W) for the word width W. Values are n little-endian words below
// m, the limb order of big.Word. A montCtx is immutable after construction.
type montCtx struct {
	mod   *big.Int
	m     []uint // the words of mod
	n     int
	m0inv uint // −m⁻¹ mod 2^W
}

func newMontCtx(mod *big.Int) (*montCtx, error) {
	if mod.Bit(0) == 0 {
		return nil, errors.New("accumulator: Montgomery form needs an odd modulus")
	}
	mw := mod.Bits()
	mc := &montCtx{mod: mod, m: make([]uint, len(mw)), n: len(mw)}
	for i, w := range mw {
		mc.m[i] = uint(w)
	}
	// Newton's iteration for m[0]⁻¹ mod 2^W: an odd x is its own inverse
	// mod 8, and each step doubles the correct low bits (3, 6, …, 96).
	inv := mc.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - mc.m[0]*inv
	}
	mc.m0inv = -inv
	return mc, nil
}

// toMont sets z = x·R mod m for 0 ≤ x < m.
func (mc *montCtx) toMont(z []uint, x *big.Int) {
	xr := new(big.Int).Lsh(x, uint(mc.n*bits.UintSize))
	xr.Mod(xr, mc.mod)
	clear(z)
	for i, w := range xr.Bits() {
		z[i] = uint(w)
	}
}

// fromMont returns x·R⁻¹ mod m as a fresh big.Int; t is mul's scratch.
func (mc *montCtx) fromMont(x, t []uint) *big.Int {
	unit := make([]uint, mc.n)
	unit[0] = 1
	mc.mul(unit, x, unit, t)
	out := make([]big.Word, mc.n)
	for i, w := range unit {
		out[i] = big.Word(w)
	}
	return new(big.Int).SetBits(out)
}

// mul sets z = x·y·R⁻¹ mod m by coarsely integrated operand scanning
// (CIOS, Koç–Acar–Kaliski 1996) with its two inner loops fused: per word
// of y, one pass adds x·y[i] and the multiple q·m that clears the low word
// to the running sum and shifts that word out. x, y and z are n words
// below m and z may alias either; t is n+1 words of scratch.
func (mc *montCtx) mul(z, x, y, t []uint) {
	n := mc.n
	m, x, y, t := mc.m[:n], x[:n], y[:n], t[:n+1]
	clear(t)
	low := t[:n] // the words the inner loop touches, sized for the prover
	for _, yi := range y {
		hi, u0 := bits.Mul(x[0], yi)
		u0, c := bits.Add(u0, t[0], 0)
		c1 := hi + c
		q := u0 * mc.m0inv
		hi, lo := bits.Mul(m[0], q)
		_, c = bits.Add(lo, u0, 0)
		c2 := hi + c
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul(x[j], yi)
			lo, c = bits.Add(lo, low[j], 0)
			hi += c
			lo, c = bits.Add(lo, c1, 0)
			c1 = hi + c
			hi, lo2 := bits.Mul(m[j], q)
			lo, c = bits.Add(lo, lo2, 0)
			hi += c
			low[j-1], c = bits.Add(lo, c2, 0)
			c2 = hi + c
		}
		var c3 uint
		t[n-1], c = bits.Add(t[n], c1, 0)
		t[n-1], c3 = bits.Add(t[n-1], c2, 0)
		t[n] = c + c3
	}
	// The sum is below 2m: subtract m once if it is not below m.
	if t[n] != 0 || !wordsLess(t[:n], m) {
		var b uint
		for j := range m {
			t[j], b = bits.Sub(t[j], m[j], b)
		}
	}
	copy(z[:n], t[:n])
}

// wordsLess reports x < y for equal-length little-endian word strings.
func wordsLess(x, y []uint) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// Fold returns w^P mod N for a w with w^x ≡ base (mod N), given a comb fb
// over base. Writing P = ⌊P/x⌋·x + (P mod x),
//
//	w^P = (w^x)^⌊P/x⌋ · w^(P mod x) = base^⌊P/x⌋ · w^(P mod x)  (mod N)
//
// holds exactly, so the long exponent runs on the comb and only the
// remainder, shorter than x, on w. A membership witness of x against base
// absorbs a batch of new primes with product P this way: base is the
// accumulation value before the batch and fb that batch's comb. A quotient
// past fb's capacity falls back to Exp like any other exponent.
func Fold(fb *FixedBase, w, x, p *big.Int) *big.Int {
	q, r := new(big.Int).QuoRem(p, x, new(big.Int))
	out := fb.Exp(q)
	out.Mul(out, r.Exp(w, r, fb.pp.N))
	return out.Mod(out, fb.pp.N)
}
