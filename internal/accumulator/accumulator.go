// Package accumulator implements the RSA accumulator (Li–Li–Xue style, the
// construction cited by Slicer) used as the authenticated data structure.
//
// The accumulator commits to a set X of prime numbers as
//
//	Ac = g^(Π_{x∈X} x) mod n
//
// for an RSA modulus n and a generator g of QR_n. Membership of x is proved
// with the constant-size witness mw = g^(Π X / x) mod n, verified by
// checking mw^x ≡ Ac (mod n). Forging a witness for a non-member breaks the
// strong RSA assumption.
//
// The data owner runs Setup and therefore knows φ(n); the package exposes a
// fast accumulation path that reduces the exponent mod φ(n) (owner only)
// alongside the public iterative path (cloud / verifier). Witnesses for all
// members at once are computed by the owner with the trapdoor (Witnesses:
// two half-width modexps each) or by anyone with the O(|X| log |X|)
// RootFactor algorithm; both return the same values.
package accumulator

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"slicer/internal/chunkio"
)

// DefaultModulusBits is the default accumulator modulus size; 1024 bits
// mirrors the lightweight benchmark setting, production should use >= 2048.
const DefaultModulusBits = 1024

// ErrNotMember is returned by MemWit when the requested member is not in
// the accumulated set; callers branch on it with errors.Is.
var ErrNotMember = errors.New("accumulator: not in the accumulated set")

// aggThreshold is the prime count from which the public accumulate/witness
// paths aggregate the exponents into one product-tree product and perform a
// single large-exponent modexp instead of per-prime 128-bit modexps. The
// total squaring count is identical, but one call amortizes the per-Exp
// setup (window table, Montgomery conversion) that otherwise repeats |X|
// times; the crossover was measured with BenchmarkAccumulatePublic.
const aggThreshold = 8

var one = big.NewInt(1)

// PublicParams is everything needed to accumulate, produce witnesses and
// verify membership. It is safe to hand to untrusted parties.
type PublicParams struct {
	N *big.Int // RSA modulus
	G *big.Int // generator of QR_n
}

// Params additionally holds the factorization trapdoor, kept by the data
// owner for fast accumulation.
type Params struct {
	PublicParams
	phi *big.Int // φ(n), nil for public-only instances
}

// Setup generates accumulator parameters with a modulus of the given bit
// length. Following common practice the modulus is a product of two random
// primes; use SetupSafe for strict safe-prime moduli.
func Setup(bits int) (*Params, error) {
	return setup(bits, false)
}

// SetupSafe generates parameters whose modulus is a product of safe primes
// (p = 2p'+1 with p' prime), matching the paper's Setup definition exactly.
// Safe-prime generation is substantially slower.
func SetupSafe(bits int) (*Params, error) {
	return setup(bits, true)
}

func setup(bits int, safe bool) (*Params, error) {
	if bits < 64 {
		return nil, fmt.Errorf("accumulator: modulus of %d bits is too small", bits)
	}
	var p, q *big.Int
	for {
		var err error
		p, err = genPrime(bits/2, safe)
		if err != nil {
			return nil, fmt.Errorf("sample p: %w", err)
		}
		q, err = genPrime(bits-bits/2, safe)
		if err != nil {
			return nil, fmt.Errorf("sample q: %w", err)
		}
		if p.Cmp(q) != 0 {
			break
		}
		// p == q would leak the factorization (n = p²); resample. A loop, not
		// recursion: tiny moduli collide often enough to overflow the stack.
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	phi := new(big.Int).Mul(pm1, qm1)

	// Pick g in QR_n \ {1}: square a random element.
	for {
		a, err := rand.Int(rand.Reader, n)
		if err != nil {
			return nil, fmt.Errorf("sample generator: %w", err)
		}
		g := new(big.Int).Mul(a, a)
		g.Mod(g, n)
		if g.Cmp(one) > 0 {
			return &Params{PublicParams: PublicParams{N: n, G: g}, phi: phi}, nil
		}
	}
}

func genPrime(bits int, safe bool) (*big.Int, error) {
	if !safe {
		return rand.Prime(rand.Reader, bits)
	}
	two := big.NewInt(2)
	for {
		pp, err := rand.Prime(rand.Reader, bits-1)
		if err != nil {
			return nil, err
		}
		p := new(big.Int).Mul(pp, two)
		p.Add(p, one)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// Public strips the factorization trapdoor for handing to clouds/verifiers.
func (p *Params) Public() *PublicParams {
	return &PublicParams{N: p.N, G: p.G}
}

// HasTrapdoor reports whether the fast owner-side path is available.
func (p *Params) HasTrapdoor() bool { return p.phi != nil }

// Accumulate computes g^(Πx) mod n. Anyone can run it. Large sets take the
// aggregated path — one product-tree multiply and a single large-exponent
// modexp — which returns the same value as iterated exponentiation
// (exponentiation composes: (g^a)^b = g^(ab)). Inputs are never mutated and
// the result is freshly allocated.
func (pp *PublicParams) Accumulate(primes []*big.Int) *big.Int {
	return pp.Add(pp.G, primes)
}

// Add incrementally extends an accumulation value with more primes:
// Ac' = Ac^(Πx⁺) mod n. Mathematically identical to re-accumulating the
// union. Neither ac nor primes is mutated; the result is freshly allocated.
func (pp *PublicParams) Add(ac *big.Int, primes []*big.Int) *big.Int {
	if len(primes) >= aggThreshold {
		e := getInt()
		productTree(e, primes)
		out := new(big.Int).Exp(ac, e, pp.N)
		putInt(e)
		return out
	}
	out := new(big.Int).Set(ac)
	for _, x := range primes {
		out.Exp(out, x, pp.N)
	}
	return out
}

// AccumulateFast computes the same value as Accumulate but reduces the
// combined exponent modulo φ(n) first, turning |X| modexps into one. Only
// the party that ran Setup can call it.
func (p *Params) AccumulateFast(primes []*big.Int) (*big.Int, error) {
	if p.phi == nil {
		return nil, errors.New("accumulator: fast path requires the factorization trapdoor")
	}
	e := new(big.Int).Set(one)
	for _, x := range primes {
		e.Mul(e, x)
		e.Mod(e, p.phi)
	}
	return new(big.Int).Exp(p.G, e, p.N), nil
}

// AddFast incrementally extends an accumulation value like Add, but reduces
// the combined new exponent mod φ(n) first (one modexp total). Owner only.
func (p *Params) AddFast(ac *big.Int, primes []*big.Int) (*big.Int, error) {
	if p.phi == nil {
		return nil, errors.New("accumulator: fast path requires the factorization trapdoor")
	}
	e := new(big.Int).Set(one)
	for _, x := range primes {
		e.Mul(e, x)
		e.Mod(e, p.phi)
	}
	return new(big.Int).Exp(ac, e, p.N), nil
}

// Witnesses returns a function that computes the membership witness of
// primes[i], the value RootFactor(primes)[i] is, from the factorization
// trapdoor (owner only). It recovers p and q from (n, φ(n)) once and
// reduces every E_i = Π_{j≠i} x_j modulo p−1 and q−1 from prefix and suffix
// products, so each witness is two half-width exponentiations, g^E_i mod p
// and mod q, joined by Garner's CRT step. No inverse is taken, so a prime
// dividing p−1 or q−1 needs no special case. The function is safe for
// concurrent use; primes must not change while it is. g must be a unit mod
// n, as Setup's is.
func (p *Params) Witnesses(primes []*big.Int) (func(i int) *big.Int, error) {
	if p.phi == nil {
		return nil, errors.New("accumulator: witnesses require the factorization trapdoor")
	}
	// p + q = n − φ + 1 = s and p − q = √(s² − 4n).
	s := new(big.Int).Sub(p.N, p.phi)
	s.Add(s, one)
	d := new(big.Int).Mul(s, s)
	d.Sub(d, new(big.Int).Lsh(p.N, 2))
	if d.Sign() >= 0 {
		d.Sqrt(d)
	}
	fp := new(big.Int).Rsh(new(big.Int).Add(s, d), 1)
	fq := new(big.Int).Rsh(new(big.Int).Sub(s, d), 1)
	qInv := new(big.Int)
	if d.Sign() < 0 || fq.Cmp(one) <= 0 || new(big.Int).Mul(fp, fq).Cmp(p.N) != 0 ||
		qInv.ModInverse(fq, fp) == nil {
		return nil, errors.New("accumulator: φ(n) does not factor n")
	}
	expP, err := crtHalf(fp, p.G, primes)
	if err != nil {
		return nil, err
	}
	expQ, err := crtHalf(fq, p.G, primes)
	if err != nil {
		return nil, err
	}
	return func(i int) *big.Int {
		wp, wq := expP(i), expQ(i)
		// The one value below n that is wp mod p and wq mod q.
		wp.Sub(wp, wq).Mul(wp, qInv).Mod(wp, fp)
		return wp.Mul(wp, fq).Add(wp, wq)
	}, nil
}

// witnessCombTeeth is the comb width over g mod p and g mod q. A whole
// witness set exponentiates each base |X| times, so a wider table than the
// capacity-based default pays: 8 teeth took 0.43 s for 8,192 witnesses at
// 512 bits where the default 4 took 0.59 s (BenchmarkWitnesses).
const witnessCombTeeth = 8

// crtHalf returns i ↦ g^E_i mod f for a prime factor f of n, where E_i is
// Π_{j≠i} x_j reduced mod f−1 (by Fermat the power is the same). The E_i
// sit in one flat word array, k words each, rather than in |X| big.Ints,
// and the powers come from a comb over g mod f: together they cut the
// garbage of a witness set about sixfold (BenchmarkWitnesses, B/op).
func crtHalf(f, g *big.Int, primes []*big.Int) (func(i int) *big.Int, error) {
	m := new(big.Int).Sub(f, one)
	k := len(m.Bits())
	flat := make([]big.Word, len(primes)*k)
	slot := func(i int) []big.Word { return flat[i*k : (i+1)*k : (i+1)*k] }
	mc := modCtx{n: m}
	acc, r := big.NewInt(1), new(big.Int)
	for i, x := range primes { // slot i = Π_{j<i} x_j mod m
		copy(slot(i), acc.Bits())
		mc.mul(acc, acc, x)
	}
	acc.SetInt64(1)
	var pre big.Int
	for i := len(primes) - 1; i >= 0; i-- { // times Π_{j>i} x_j
		s := slot(i)
		mc.mul(r, pre.SetBits(s), acc)
		clear(s[copy(s, r.Bits()):])
		mc.mul(acc, acc, primes[i])
	}
	gf := new(big.Int).Mod(g, f)
	fb, err := (&PublicParams{N: f, G: gf}).NewFixedBase(gf, m.BitLen(), witnessCombTeeth)
	if err != nil {
		return nil, err
	}
	return func(i int) *big.Int {
		var e big.Int
		return fb.Exp(e.SetBits(slot(i)))
	}, nil
}

// MemWit computes the membership witness for member: g raised to the
// product of every accumulated prime except one occurrence of member. It
// returns an error wrapping ErrNotMember when member is absent. Membership
// is decided by exact equality against the list (never by divisibility, so
// a composite "member" cannot fake its way in). Large sets aggregate the
// remaining exponents into one product-tree modexp; clouds serving many
// queries over one set should prefer a WitnessTree, which amortizes shared
// work across queries. Inputs are never mutated.
func (pp *PublicParams) MemWit(primes []*big.Int, member *big.Int) (*big.Int, error) {
	idx := -1
	for i, x := range primes {
		if x.Cmp(member) == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("%w: %v", ErrNotMember, member)
	}
	if len(primes) >= aggThreshold {
		e, r := getInt(), getInt()
		productTree(e, primes[:idx])
		productTree(r, primes[idx+1:])
		e.Mul(e, r)
		w := new(big.Int).Exp(pp.G, e, pp.N)
		putInt(e, r)
		return w, nil
	}
	w := new(big.Int).Set(pp.G)
	for i, x := range primes {
		if i == idx {
			continue
		}
		w.Exp(w, x, pp.N)
	}
	return w, nil
}

// VerifyMem checks a membership witness: mw^x ≡ Ac (mod n).
func (pp *PublicParams) VerifyMem(ac, member, witness *big.Int) bool {
	if witness == nil || member == nil || ac == nil {
		return false
	}
	if witness.Sign() <= 0 || witness.Cmp(pp.N) >= 0 {
		return false
	}
	got := new(big.Int).Exp(witness, member, pp.N)
	return got.Cmp(ac) == 0
}

// RootFactor computes the membership witnesses for every element of primes
// in O(|X| log |X|) modexps (Sander–Ta-Shma–Yung). witnesses[i] proves
// primes[i].
func (pp *PublicParams) RootFactor(primes []*big.Int) []*big.Int {
	return pp.RootFactorParallel(primes, 1)
}

// RootFactorParallel is RootFactor fanned out over up to workers
// goroutines: the recursion's two independent subtrees run concurrently
// until the worker budget is spent. workers <= 1 runs serially; larger
// values are capped by runtime.GOMAXPROCS(0). Output is identical to
// RootFactor.
func (pp *PublicParams) RootFactorParallel(primes []*big.Int, workers int) []*big.Int {
	if len(primes) == 0 {
		return nil
	}
	if maxW := runtime.GOMAXPROCS(0); workers > maxW {
		workers = maxW
	}
	out := make([]*big.Int, len(primes))
	pp.rootFactor(new(big.Int).Set(pp.G), primes, out, workers)
	return out
}

// rootFactor fills out[i] with the witness for primes[i]; out aliases the
// caller's slice so concurrent subtrees write disjoint halves.
func (pp *PublicParams) rootFactor(base *big.Int, primes []*big.Int, out []*big.Int, workers int) {
	if len(primes) == 1 {
		out[0] = base
		return
	}
	mid := len(primes) / 2
	left, right := primes[:mid], primes[mid:]
	baseR := new(big.Int).Set(base)
	for _, x := range left {
		baseR.Exp(baseR, x, pp.N)
	}
	baseL := base
	for _, x := range right {
		baseL.Exp(baseL, x, pp.N)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			pp.rootFactor(baseR, right, out[mid:], workers/2)
		}()
		pp.rootFactor(baseL, left, out[:mid], workers-workers/2)
		wg.Wait()
		return
	}
	pp.rootFactor(baseL, left, out[:mid], 1)
	pp.rootFactor(baseR, right, out[mid:], 1)
}

// MarshalSecret serializes the full parameters including φ(n) for
// owner-state persistence. Treat the output as sensitive material.
func (p *Params) MarshalSecret() ([]byte, error) {
	if p.phi == nil {
		return nil, errors.New("accumulator: no trapdoor to serialize")
	}
	out := chunkio.Append(nil, p.N.Bytes())
	out = chunkio.Append(out, p.G.Bytes())
	return chunkio.Append(out, p.phi.Bytes()), nil
}

// UnmarshalSecret parses parameters produced by MarshalSecret.
func UnmarshalSecret(data []byte) (*Params, error) {
	nb, rest, err := chunkio.Read(data)
	if err != nil {
		return nil, fmt.Errorf("accumulator: parse modulus: %w", err)
	}
	gb, rest, err := chunkio.Read(rest)
	if err != nil {
		return nil, fmt.Errorf("accumulator: parse generator: %w", err)
	}
	pb, _, err := chunkio.Read(rest)
	if err != nil {
		return nil, fmt.Errorf("accumulator: parse phi: %w", err)
	}
	p := &Params{
		PublicParams: PublicParams{N: new(big.Int).SetBytes(nb), G: new(big.Int).SetBytes(gb)},
		phi:          new(big.Int).SetBytes(pb),
	}
	if p.N.Sign() <= 0 || p.G.Sign() <= 0 || p.phi.Sign() <= 0 {
		return nil, errors.New("accumulator: invalid secret parameter encoding")
	}
	return p, nil
}

// Marshal serializes public parameters.
func (pp *PublicParams) Marshal() []byte {
	nb, gb := pp.N.Bytes(), pp.G.Bytes()
	out := make([]byte, 0, 8+len(nb)+len(gb))
	out = chunkio.Append(out, nb)
	out = chunkio.Append(out, gb)
	return out
}

// UnmarshalPublic parses parameters produced by Marshal.
func UnmarshalPublic(data []byte) (*PublicParams, error) {
	nb, rest, err := chunkio.Read(data)
	if err != nil {
		return nil, fmt.Errorf("accumulator: parse modulus: %w", err)
	}
	gb, _, err := chunkio.Read(rest)
	if err != nil {
		return nil, fmt.Errorf("accumulator: parse generator: %w", err)
	}
	pp := &PublicParams{N: new(big.Int).SetBytes(nb), G: new(big.Int).SetBytes(gb)}
	if pp.N.Sign() <= 0 || pp.G.Sign() <= 0 || pp.G.Cmp(pp.N) >= 0 {
		return nil, errors.New("accumulator: invalid parameter encoding")
	}
	return pp, nil
}

// Size returns the byte width of accumulator values and witnesses.
func (pp *PublicParams) Size() int { return (pp.N.BitLen() + 7) / 8 }

// EncodeValue serializes an accumulator value or witness at fixed width.
func (pp *PublicParams) EncodeValue(v *big.Int) []byte {
	return v.FillBytes(make([]byte, pp.Size()))
}

// PackValues lays big-endian values side by side at Size() bytes each, the
// form a whole witness set travels and is checked in. A value wider than
// Size() is an error.
func (pp *PublicParams) PackValues(vals [][]byte) ([]byte, error) {
	size := pp.Size()
	out := make([]byte, len(vals)*size)
	for i, v := range vals {
		if len(v) > size {
			return nil, fmt.Errorf("accumulator: value %d is %d bytes, wider than %d", i, len(v), size)
		}
		copy(out[(i+1)*size-len(v):], v)
	}
	return out, nil
}

// DecodeValue parses a fixed-width accumulator value or witness.
func (pp *PublicParams) DecodeValue(data []byte) (*big.Int, error) {
	if len(data) != pp.Size() {
		return nil, fmt.Errorf("accumulator: value must be %d bytes, got %d", pp.Size(), len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Sign() <= 0 || v.Cmp(pp.N) >= 0 {
		return nil, errors.New("accumulator: value outside Z_n*")
	}
	return v, nil
}
