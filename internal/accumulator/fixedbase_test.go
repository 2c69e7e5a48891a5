package accumulator

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"slicer/internal/hprime"
)

// oracleFixedBase is the comb as it was before its tables moved to
// Montgomery form: *big.Int tables, multiplied with Mul and QuoRem
// (modCtx). It shares FixedBase's geometry, so the two must agree on every
// exponent within capacity.
type oracleFixedBase struct {
	n              *big.Int
	teeth, v, a, b int
	tables         [][]*big.Int
}

func newOracleFixedBase(n, base *big.Int, capBits, teeth int) *oracleFixedBase {
	if teeth <= 0 {
		teeth = defaultTeeth(capBits)
	}
	h, v := teeth, fixedBaseColumns
	a := (capBits + h - 1) / h
	b := (a + v - 1) / v
	a = b * v
	o := &oracleFixedBase{n: n, teeth: h, v: v, a: a, b: b}
	anchors := make([][]*big.Int, v)
	for k := range anchors {
		anchors[k] = make([]*big.Int, h)
	}
	cur := new(big.Int).Set(base)
	shift := new(big.Int).Lsh(one, uint(b))
	for m := 0; m < h*v; m++ {
		anchors[m%v][m/v] = new(big.Int).Set(cur)
		cur.Exp(cur, shift, n)
	}
	mc := modCtx{n: n}
	o.tables = make([][]*big.Int, v)
	for k := range o.tables {
		tab := make([]*big.Int, 1<<h)
		for u := 1; u < 1<<h; u++ {
			low := u & -u
			j := bits.TrailingZeros(uint(low))
			if u == low {
				tab[u] = anchors[k][j]
				continue
			}
			tab[u] = new(big.Int)
			mc.mul(tab[u], tab[u^low], anchors[k][j])
		}
		o.tables[k] = tab
	}
	return o
}

func (o *oracleFixedBase) exp(e *big.Int) *big.Int {
	mc := modCtx{n: o.n}
	r := big.NewInt(1)
	for t := o.b - 1; t >= 0; t-- {
		mc.mul(r, r, r)
		for k := 0; k < o.v; k++ {
			u := 0
			for j := 0; j < o.teeth; j++ {
				u |= int(e.Bit(j*o.a+k*o.b+t)) << j
			}
			if u != 0 {
				mc.mul(r, r, o.tables[k][u])
			}
		}
	}
	return r.Mod(r, o.n)
}

func TestNewFixedBaseRejectsEvenModulus(t *testing.T) {
	for _, n := range []int64{2, 4, 1 << 40, 1<<62 + 2} {
		pp := &PublicParams{N: big.NewInt(n), G: big.NewInt(1)}
		if _, err := pp.NewFixedBase(big.NewInt(1), 64, 0); err == nil {
			t.Fatalf("comb built over the even modulus %d", n)
		}
	}
}

// FuzzFixedBaseMatchesExp builds a comb over an odd modulus of 1 to 32
// words taken from the input (all-ones, single-high-word and prime-power
// moduli included) and holds Exp to big.Int.Exp and to the Mul-and-QuoRem oracle
// at exponents 0, 1, 3, just below, at and past the capacity.
func FuzzFixedBaseMatchesExp(f *testing.F) {
	ones := func(words int) []byte {
		b := make([]byte, words*8)
		for i := range b {
			b[i] = 0xff
		}
		return b
	}
	f.Add([]byte{3}, []byte{2}, uint16(1), uint8(0), int64(1))
	f.Add(ones(1), []byte{0xfe}, uint16(200), uint8(4), int64(2))
	f.Add(ones(32), ones(31), uint16(700), uint8(0), int64(3))
	f.Add(append([]byte{1}, make([]byte, 39)...), []byte("base"), uint16(2100), uint8(6), int64(4))
	f.Add([]byte("a 128-bit modulus"), []byte("any base"), uint16(8704), uint8(0), int64(5))
	// 3^3 ≡ 0 (mod 27) from two nonzero table words: a multiply that left
	// its result in [m, R) would return m for it.
	f.Add([]byte{27}, []byte{3}, uint16(64), uint8(0), int64(6))
	f.Fuzz(func(t *testing.T, modBytes, baseBytes []byte, capBits uint16, teeth uint8, seed int64) {
		if len(modBytes) > 32*8 {
			modBytes = modBytes[:32*8]
		}
		n := new(big.Int).SetBytes(modBytes)
		n.SetBit(n, 0, 1)
		if n.Cmp(big.NewInt(3)) < 0 {
			t.Skip("modulus below 3")
		}
		base := new(big.Int).SetBytes(baseBytes)
		if base.Mod(base, n).Sign() == 0 {
			base.SetInt64(1)
		}
		capacity, h := int(capBits%9000)+1, int(teeth%9)
		fb, err := (&PublicParams{N: n, G: base}).NewFixedBase(base, capacity, h)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newOracleFixedBase(n, base, capacity, h)
		rng := rand.New(rand.NewSource(seed))
		c := fb.CapBits()
		exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(3), randBits(rng, max(c-1, 1)), randBits(rng, c),
			new(big.Int).Sub(new(big.Int).Lsh(one, uint(c)), one), randBits(rng, c+1)}
		for i, e := range exps {
			want := new(big.Int).Exp(base, e, n)
			if got := fb.Exp(e); got.Cmp(want) != 0 {
				t.Fatalf("exponent %d (%d bits, capacity %d): comb %x, Exp %x", i, e.BitLen(), c, got, want)
			}
			if e.BitLen() <= c {
				if got := oracle.exp(e); got.Cmp(want) != 0 {
					t.Fatalf("exponent %d: oracle %x, Exp %x", i, got, want)
				}
			}
		}
	})
}

// TestFoldMatchesExp holds Fold to w^P by big.Int.Exp for a product of
// primes that does not contain x, one that does (remainder 0), one below x
// (quotient 0) and one past the comb's capacity.
func TestFoldMatchesExp(t *testing.T) {
	pp := fpSetup(t).Public()
	x := hprime.Hash([]byte("fold-x"))
	w := new(big.Int).Mod(hprime.Hash([]byte("fold-w")), pp.N)
	base := new(big.Int).Exp(w, x, pp.N)
	batch := fpPrimes(68, "fold")
	fb, err := pp.NewFixedBase(base, len(batch)*hprime.PrimeBits, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*big.Int{
		Product(batch),
		Product(append([]*big.Int{x}, batch[1:]...)),
		big.NewInt(65537),
		Product(fpPrimes(100, "fold-over")),
	} {
		want := new(big.Int).Exp(w, p, pp.N)
		if got := Fold(fb, w, x, p); got.Cmp(want) != 0 {
			t.Fatalf("%d-bit product: Fold diverges from Exp", p.BitLen())
		}
	}
}

// BenchmarkFold times one witness absorbing one 68-prime batch, the
// churn-durable insert: directly (one Exp by the ~8.7 kbit product)
// against Fold through the batch's comb, with the comb's build on its own.
func BenchmarkFold(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		pp := witSetup(b, bits).Public()
		x := hprime.Hash([]byte("bench-fold-x"))
		w := new(big.Int).Mod(hprime.Hash([]byte("bench-fold-w")), pp.N)
		base := new(big.Int).Exp(w, x, pp.N)
		batch := fpPrimes(68, "bench-fold")
		p := Product(batch)
		b.Run(fmt.Sprintf("%d-bit/direct", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				new(big.Int).Exp(w, p, pp.N)
			}
		})
		b.Run(fmt.Sprintf("%d-bit/comb-build", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pp.NewFixedBase(base, len(batch)*hprime.PrimeBits, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		fb, err := pp.NewFixedBase(base, len(batch)*hprime.PrimeBits, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%d-bit/comb", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Fold(fb, w, x, p)
			}
		})
	}
}

// BenchmarkMul times one modular multiply of the comb, Montgomery against
// Mul and QuoRem.
func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{256, 512, 1024} {
		n := randOdd(rng, bits)
		x, y := new(big.Int).Rand(rng, n), new(big.Int).Rand(rng, n)
		b.Run(fmt.Sprintf("%d-bit/montgomery", bits), func(b *testing.B) {
			mc, err := newMontCtx(n)
			if err != nil {
				b.Fatal(err)
			}
			xm, ym, t := make([]uint, mc.n), make([]uint, mc.n), make([]uint, mc.n+1)
			mc.toMont(xm, x)
			mc.toMont(ym, y)
			for i := 0; i < b.N; i++ {
				mc.mul(xm, xm, ym, t)
			}
		})
		b.Run(fmt.Sprintf("%d-bit/quorem", bits), func(b *testing.B) {
			mc, z := modCtx{n: n}, new(big.Int).Set(x)
			for i := 0; i < b.N; i++ {
				mc.mul(z, z, y)
			}
		})
	}
}
