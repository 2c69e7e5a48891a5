// Package mhash implements the MSet-Mu-Hash incremental multiset hash of
// Clarke et al. (ASIACRYPT 2003), the construction Slicer uses to commit to
// a keyword's result set.
//
// For a multiset M over a countable set B,
//
//	H(M) = Π_{b∈B} H(b)^{M_b}  (mod q)
//
// where H hashes elements into the multiplicative group of a prime field
// GF(q). The hash is:
//
//   - order independent (a multiset hash),
//   - incremental: H(M ∪ N) = H(M) ·_H H(N), so set hashes can be updated in
//     O(1) per element on insertion, and
//   - collision resistant under the discrete-log assumption in GF(q)*.
//
// Removal is supported via modular inversion (used by the deletion twin
// instance).
//
// The field arithmetic is fixed width: an element of GF(q) is four 64-bit
// limbs in Montgomery form, multiplied with the CIOS method, so adding an
// element costs one SHA-256 call and two multiplications and allocates
// nothing. Only the inverse that Remove and Div need goes through math/big.
package mhash

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Size is the fixed width of serialized hash values in bytes.
const Size = 32

// fe is an element of GF(q) as little-endian 64-bit limbs, always fully
// reduced (< q).
type fe [4]uint64

// q is the 256-bit prime defining GF(q), here as little-endian limbs q0..q3:
// the secp256k1 group order, chosen as a well-known prime; any public prime
// above 2^255 works. qInv is -q^-1 mod 2^64, the Montgomery reduction
// constant.
const (
	q0, q1, q2, q3 = 0xbfd25e8cd0364141, 0xbaaedce6af48a03b, 0xfffffffffffffffe, 0xffffffffffffffff
	qInv           = 0x4b0dff665588b13f
)

var (
	q = fe{q0, q1, q2, q3}
	// qInt is q for inv.
	qInt, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	// rOne is R mod q with R = 2^256: the Montgomery form of 1.
	rOne = fe{0x402da1732fc9bebf, 0x4551231950b75fc4, 1, 0}
	// r2 is R^2 mod q; mul(x, r2) puts x into Montgomery form.
	r2 = fe{0x896cf21467d7d140, 0x741496c20e7cf878, 0xe697f5e45bcd07c6, 0x9d671cd581c69bc5}
)

// sub returns a - b and the borrow out of the top limb.
func sub(a, b fe) (d fe, borrow uint64) {
	for i := range d {
		d[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
	return d, borrow
}

// subQ returns t - q if t ≥ q, else t, for a value t + carry·2^256 below
// 2q. It selects with a mask rather than a branch.
func subQ(t fe, carry uint64) fe {
	r, borrow := sub(t, q)
	keep := -(borrow &^ carry) // all ones when t < q
	for i := range r {
		r[i] ^= (r[i] ^ t[i]) & keep
	}
	return r
}

// madd returns a·b + c + d, which fits in 128 bits.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var cc uint64
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	lo, cc = bits.Add64(lo, d, 0)
	return hi + cc, lo
}

// mul returns a·b·R^-1 mod q (CIOS Montgomery multiplication) for a, b < q.
// Each round adds a·b[i] to t, then adds the multiple m·q that clears t's
// low limb and shifts t down one limb.
func mul(a, b fe) fe {
	var t0, t1, t2, t3, t4 uint64
	for _, bi := range b {
		var c, t5 uint64
		c, t0 = madd(a[0], bi, t0, 0)
		c, t1 = madd(a[1], bi, t1, c)
		c, t2 = madd(a[2], bi, t2, c)
		c, t3 = madd(a[3], bi, t3, c)
		t4, t5 = bits.Add64(t4, c, 0)
		m := t0 * qInv
		c, _ = madd(m, q0, t0, 0)
		c, t0 = madd(m, q1, t1, c)
		c, t1 = madd(m, q2, t2, c)
		c, t2 = madd(m, q3, t3, c)
		t3, c = bits.Add64(t4, c, 0)
		t4 = t5 + c
	}
	return subQ(fe{t0, t1, t2, t3}, t4)
}

// inv returns a^-1·R mod q for a in Montgomery form (a·R), or 0 for a = 0.
// It inverts with math/big, whose Lehmer GCD takes 4 µs where a^(q-2) on
// this kernel takes 35 µs (Xeon, amd64), and chain.State.Root inverts once
// per block on every validator. Two multiplications by R^2 turn (a·R)^-1
// into a^-1·R.
func inv(a fe) fe {
	b := toBytes(a)
	x := new(big.Int).SetBytes(b[:])
	if x.ModInverse(x, qInt) == nil {
		return fe{}
	}
	x.FillBytes(b[:])
	return mul(mul(fromBytes(b[:]), r2), r2)
}

// fromBytes reads a 32-byte big-endian value into limbs, unreduced.
func fromBytes(b []byte) (v fe) {
	for i := range v {
		v[i] = binary.BigEndian.Uint64(b[Size-8*(i+1):])
	}
	return v
}

// toBytes writes limbs as a 32-byte big-endian value.
func toBytes(v fe) (b [Size]byte) {
	for i := range v {
		binary.BigEndian.PutUint64(b[Size-8*(i+1):], v[i])
	}
	return b
}

// reduce maps a 256-bit digest to GF(q). Since q > 2^255 one conditional
// subtraction suffices. ok reports whether the result is neither 0 nor 1.
func reduce(d *[Size]byte) (v fe, ok bool) {
	v = subQ(fromBytes(d[:]), 0)
	return v, v[3]|v[2]|v[1] != 0 || v[0] > 1
}

// Hash is an incrementally updatable multiset hash value: a field element
// in Montgomery form. The zero value is not valid; use Empty or Unmarshal.
type Hash struct {
	m fe
}

// Empty returns H(∅), the identity element.
func Empty() Hash {
	return Hash{m: rOne}
}

const domain = "slicer/mset-mu-hash/v1"

// hashToField maps an element into GF(q)* \ {1}. Rejection-samples over a
// counter to avoid modulo bias mattering (negligible at 256 bits anyway) and
// to dodge the degenerate values 0 and 1. It also reports how many hash
// attempts that took, which is almost always one. The value is returned in
// plain form; mul(e, r2) puts it into Montgomery form.
func hashToField(element []byte) (fe, int) {
	var buf [128]byte // holds a chain state tuple without allocating
	in := append(append(append(buf[:0], domain...), 0), element...)
	for ctr := byte(0); ; ctr++ {
		in[len(domain)] = ctr
		d := sha256.Sum256(in)
		if v, ok := reduce(&d); ok {
			return v, int(ctr) + 1
		}
	}
}

// Add returns the hash of the multiset with one more occurrence of element.
// The receiver is not modified.
func (h Hash) Add(element []byte) Hash {
	out, _ := h.AddCount(element)
	return out
}

// AddCount is Add instrumented with the number of hash attempts mapping
// element into the field took; a gas meter charges one hash per attempt.
func (h Hash) AddCount(element []byte) (Hash, int) {
	e, attempts := hashToField(element)
	return Hash{m: mul(h.m, mul(e, r2))}, attempts
}

// Remove returns the hash with one occurrence of element removed. It is the
// inverse of Add; removing an element that was never added silently yields
// the hash of the (formal) multiset with multiplicity -1, so callers must
// track multiplicities themselves.
func (h Hash) Remove(element []byte) Hash {
	e, _ := hashToField(element)
	return Hash{m: mul(h.m, inv(mul(e, r2)))}
}

// Union returns H(M ∪ N) = H(M) ·_H H(N).
func (h Hash) Union(other Hash) Hash {
	return Hash{m: mul(h.m, other.m)}
}

// Div returns the field quotient h / den, the hash of the formal multiset
// difference. den must be a valid hash (never zero in GF(q)).
func (h Hash) Div(den Hash) Hash {
	return Hash{m: mul(h.m, inv(den.m))}
}

// OfMultiset hashes a whole multiset in one call.
func OfMultiset(elements [][]byte) Hash {
	h := Empty()
	for _, e := range elements {
		h = h.Add(e)
	}
	return h
}

// Equal reports whether two hashes are the ≡_H relation of the paper
// (equality in GF(q)), in constant time.
func (h Hash) Equal(other Hash) bool {
	var d uint64
	for i := range h.m {
		d |= h.m[i] ^ other.m[i]
	}
	return d == 0
}

// IsEmpty reports whether the hash equals H(∅).
func (h Hash) IsEmpty() bool {
	return h.Equal(Empty())
}

// Marshal serializes the hash at fixed width: the field element, big-endian.
func (h Hash) Marshal() []byte {
	b := toBytes(mul(h.m, fe{1}))
	return b[:]
}

// Unmarshal parses a fixed-width serialized hash.
func Unmarshal(data []byte) (Hash, error) {
	if len(data) != Size {
		return Hash{}, fmt.Errorf("mhash: value must be %d bytes, got %d", Size, len(data))
	}
	v := fromBytes(data)
	if _, borrow := sub(v, q); v == (fe{}) || borrow == 0 {
		return Hash{}, errors.New("mhash: value outside GF(q)*")
	}
	return Hash{m: mul(v, r2)}, nil
}
