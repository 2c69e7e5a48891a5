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
package mhash

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// modulusHex is a fixed 256-bit prime q defining GF(q). It is the standard
// secp256k1 group order, chosen here simply as a well-known safe prime-order
// field modulus; any public 256-bit prime works.
const modulusHex = "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"

// Size is the fixed width of serialized hash values in bytes.
const Size = 32

var (
	q    = mustHex(modulusHex)
	qm1  = new(big.Int).Sub(q, big.NewInt(1))
	one  = big.NewInt(1)
	zero = big.NewInt(0)
)

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("mhash: bad modulus constant")
	}
	return v
}

// Modulus returns the field prime q. The chain's state root divides one
// multiset hash by another and needs the modulus for the inverse.
func Modulus() *big.Int { return new(big.Int).Set(q) }

// Value returns the hash's field element (a copy), for arithmetic the Hash
// methods do not offer, such as that quotient.
func (h Hash) Value() *big.Int {
	if h.v == nil {
		return new(big.Int)
	}
	return new(big.Int).Set(h.v)
}

// Hash is an incrementally updatable multiset hash value. The zero value is
// not valid; use Empty or Unmarshal.
type Hash struct {
	v *big.Int
}

// Empty returns H(∅), the identity element.
func Empty() Hash {
	return Hash{v: new(big.Int).Set(one)}
}

// hashToField maps an element into GF(q)* \ {1}. Rejection-samples over a
// counter to avoid modulo bias mattering (negligible at 256 bits anyway) and
// to dodge the degenerate values 0 and 1. It also reports how many hash
// attempts that took, which is almost always one.
func hashToField(element []byte) (*big.Int, int) {
	for ctr := byte(0); ; ctr++ {
		h := sha256.New()
		h.Write([]byte("slicer/mset-mu-hash/v1"))
		h.Write([]byte{ctr})
		h.Write(element)
		v := new(big.Int).SetBytes(h.Sum(nil))
		v.Mod(v, q)
		if v.Cmp(one) > 0 {
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
	out := new(big.Int).Mul(h.v, e)
	out.Mod(out, q)
	return Hash{v: out}, attempts
}

// Remove returns the hash with one occurrence of element removed. It is the
// inverse of Add; removing an element that was never added silently yields
// the hash of the (formal) multiset with multiplicity -1, so callers must
// track multiplicities themselves.
func (h Hash) Remove(element []byte) Hash {
	e, _ := hashToField(element)
	inv := new(big.Int).ModInverse(e, q)
	out := new(big.Int).Mul(h.v, inv)
	out.Mod(out, q)
	return Hash{v: out}
}

// Union returns H(M ∪ N) = H(M) ·_H H(N).
func (h Hash) Union(other Hash) Hash {
	out := new(big.Int).Mul(h.v, other.v)
	out.Mod(out, q)
	return Hash{v: out}
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
// (equality in GF(q)).
func (h Hash) Equal(other Hash) bool {
	if h.v == nil || other.v == nil {
		return h.v == other.v
	}
	return h.v.Cmp(other.v) == 0
}

// IsEmpty reports whether the hash equals H(∅).
func (h Hash) IsEmpty() bool {
	return h.v != nil && h.v.Cmp(one) == 0
}

// Marshal serializes the hash at fixed width.
func (h Hash) Marshal() []byte {
	if h.v == nil {
		return make([]byte, Size)
	}
	return h.v.FillBytes(make([]byte, Size))
}

// Unmarshal parses a fixed-width serialized hash.
func Unmarshal(data []byte) (Hash, error) {
	if len(data) != Size {
		return Hash{}, fmt.Errorf("mhash: value must be %d bytes, got %d", Size, len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Cmp(zero) == 0 || v.Cmp(q) >= 0 {
		return Hash{}, errors.New("mhash: value outside GF(q)*")
	}
	return Hash{v: v}, nil
}
