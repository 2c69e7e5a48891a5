// Package trapdoor implements the RSA trapdoor permutation used for
// forward-secure trapdoor chains (Bost's Σοφος technique, adopted by Slicer
// Algorithm 2).
//
// The permutation acts on the fixed group Z_n* for an RSA modulus n:
//
//	π_pk(x)      = x^e mod n   (easy: everyone)
//	π_sk^{-1}(x) = x^d mod n   (easy only with the trapdoor d)
//
// The data owner advances a keyword's trapdoor with π_sk^{-1} on every
// insertion epoch, by the Chinese remainder theorem over the factors of n;
// the cloud, holding only the public key, can walk the
// chain backwards with π_pk from the newest trapdoor it is handed, but can
// never move forwards — which is exactly the forward-security property.
package trapdoor

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"slicer/internal/chunkio"
	"slicer/internal/entropy"
)

// DefaultModulusBits is the default RSA modulus size. 1024 bits is used for
// benchmarks to mirror the lightweight setting of the paper's prototype;
// production deployments should use >= 2048.
const DefaultModulusBits = 1024

var (
	// ErrNotInDomain indicates a value outside [1, n).
	ErrNotInDomain = errors.New("trapdoor: value outside permutation domain")

	// ErrNoFactors indicates a secret key whose private exponent is not an
	// inverse of e for the factors of n, so n cannot be split from it.
	ErrNoFactors = errors.New("trapdoor: private exponent does not factor the modulus")

	one = big.NewInt(1)
)

// PublicKey lets anyone evaluate the permutation in the forward (public)
// direction.
type PublicKey struct {
	N *big.Int // modulus
	E *big.Int // public exponent
}

// SecretKey additionally enables the inverse direction. Beside d it keeps
// the factors of n and the CRT exponents, as Bost's Σοφος does; they are
// not serialized but recovered from (n, e, d) when a key is loaded.
type SecretKey struct {
	PublicKey
	D *big.Int // private exponent

	p, q   *big.Int // n = p·q
	dP, dQ *big.Int // d mod p−1, d mod q−1
	qInv   *big.Int // q⁻¹ mod p
}

// newSecretKey completes (n, e, d) and a factorization n = p·q with the CRT
// exponents. It fails with ErrNoFactors unless p and q are distinct primes
// with product n and e·d ≡ 1 modulo both p−1 and q−1, which is exactly
// when Inverse computes v^d mod n for every v in [1, n).
func newSecretKey(n, e, d, p, q *big.Int) (*SecretKey, error) {
	pm1, qm1 := new(big.Int).Sub(p, one), new(big.Int).Sub(q, one)
	ed := new(big.Int).Mul(e, d)
	sk := &SecretKey{PublicKey: PublicKey{N: n, E: e}, D: d, p: p, q: q,
		dP: new(big.Int).Mod(d, pm1), dQ: new(big.Int).Mod(d, qm1), qInv: new(big.Int)}
	if new(big.Int).Mul(p, q).Cmp(n) != 0 || !p.ProbablyPrime(0) || !q.ProbablyPrime(0) ||
		new(big.Int).Mod(ed, pm1).Cmp(one) != 0 || new(big.Int).Mod(ed, qm1).Cmp(one) != 0 ||
		sk.qInv.ModInverse(q, p) == nil {
		return nil, ErrNoFactors
	}
	return sk, nil
}

// factor splits n from a multiple k = e·d − 1 of λ(n), the standard
// reduction: write k = 2^t·r with r odd; for a base g, some square in
// g^r, g^2r, …, g^k is a square root of 1 other than ±1 with probability
// at least 1/2, and it shares exactly one factor with n. The bases are the
// primes 2, 3, 5, … in turn, so a key loads to the same factors every time.
func factor(n, e, d *big.Int) (p, q *big.Int, err error) {
	k := new(big.Int).Mul(e, d)
	k.Sub(k, one)
	t := k.TrailingZeroBits()
	if k.Sign() <= 0 || t == 0 || n.Bit(0) == 0 {
		return nil, nil, ErrNoFactors
	}
	r := new(big.Int).Rsh(k, t)
	nm1 := new(big.Int).Sub(n, one)
	g, x, y := new(big.Int), new(big.Int), new(big.Int)
	for _, base := range factorBases {
		if g.SetInt64(base).Cmp(nm1) >= 0 {
			break
		}
		if f := new(big.Int).GCD(nil, nil, g, n); f.Cmp(one) != 0 {
			return f, new(big.Int).Quo(n, f), nil
		}
		x.Exp(g, r, n)
		for i := uint(0); i < t && x.Cmp(one) != 0 && x.Cmp(nm1) != 0; i++ {
			y.Mul(x, x).Mod(y, n)
			if y.Cmp(one) == 0 { // x is a nontrivial square root of 1
				f := new(big.Int).GCD(nil, nil, x.Sub(x, one), n)
				return f, new(big.Int).Quo(n, f), nil
			}
			x, y = y, x
		}
	}
	return nil, nil, ErrNoFactors
}

// factorBases are the bases factor tries: a valid key fails on each with
// probability at most 1/2, so on all of them with at most 2^-len.
var factorBases = []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
	83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
	193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311}

// Garner returns the value below p·q that is mp mod p and mq mod q, by
// Garner's step mq + q·((mp − mq)·qInv mod p) with qInv = q⁻¹ mod p. It
// needs mq < q and writes the result into mp; mq, p, q and qInv are only
// read. No inverse is taken per call.
func Garner(mp, mq, p, q, qInv *big.Int) *big.Int {
	mp.Sub(mp, mq).Mul(mp, qInv).Mod(mp, p)
	return mp.Mul(mp, q).Add(mp, mq)
}

// GenerateKey samples an RSA trapdoor permutation with a modulus of the
// given bit length.
func GenerateKey(bits int) (*SecretKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("trapdoor: modulus of %d bits is too small", bits)
	}
	e := big.NewInt(65537)
	for {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("sample p: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("sample q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int)
		if d.ModInverse(e, phi) == nil {
			continue // e not invertible mod phi; resample
		}
		return newSecretKey(n, e, d, p, q)
	}
}

// Size returns the fixed byte width of encoded domain elements.
func (pk *PublicKey) Size() int {
	return (pk.N.BitLen() + 7) / 8
}

// Sample draws a uniformly random element of the permutation domain,
// encoded at fixed width. It is used to mint fresh keyword trapdoors t_0.
// Owners call it once per keyword during builds, so it draws through the
// buffered entropy reader rather than a getrandom syscall per call.
func (pk *PublicKey) Sample() ([]byte, error) {
	upper := new(big.Int).Sub(pk.N, one)
	v, err := rand.Int(entropy.Reader, upper)
	if err != nil {
		return nil, fmt.Errorf("sample trapdoor: %w", err)
	}
	v.Add(v, one) // uniform in [1, n)
	return pk.encode(v), nil
}

// Forward evaluates π_pk(x): one step backwards along a trapdoor chain.
func (pk *PublicKey) Forward(x []byte) ([]byte, error) {
	v, err := pk.decode(x)
	if err != nil {
		return nil, err
	}
	v.Exp(v, pk.E, pk.N)
	return pk.encode(v), nil
}

// Inverse evaluates π_sk^{-1}(x): one step forwards along a trapdoor chain.
// Only the data owner holds the secret key. It is v^d mod n computed as
// v^dP mod p and v^dQ mod q joined by Garner's step: two half-width
// exponentiations, each with half-length exponents. That is exact for
// every v in [1, n), a v that shares a factor with n included, because dP
// and dQ are never 0. It is safe for concurrent use.
func (sk *SecretKey) Inverse(x []byte) ([]byte, error) {
	v, err := sk.decode(x)
	if err != nil {
		return nil, err
	}
	mq := new(big.Int).Mod(v, sk.q)
	mq.Exp(mq, sk.dQ, sk.q)
	v.Mod(v, sk.p).Exp(v, sk.dP, sk.p)
	return sk.encode(Garner(v, mq, sk.p, sk.q, sk.qInv)), nil
}

func (pk *PublicKey) encode(v *big.Int) []byte {
	return v.FillBytes(make([]byte, pk.Size()))
}

func (pk *PublicKey) decode(x []byte) (*big.Int, error) {
	if len(x) != pk.Size() {
		return nil, fmt.Errorf("trapdoor: element must be %d bytes, got %d", pk.Size(), len(x))
	}
	v := new(big.Int).SetBytes(x)
	if v.Sign() == 0 || v.Cmp(pk.N) >= 0 {
		return nil, ErrNotInDomain
	}
	return v, nil
}

// MarshalSecret serializes the full keypair (modulus, public exponent,
// private exponent) for owner-state persistence. Treat the output as
// sensitive material.
func (sk *SecretKey) MarshalSecret() []byte {
	out := chunkio.Append(nil, sk.N.Bytes())
	out = chunkio.Append(out, sk.E.Bytes())
	return chunkio.Append(out, sk.D.Bytes())
}

// UnmarshalSecret parses a keypair produced by MarshalSecret and recovers
// the factors of n from it. A key whose d is not an inverse of e fails with
// ErrNoFactors.
func UnmarshalSecret(data []byte) (*SecretKey, error) {
	nb, rest, err := chunkio.Read(data)
	if err != nil {
		return nil, fmt.Errorf("trapdoor: parse modulus: %w", err)
	}
	eb, rest, err := chunkio.Read(rest)
	if err != nil {
		return nil, fmt.Errorf("trapdoor: parse exponent: %w", err)
	}
	db, _, err := chunkio.Read(rest)
	if err != nil {
		return nil, fmt.Errorf("trapdoor: parse private exponent: %w", err)
	}
	n, e, d := new(big.Int).SetBytes(nb), new(big.Int).SetBytes(eb), new(big.Int).SetBytes(db)
	if n.Sign() <= 0 || e.Sign() <= 0 || d.Sign() <= 0 {
		return nil, errors.New("trapdoor: invalid secret key encoding")
	}
	p, q, err := factor(n, e, d)
	if err != nil {
		return nil, err
	}
	return newSecretKey(n, e, d, p, q)
}

// MarshalPublic serializes the public key (modulus then exponent, each
// length-prefixed) so it can be shipped to clouds.
func (pk *PublicKey) MarshalPublic() []byte {
	nb := pk.N.Bytes()
	eb := pk.E.Bytes()
	out := make([]byte, 0, 4+len(nb)+4+len(eb))
	out = chunkio.Append(out, nb)
	out = chunkio.Append(out, eb)
	return out
}

// UnmarshalPublic parses a key produced by MarshalPublic.
func UnmarshalPublic(data []byte) (*PublicKey, error) {
	nb, rest, err := chunkio.Read(data)
	if err != nil {
		return nil, fmt.Errorf("trapdoor: parse modulus: %w", err)
	}
	eb, _, err := chunkio.Read(rest)
	if err != nil {
		return nil, fmt.Errorf("trapdoor: parse exponent: %w", err)
	}
	pk := &PublicKey{N: new(big.Int).SetBytes(nb), E: new(big.Int).SetBytes(eb)}
	if pk.N.Sign() <= 0 || pk.E.Sign() <= 0 {
		return nil, errors.New("trapdoor: invalid public key encoding")
	}
	return pk, nil
}
