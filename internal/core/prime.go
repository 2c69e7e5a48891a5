package core

import (
	"encoding/binary"
	"math/big"

	"slicer/internal/hprime"
	"slicer/internal/mhash"
)

// tokenPrime derives the prime representative x = H_prime(t || j || G1 ||
// G2 || h) committed by the accumulator for one keyword's cumulative result
// set, and how many candidates H_prime probed (the verifier's meter charges
// a hash for each). It is the single place where owner, cloud and verifier
// must agree on the encoding.
func tokenPrime(trapdoor []byte, epoch int, g1, g2 []byte, h mhash.Hash) (*big.Int, int) {
	var j [8]byte
	binary.BigEndian.PutUint64(j[:], uint64(epoch))
	return hprime.HashConcatCount(trapdoor, j[:], g1, g2, h.Marshal())
}

// TokenPrime exposes the prime derivation to the shard router, which
// delegates a merged result set's witness by its prime.
func TokenPrime(token SearchToken, h mhash.Hash) *big.Int {
	x, _ := tokenPrime(token.Trapdoor, token.Epoch, token.G1, token.G2, h)
	return x
}
