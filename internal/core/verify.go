package core

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync/atomic"

	"slicer/internal/accumulator"
	"slicer/internal/hprime"
	"slicer/internal/mhash"
)

// Verification phases, naming which check of Algorithm 5 a response failed.
const (
	// PhaseCompleteness: the response does not hold exactly one result per
	// requested token (a lazy cloud dropped or padded results).
	PhaseCompleteness = "completeness"
	// PhaseOrder: result i does not answer request token i.
	PhaseOrder = "order"
	// PhaseMembership: a result's accumulator membership proof is invalid
	// (tampered encrypted results, witness or stale accumulation value).
	PhaseMembership = "membership"
)

// VerificationError is the structured failure every verification path
// returns: it names the offending token result and the phase that rejected
// it, and unwraps to ErrVerification so existing errors.Is checks keep
// working. Audit evidence bundles persist these fields to attribute
// misbehavior after the fact.
type VerificationError struct {
	// TokenIndex is the index of the offending result in the response
	// (-1 for response-level failures that no single result explains).
	TokenIndex int
	// Phase is PhaseCompleteness, PhaseOrder or PhaseMembership.
	Phase string
	// Detail is a human-readable explanation.
	Detail string
}

func (e *VerificationError) Error() string {
	if e.TokenIndex < 0 {
		return fmt.Sprintf("%s: %s (phase %s)", ErrVerification.Error(), e.Detail, e.Phase)
	}
	return fmt.Sprintf("%s: token result %d: %s (phase %s)", ErrVerification.Error(), e.TokenIndex, e.Detail, e.Phase)
}

// Unwrap ties the structured error to the ErrVerification sentinel.
func (e *VerificationError) Unwrap() error { return ErrVerification }

// AsVerificationError extracts the structured verification failure from an
// error chain (nil, false when err is not a verification failure).
func AsVerificationError(err error) (*VerificationError, bool) {
	var ve *VerificationError
	if errors.As(err, &ve) {
		return ve, true
	}
	return nil, false
}

// Charges prices the work of Algorithm 5 as the verifier does it; a charge
// fails once the gas runs out. chain's Meter and CallCtx charge its prices.
type Charges interface {
	ChargeHash(n int) error
	ChargeFieldMul() error
	ChargeModExp(baseLen, modLen int, exp *big.Int) error
}

// Meter is what VerifyResults charges. The contract passes its call's gas;
// off-chain callers pass nil, which is free.
type Meter interface {
	Charges
	// Fresh returns a new meter over the gas this one has left, at the same
	// prices; charging it leaves this one as it is.
	Fresh() Charges
}

type freeMeter struct{}

func (freeMeter) ChargeHash(int) error                  { return nil }
func (freeMeter) ChargeFieldMul() error                 { return nil }
func (freeMeter) ChargeModExp(int, int, *big.Int) error { return nil }
func (m freeMeter) Fresh() Charges                      { return m }

// millerRabinRounds is a flat certification price for the prime
// representative: three modexps at prime width, whatever the test costs.
// What runs is Baillie–PSW (hprime.probablyPrime), a base-2 round on every
// sieve survivor and a Lucas ladder on the prime; ROADMAP item 23b prices
// that instead.
const millerRabinRounds = 3

// pieceLen is the most er entries of one token that one piece of the
// fan-out hashes.
const pieceLen = 64

// VerifyResults runs Algorithm 5 on each result and returns the index of the
// first invalid one, or -1 when all are valid. It is the one implementation:
// the data user's check and the contract's verdict both run it.
//
// The work fans out across GOMAXPROCS workers in pieces of at most pieceLen
// er entries of one token; the worker that hashes a token's last piece
// unions the partial hashes, derives the prime and checks the witness. Only
// then is m charged, on the calling goroutine, exactly as a serial loop
// would charge it: token by token, per er one hash per rejection-sampling
// attempt and one field multiply, then H_prime's input hash and one hash
// per probe, the flat certification price and the witness modexp, stopping
// at the first invalid token or at m's first error, which is returned. So
// the gas, and whether a transaction runs out of it, are the serial loop's.
//
// The work done ahead of the charges is only what m's gas left pays for at
// the charges' floors: the same charges, run on m.Fresh() at one attempt per
// er, one probe and a prime of hprime.PrimeBits bits. The er entries past the
// first the floors do not fit are not hashed, and a token whose charges do
// not all fit gets no prime and no witness check. No charge costs less than
// its floor, so the charges, which price what was skipped at its floor, run
// out of gas before anything skipped could decide the outcome, and a
// transaction that runs out of gas pays its whole limit. The work on tokens
// after the first invalid one is done but not charged; it too stays within
// the floors.
func VerifyResults(pp *accumulator.PublicParams, ac *big.Int, results []TokenResult, m Meter) (int, error) {
	if m == nil {
		m = freeMeter{}
	}
	checks := checkResults(pp, ac, results, m.Fresh())
	for i := range results {
		if _, err := checks[i].charge(pp, results[i], m); err != nil || !checks[i].ok {
			return i, err
		}
	}
	return -1, nil
}

// tokenCheck is Algorithm 5 on one token result, done ahead of its charges.
type tokenCheck struct {
	attempts     []int // hash attempts of each er, 0 if not hashed
	first, count int   // the token's pieces are pieces[first : first+count]
	left         atomic.Int32
	h            mhash.Hash
	w            *big.Int // the decoded witness, nil if it does not decode
	derive       bool     // the gas left pays for the token's charges at their floors
	x            *big.Int // floorX until the token's prime is derived
	probes       int
	ok           bool // w proves x a member of ac
}

// piece is er entries [lo, hi) of result tok, and their partial hash.
type piece struct {
	tok, lo, hi int
	h           mhash.Hash
}

// floorX is the cheapest prime to charge for: H_prime's primes have their
// top bit set, so neither x nor x-1 has a shorter exponent.
var floorX = new(big.Int).SetBit(big.NewInt(1), hprime.PrimeBits-1, 1)

// checkResults does the work of Algorithm 5 that floors pays for: charge at
// each token's floors decides which er entries are hashed and which tokens
// get a prime and a witness check.
func checkResults(pp *accumulator.PublicParams, ac *big.Int, results []TokenResult, floors Charges) []tokenCheck {
	checks := make([]tokenCheck, len(results))
	var pieces []piece
	for i, res := range results {
		c := &checks[i]
		c.attempts, c.first = make([]int, len(res.ER)), len(pieces)
		c.w, _ = pp.DecodeValue(res.Witness)
		c.x, c.probes = floorX, 1
		funded, err := c.charge(pp, res, floors)
		c.derive = err == nil
		for lo := 0; lo < funded || c.derive && lo == 0; lo += pieceLen {
			pieces = append(pieces, piece{tok: i, lo: lo, hi: min(lo+pieceLen, funded)})
		}
		c.count = len(pieces) - c.first
		c.left.Store(int32(c.count))
	}
	_ = ForEachIndexed(len(pieces), runtime.GOMAXPROCS(0), func(p int) error {
		pc := &pieces[p]
		res, c := &results[pc.tok], &checks[pc.tok]
		pc.h = mhash.Empty()
		for k := pc.lo; k < pc.hi; k++ {
			pc.h, c.attempts[k] = pc.h.AddCount(res.ER[k])
		}
		if c.left.Add(-1) != 0 || !c.derive {
			return nil
		}
		c.h = pieces[c.first].h
		for _, other := range pieces[c.first+1 : c.first+c.count] {
			c.h = c.h.Union(other.h)
		}
		tok := res.Token
		c.x, c.probes = tokenPrime(tok.Trapdoor, tok.Epoch, tok.G1, tok.G2, c.h)
		c.ok = c.w != nil && pp.VerifyMem(ac, c.x, c.w)
		return nil
	})
	return checks
}

// primeInputLen is the length of H_prime's input for tok.
func primeInputLen(tok SearchToken) int {
	return len(tok.Trapdoor) + 8 + len(tok.G1) + len(tok.G2) + mhash.Size
}

// charge prices c's work on m in the serial order: per er at least one
// attempt, then the prime's probes and certification and, if the witness
// decodes, its modexp. It returns how many er entries it paid for and the
// first charge that failed; c.ok is the verdict.
func (c *tokenCheck) charge(pp *accumulator.PublicParams, res TokenResult, m Charges) (int, error) {
	for k, er := range res.ER {
		for a := max(c.attempts[k], 1); a > 0; a-- {
			if err := m.ChargeHash(len(er)); err != nil {
				return k, err
			}
		}
		if err := m.ChargeFieldMul(); err != nil {
			return k, err
		}
	}
	paid := len(res.ER)
	if err := m.ChargeHash(primeInputLen(res.Token)); err != nil {
		return paid, err
	}
	for a := c.probes; a > 0; a-- {
		if err := m.ChargeHash(hprime.PrimeBytes); err != nil {
			return paid, err
		}
	}
	xm1 := new(big.Int).Sub(c.x, big.NewInt(1))
	for i := 0; i < millerRabinRounds; i++ {
		if err := m.ChargeModExp(hprime.PrimeBytes, hprime.PrimeBytes, xm1); err != nil {
			return paid, err
		}
	}
	if c.w == nil {
		return paid, nil
	}
	return paid, m.ChargeModExp(len(res.Witness), pp.Size(), c.x)
}

// VerifyResponse verifies a full search response against the request it
// answers, under the contract's response rule: exactly one result per
// requested token, result i answering token i, so a lazy cloud can neither
// drop tokens whose results it does not want to return nor pad or reorder.
// The proof checks are VerifyResults'; a failure names the lowest invalid
// result.
func VerifyResponse(pp *accumulator.PublicParams, ac *big.Int, req *SearchRequest, resp *SearchResponse) error {
	if len(resp.Results) != len(req.Tokens) {
		return &VerificationError{TokenIndex: -1, Phase: PhaseCompleteness,
			Detail: fmt.Sprintf("%d results for %d tokens", len(resp.Results), len(req.Tokens))}
	}
	for i, res := range resp.Results {
		if !sameToken(res.Token, req.Tokens[i]) {
			return &VerificationError{TokenIndex: i, Phase: PhaseOrder,
				Detail: fmt.Sprintf("does not answer request token %d", i)}
		}
	}
	if bad, _ := VerifyResults(pp, ac, resp.Results, nil); bad >= 0 {
		return &VerificationError{TokenIndex: bad, Phase: PhaseMembership,
			Detail: "invalid membership proof"}
	}
	return nil
}

// sameToken compares two tokens in constant time; the contract compares the
// same sequence through the tokens hash the user escrowed.
func sameToken(a, b SearchToken) bool {
	return a.Epoch == b.Epoch && subtle.ConstantTimeCompare(a.Trapdoor, b.Trapdoor)&
		subtle.ConstantTimeCompare(a.G1, b.G1)&subtle.ConstantTimeCompare(a.G2, b.G2) == 1
}
