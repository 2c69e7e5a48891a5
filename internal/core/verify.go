package core

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"math/big"
	"runtime"

	"slicer/internal/accumulator"
	"slicer/internal/hprime"
	"slicer/internal/mhash"
	"slicer/internal/obs"
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

// Meter prices the work of Algorithm 5 as the verifier does it. The
// contract passes its *chain.CallCtx, which charges gas and fails once the
// transaction runs out; off-chain callers pass nil, which is free.
type Meter interface {
	ChargeHash(n int) error
	ChargeFieldMul() error
	ChargeModExp(baseLen, modLen int, exp *big.Int) error
}

type freeMeter struct{}

func (freeMeter) ChargeHash(int) error                  { return nil }
func (freeMeter) ChargeFieldMul() error                 { return nil }
func (freeMeter) ChargeModExp(int, int, *big.Int) error { return nil }

// millerRabinRounds is a flat certification price for the prime
// representative: three modexps at prime width, whatever the test costs.
// What runs is Baillie–PSW (hprime.probablyPrime), a base-2 round on every
// sieve survivor and a Lucas ladder on the prime; ROADMAP item 23b prices
// that instead.
const millerRabinRounds = 3

// VerifyTokenResult runs Algorithm 5 for a single token result against the
// accumulation value ac (fetched from the blockchain): recompute the
// multiset hash of the returned encrypted results, re-derive the prime
// representative and check the membership witness, which must be exactly
// pp.Size() bytes. It is the one implementation: the data user's check and
// the contract's verdict both run it.
//
// m is charged as the work happens — per er one hash per rejection-sampling
// attempt and one field multiply, then H_prime's input hash and one hash per
// probe, the flat certification price and the witness modexp — so a hostile
// submission runs out of gas before it gets unpaid work. Only m's errors are
// returned.
func VerifyTokenResult(pp *accumulator.PublicParams, ac *big.Int, res TokenResult, m Meter) (bool, error) {
	if m == nil {
		m = freeMeter{}
	}
	h := mhash.Empty()
	for _, er := range res.ER {
		var attempts int
		h, attempts = h.AddCount(er)
		for ; attempts > 0; attempts-- {
			if err := m.ChargeHash(len(er)); err != nil {
				return false, err
			}
		}
		if err := m.ChargeFieldMul(); err != nil {
			return false, err
		}
	}
	tok := res.Token
	x, probes := tokenPrime(tok.Trapdoor, tok.Epoch, tok.G1, tok.G2, h)
	if err := m.ChargeHash(len(tok.Trapdoor) + 8 + len(tok.G1) + len(tok.G2) + mhash.Size); err != nil {
		return false, err
	}
	for ; probes > 0; probes-- {
		if err := m.ChargeHash(hprime.PrimeBytes); err != nil {
			return false, err
		}
	}
	xm1 := new(big.Int).Sub(x, big.NewInt(1))
	for i := 0; i < millerRabinRounds; i++ {
		if err := m.ChargeModExp(hprime.PrimeBytes, hprime.PrimeBytes, xm1); err != nil {
			return false, err
		}
	}
	w, err := pp.DecodeValue(res.Witness)
	if err != nil {
		return false, nil
	}
	if err := m.ChargeModExp(len(res.Witness), pp.Size(), x); err != nil {
		return false, err
	}
	return pp.VerifyMem(ac, x, w), nil
}

// VerifyResponse verifies a full search response against the request it
// answers, under the contract's response rule: exactly one result per
// requested token, result i answering token i, so a lazy cloud can neither
// drop tokens whose results it does not want to return nor pad or reorder.
//
// Algorithm 5 is independent per token result, so the per-result proof
// checks (multiset hash + hash-to-prime + witness modexp) fan out across
// one worker per available core. The outcome — including which result's
// error is reported — is the serial loop's at any GOMAXPROCS.
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
	return ForEachIndexed(len(resp.Results), runtime.GOMAXPROCS(0), func(i int) error {
		ok, err := VerifyTokenResult(pp, ac, resp.Results[i], nil)
		if err != nil {
			return err
		}
		if !ok {
			return &VerificationError{TokenIndex: i, Phase: PhaseMembership,
				Detail: "invalid membership proof"}
		}
		return nil
	})
}

// VerifyResponseObserved is VerifyResponse with observability: the whole
// Algorithm-5 pass is timed into h and recorded as a "verify" span on tr.
// Either (or both) may be nil; the verification outcome is identical in
// every case.
func VerifyResponseObserved(pp *accumulator.PublicParams, ac *big.Int, req *SearchRequest, resp *SearchResponse, h *obs.Histogram, tr *obs.Trace) error {
	done := obs.StartPhase(h, tr, "verify")
	err := VerifyResponse(pp, ac, req, resp)
	if err == nil {
		done() // failed verifications don't pollute the latency histogram
	}
	return err
}

// sameToken compares two tokens in constant time; the contract compares the
// same sequence through the tokens hash the user escrowed.
func sameToken(a, b SearchToken) bool {
	return a.Epoch == b.Epoch && subtle.ConstantTimeCompare(a.Trapdoor, b.Trapdoor)&
		subtle.ConstantTimeCompare(a.G1, b.G1)&subtle.ConstantTimeCompare(a.G2, b.G2) == 1
}
