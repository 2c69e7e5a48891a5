package core

import (
	"errors"
	"fmt"
	"math/big"

	"slicer/internal/accumulator"
	"slicer/internal/mhash"
	"slicer/internal/obs"
)

// Verification phases, naming which check of Algorithm 5 a response failed.
const (
	// PhaseCompleteness: the response does not answer every requested token
	// exactly once (a lazy cloud dropped or padded results).
	PhaseCompleteness = "completeness"
	// PhaseOrder: a result answers a token the request never issued — the
	// response does not respect the requested token multiset.
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

// VerifyTokenResult runs Algorithm 5 for a single token result against the
// accumulation value ac (fetched from the blockchain): recompute the
// multiset hash of the returned encrypted results, re-derive the prime
// representative and check the membership witness.
func VerifyTokenResult(pp *accumulator.PublicParams, ac *big.Int, res TokenResult) bool {
	h := mhash.OfMultiset(res.ER)
	x := tokenPrime(res.Token.Trapdoor, res.Token.Epoch, res.Token.G1, res.Token.G2, h)
	w, err := pp.DecodeValue(res.Witness)
	if err != nil {
		return false
	}
	return pp.VerifyMem(ac, x, w)
}

// VerifyResponse verifies a full search response against the request it
// answers. It enforces completeness at the response level too: the cloud
// must answer every requested token exactly once, otherwise a lazy cloud
// could silently drop tokens whose results it does not want to return.
//
// Algorithm 5 is independent per token result, so the per-result proof
// checks (multiset hash + hash-to-prime + witness modexp) fan out across
// one worker per available core. Use VerifyResponseWorkers to bound the
// fan-out (workers = 1 reproduces the serial loop exactly); either way the
// outcome — including which result's error is reported — is deterministic.
func VerifyResponse(pp *accumulator.PublicParams, ac *big.Int, req *SearchRequest, resp *SearchResponse) error {
	return VerifyResponseWorkers(pp, ac, req, resp, 0)
}

// VerifyResponseObserved is VerifyResponse with observability: the whole
// Algorithm-5 pass is timed into h and recorded as a "verify" span on tr.
// Either (or both) may be nil; the verification outcome is identical in
// every case.
func VerifyResponseObserved(pp *accumulator.PublicParams, ac *big.Int, req *SearchRequest, resp *SearchResponse, h *obs.Histogram, tr *obs.Trace) error {
	done := obs.StartPhase(h, tr, "verify")
	err := VerifyResponseWorkers(pp, ac, req, resp, 0)
	if err == nil {
		done() // failed verifications don't pollute the latency histogram
	}
	return err
}

// VerifyResponseWorkers is VerifyResponse with an explicit fan-out bound:
// 0 uses one worker per available core, 1 verifies serially.
func VerifyResponseWorkers(pp *accumulator.PublicParams, ac *big.Int, req *SearchRequest, resp *SearchResponse, workers int) error {
	if len(resp.Results) != len(req.Tokens) {
		return &VerificationError{TokenIndex: -1, Phase: PhaseCompleteness,
			Detail: fmt.Sprintf("%d results for %d tokens", len(resp.Results), len(req.Tokens))}
	}
	// Response-level completeness accounting is sequential (shared map,
	// negligible cost); only the per-result cryptographic checks fan out.
	remaining := make(map[string]int, len(req.Tokens))
	for _, tok := range req.Tokens {
		remaining[tokenKey(tok)]++
	}
	for i, res := range resp.Results {
		key := tokenKey(res.Token)
		if remaining[key] == 0 {
			return &VerificationError{TokenIndex: i, Phase: PhaseOrder,
				Detail: "answers a token that was not requested"}
		}
		remaining[key]--
	}
	return ForEachIndexed(len(resp.Results), EffectiveWorkers(workers), func(i int) error {
		if !VerifyTokenResult(pp, ac, resp.Results[i]) {
			return &VerificationError{TokenIndex: i, Phase: PhaseMembership,
				Detail: "invalid membership proof"}
		}
		return nil
	})
}

func tokenKey(tok SearchToken) string {
	key := make([]byte, 0, len(tok.Trapdoor)+8+len(tok.G1)+len(tok.G2))
	key = append(key, tok.Trapdoor...)
	key = append(key,
		byte(tok.Epoch>>56), byte(tok.Epoch>>48), byte(tok.Epoch>>40), byte(tok.Epoch>>32),
		byte(tok.Epoch>>24), byte(tok.Epoch>>16), byte(tok.Epoch>>8), byte(tok.Epoch))
	key = append(key, tok.G1...)
	return string(append(key, tok.G2...))
}
