// Package slicer is the public API of the Slicer library: verifiable,
// secure and fair search over encrypted numerical data using a blockchain
// (Wu, Song, Lei, Xiao — ICDCS 2022).
//
// Slicer lets a data owner outsource encrypted key-value records to an
// untrusted cloud while authorized data users run equality and order
// (range) queries whose results are publicly verifiable on a blockchain,
// so that neither a cheating cloud nor a repudiating user can defraud the
// other of the search fee.
//
// Two entry points are provided:
//
//   - Scheme wires owner, user and cloud in one process with local (off-
//     chain) verification — the fastest way to use the encrypted search.
//   - Deployment additionally runs a proof-of-authority blockchain with the
//     Slicer smart contract, escrowing search payments and settling them by
//     on-chain verification (the paper's full fairness story).
//
// See the examples directory for runnable end-to-end programs.
package slicer

import (
	"fmt"
	"math/big"

	"slicer/internal/accumulator"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// Re-exported protocol types. The core package holds the implementations;
// these aliases make the public surface self-contained.
type (
	// Record is an encrypted-search database record.
	Record = core.Record
	// AttrValue is one named numerical attribute of a record.
	AttrValue = core.AttrValue
	// Query is a search condition over one attribute.
	Query = core.Query
	// Op is a query operator.
	Op = core.Op
	// Params fixes a deployment's public parameters.
	Params = core.Params
	// SearchRequest is a token list produced by a data user.
	SearchRequest = core.SearchRequest
	// SearchResponse is a cloud's answer with verification objects.
	SearchResponse = core.SearchResponse
	// SearchToken is a single keyword token.
	SearchToken = core.SearchToken
	// TokenResult is the cloud's answer for one token.
	TokenResult = core.TokenResult
	// Owner is the data owner role.
	Owner = core.Owner
	// User is the data user role.
	User = core.User
	// Cloud is the search server role.
	Cloud = core.Cloud
	// WitnessMode selects the cloud's VO generation strategy.
	WitnessMode = core.WitnessMode
	// MetricsRegistry is the observability registry (see SetObservability).
	MetricsRegistry = obs.Registry
	// SearchTrace is a per-request span trace (see SearchTraced).
	SearchTrace = obs.Trace
	// SpanRecord is one completed phase of a SearchTrace.
	SpanRecord = obs.SpanRecord
	// TraceContext propagates a trace identity across a wire RPC.
	TraceContext = obs.TraceContext
	// TraceSummary is a completed span tree returned by a wire peer.
	TraceSummary = obs.TraceSummary
	// TraceStore retains finalized traces in bounded memory (/debug/traces).
	TraceStore = obs.TraceStore
)

// Query operators.
const (
	OpEqual   = core.OpEqual
	OpLess    = core.OpLess
	OpGreater = core.OpGreater
)

// Witness generation modes.
const (
	WitnessCached   = core.WitnessCached
	WitnessOnDemand = core.WitnessOnDemand
)

// Re-exported constructors.
var (
	// NewRecord builds a single-attribute record.
	NewRecord = core.NewRecord
	// Equal / Less / Greater build single-attribute queries.
	Equal   = core.Equal
	Less    = core.Less
	Greater = core.Greater
	// DefaultParams returns the evaluation parameterization for a bit width.
	DefaultParams = core.DefaultParams
	// NewOwner / NewUser / NewCloud expose the individual roles for callers
	// that deploy the parties on separate machines (see package wire).
	NewOwner = core.NewOwner
	NewUser  = core.NewUser
	NewCloud = core.NewCloud
	// NewMetricsRegistry creates an observability registry to attach with
	// Scheme.SetObservability / Deployment.SetObservability.
	NewMetricsRegistry = obs.NewRegistry
	// NewTraceStore creates a bounded trace retention store.
	NewTraceStore = obs.NewTraceStore
)

// Scheme is a single-process Slicer deployment: owner, one user and one
// cloud, with verification performed locally by the same algorithm the
// smart contract runs. Use Deployment for the on-chain fair-exchange flow.
type Scheme struct {
	owner *core.Owner
	user  *core.User
	cloud *wire.ObservedCloud
	met   schemeMetrics
}

// schemeMetrics are the client-pipeline instruments (token generation,
// cloud round trip, verification, decryption). The zero value is the
// disabled state — every instrument is nil-safe.
type schemeMetrics struct {
	searches   *obs.Counter
	ranges     *obs.Counter
	conj       *obs.Counter
	roundTrips *obs.Counter
	token      *obs.Histogram
	search     *obs.Histogram
	verify     *obs.Histogram
	decrypt    *obs.Histogram
}

func newSchemeMetrics(reg *obs.Registry) schemeMetrics {
	if reg == nil {
		return schemeMetrics{}
	}
	const phaseHelp = "Latency of one client search-pipeline phase, by phase."
	return schemeMetrics{
		searches:   reg.Counter("slicer_searches_total", "Verified searches run through the pipeline."),
		ranges:     reg.Counter("slicer_range_searches_total", "Range searches run."),
		conj:       reg.Counter("slicer_conjunctive_searches_total", "Conjunctive searches run."),
		roundTrips: reg.Counter("slicer_cloud_round_trips_total", "Cloud search round trips issued."),
		token:      reg.Histogram(obs.Label("slicer_pipeline_seconds", "phase", "token"), phaseHelp),
		search:     reg.Histogram(obs.Label("slicer_pipeline_seconds", "phase", "cloud_search"), phaseHelp),
		verify:     reg.Histogram(obs.Label("slicer_pipeline_seconds", "phase", "verify"), phaseHelp),
		decrypt:    reg.Histogram(obs.Label("slicer_pipeline_seconds", "phase", "decrypt"), phaseHelp),
	}
}

// SetObservability attaches a metrics registry to the scheme: the client
// pipeline records per-phase latency histograms (token generation, cloud
// round trip, verification, decryption) and the in-process cloud records
// its own series into the same registry. A nil registry detaches.
// Observability never changes any search output.
func (s *Scheme) SetObservability(reg *obs.Registry) {
	s.met = newSchemeMetrics(reg)
	s.cloud = wire.ObserveCloud(s.cloud.Cloud, reg)
}

// NewScheme creates a deployment over an initial database.
func NewScheme(params Params, db []Record) (*Scheme, error) {
	owner, err := core.NewOwner(params)
	if err != nil {
		return nil, err
	}
	out, err := owner.Build(db)
	if err != nil {
		return nil, err
	}
	cloud, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessCached)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		return nil, err
	}
	return &Scheme{owner: owner, user: user, cloud: wire.ObserveCloud(cloud, nil)}, nil
}

// Owner / User / Cloud expose the underlying roles.
func (s *Scheme) Owner() *core.Owner { return s.owner }
func (s *Scheme) User() *core.User   { return s.user }
func (s *Scheme) Cloud() *core.Cloud { return s.cloud.Cloud }

// Verify publicly verifies a search response against the request it
// answers, using the deployment's current accumulation value — the same
// Algorithm 5 the smart contract meters. Callers composing their own
// token/search flows (e.g. against a remote cloud) use this before
// Decrypt.
func (s *Scheme) Verify(req *SearchRequest, resp *SearchResponse) error {
	return core.VerifyResponse(s.owner.AccumulatorPub(), s.owner.Ac(), req, resp)
}

// VerifyResponseObserved is core.VerifyResponse with observability: the
// whole Algorithm-5 pass is timed into h and recorded as a "verify" span on
// tr. Either (or both) may be nil; the verification outcome is identical in
// every case.
func VerifyResponseObserved(pp *accumulator.PublicParams, ac *big.Int, req *SearchRequest, resp *SearchResponse, h *obs.Histogram, tr *obs.Trace) error {
	done := obs.StartPhase(h, tr, "verify")
	err := core.VerifyResponse(pp, ac, req, resp)
	if err == nil {
		done() // failed verifications don't pollute the latency histogram
	}
	return err
}

// Insert adds records: the owner re-indexes, the cloud applies the delta
// and the user receives the refreshed trapdoor states.
func (s *Scheme) Insert(records []Record) error {
	out, err := s.owner.Insert(records)
	if err != nil {
		return err
	}
	if err := s.cloud.ApplyUpdate(out); err != nil {
		return err
	}
	s.user.UpdateStates(s.owner.StatesSnapshot())
	return nil
}

// Search runs the full verified pipeline for one query: token generation,
// cloud search, verification (Algorithm 5) against the owner's current Ac,
// and decryption. It returns the matching record IDs.
func (s *Scheme) Search(q Query) ([]uint64, error) {
	return s.searchObserved(q, nil)
}

// SearchTraced runs Search while recording a per-request span trace of
// every pipeline phase — client token generation, the cloud's per-token
// index walk and witness computation, verification and decryption. The
// trace is returned alongside the results for dumping (Trace.WriteText)
// or structured export; phase latencies also land in the registry
// attached with SetObservability, if any.
func (s *Scheme) SearchTraced(q Query) ([]uint64, *SearchTrace, error) {
	tr := obs.NewTrace("search")
	ids, err := s.searchObserved(q, tr)
	return ids, tr, err
}

func (s *Scheme) searchObserved(q Query, tr *obs.Trace) ([]uint64, error) {
	s.met.searches.Inc()
	done := obs.StartPhase(s.met.token, tr, "token")
	req, err := s.user.Token(q)
	if err != nil {
		return nil, err
	}
	done()
	s.met.roundTrips.Inc()
	done = obs.StartPhase(s.met.search, tr, "cloud_search")
	resp, err := s.cloud.SearchTraced(req, tr)
	if err != nil {
		return nil, err
	}
	done()
	if err := VerifyResponseObserved(s.owner.AccumulatorPub(), s.owner.Ac(), req, resp, s.met.verify, tr); err != nil {
		return nil, err
	}
	done = obs.StartPhase(s.met.decrypt, tr, "decrypt")
	ids, err := s.user.Decrypt(resp)
	if err != nil {
		return nil, err
	}
	done()
	return ids, nil
}

// RangeSearch returns the IDs of records whose attribute value lies in the
// inclusive range [lo, hi]. It is an extension over the paper's one-sided
// conditions. Two strategies are available:
//
//   - Default: both one-sided conditions resolve to token lists that are
//     merged into a single SearchRequest — one cloud round trip and one
//     verification for the whole range — and the intersection is taken
//     client side, so completeness follows from the completeness of each
//     side.
//   - With Params.PrefixIndex: the range decomposes into its canonical
//     prefix cover and resolves as exact keyword lookups — fewer fetched
//     records, one verified result set per cover node.
func (s *Scheme) RangeSearch(attr string, lo, hi uint64) ([]uint64, error) {
	if lo > hi {
		return nil, fmt.Errorf("slicer: empty range [%d,%d]", lo, hi)
	}
	s.met.ranges.Inc()
	if s.owner.Params().PrefixIndex {
		return s.prefixRangeSearch(attr, lo, hi)
	}
	maxVal := s.MaxValue()
	if hi > maxVal {
		return nil, fmt.Errorf("slicer: range bound %d exceeds %d-bit values", hi, s.owner.Params().Bits)
	}

	// a in [lo,hi]  <=>  a > lo-1  AND  a < hi+1, with saturated bounds
	// handled by dropping the vacuous side.
	haveLower, haveUpper := lo > 0, hi < maxVal
	switch {
	case haveLower && haveUpper:
		return s.searchPair(
			Query{Attr: attr, Op: OpGreater, Value: lo - 1},
			Query{Attr: attr, Op: OpLess, Value: hi + 1},
			intersectSorted)
	case haveLower:
		return s.Search(Query{Attr: attr, Op: OpGreater, Value: lo - 1})
	case haveUpper:
		return s.Search(Query{Attr: attr, Op: OpLess, Value: hi + 1})
	default:
		// The range covers the whole domain: equivalent to a < max with the
		// equality at max unioned in.
		return s.searchPair(
			Query{Attr: attr, Op: OpLess, Value: maxVal},
			Query{Attr: attr, Op: OpEqual, Value: maxVal},
			unionSorted)
	}
}

// searchPair answers two queries with one cloud round trip: their token
// lists merge into a single SearchRequest, the response is verified once
// (Algorithm 5 is per token, so verifying the merged response is exactly
// verifying both halves), and each query's result slice is decrypted
// separately before combining. The cloud keeps results in token order,
// which makes the split well defined.
func (s *Scheme) searchPair(a, b Query, combine func(x, y []uint64) []uint64) ([]uint64, error) {
	reqA, err := s.user.Token(a)
	if err != nil {
		return nil, err
	}
	reqB, err := s.user.Token(b)
	if err != nil {
		return nil, err
	}
	merged := &SearchRequest{Tokens: make([]SearchToken, 0, len(reqA.Tokens)+len(reqB.Tokens))}
	merged.Tokens = append(merged.Tokens, reqA.Tokens...)
	merged.Tokens = append(merged.Tokens, reqB.Tokens...)
	s.met.roundTrips.Inc()
	t0 := s.met.search.Start()
	resp, err := s.cloud.Search(merged)
	if err != nil {
		return nil, err
	}
	s.met.search.ObserveSince(t0)
	if err := VerifyResponseObserved(s.owner.AccumulatorPub(), s.owner.Ac(), merged, resp, s.met.verify, nil); err != nil {
		return nil, err
	}
	split := len(reqA.Tokens)
	idsA, err := s.user.Decrypt(&SearchResponse{Results: resp.Results[:split]})
	if err != nil {
		return nil, err
	}
	idsB, err := s.user.Decrypt(&SearchResponse{Results: resp.Results[split:]})
	if err != nil {
		return nil, err
	}
	return combine(idsA, idsB), nil
}

// prefixRangeSearch answers [lo, hi] through the prefix-cover index.
func (s *Scheme) prefixRangeSearch(attr string, lo, hi uint64) ([]uint64, error) {
	done := obs.StartPhase(s.met.token, nil, "token")
	req, err := s.user.RangeTokens(attr, lo, hi)
	if err != nil {
		return nil, err
	}
	done()
	s.met.roundTrips.Inc()
	t0 := s.met.search.Start()
	resp, err := s.cloud.Search(req)
	if err != nil {
		return nil, err
	}
	s.met.search.ObserveSince(t0)
	if err := VerifyResponseObserved(s.owner.AccumulatorPub(), s.owner.Ac(), req, resp, s.met.verify, nil); err != nil {
		return nil, err
	}
	t0 = s.met.decrypt.Start()
	ids, err := s.user.Decrypt(resp)
	if err != nil {
		return nil, err
	}
	s.met.decrypt.ObserveSince(t0)
	return ids, nil
}

// Condition is one attribute condition of a conjunctive search.
type Condition struct {
	Attr string
	// Lo and Hi bound the attribute inclusively. Use Lo==0 / Hi==MaxValue
	// for one-sided conditions.
	Lo, Hi uint64
}

// MaxValue returns the largest representable value of the deployment.
func (s *Scheme) MaxValue() uint64 {
	bits := s.owner.Params().Bits
	if bits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(bits) - 1
}

// ConjunctiveSearch returns the IDs of records satisfying every condition
// (an AND across attributes — e.g. age in [30,60] AND heart_rate > 100).
// Conditions are independent verified range searches, so they run
// concurrently (the Cloud is safe for concurrent queries); the intersection
// happens client side, so the result inherits each side's completeness.
// This extends the paper's multi-attribute extension (§V-F) with
// multi-condition queries. ConjunctiveSearch must not race Insert on the
// same Scheme — the usual single-writer discipline for Scheme mutations.
func (s *Scheme) ConjunctiveSearch(conds []Condition) ([]uint64, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("slicer: conjunctive search needs at least one condition")
	}
	s.met.conj.Inc()
	results := make([][]uint64, len(conds))
	err := core.ForEachIndexed(len(conds), len(conds), func(i int) error {
		c := conds[i]
		ids, err := s.RangeSearch(c.Attr, c.Lo, c.Hi)
		if err != nil {
			return fmt.Errorf("condition %d (%s in [%d,%d]): %w", i, c.Attr, c.Lo, c.Hi, err)
		}
		results[i] = ids
		return nil
	})
	if err != nil {
		return nil, err
	}
	acc := results[0]
	for _, ids := range results[1:] {
		acc = intersectSorted(acc, ids)
	}
	if len(acc) == 0 {
		return nil, nil
	}
	return acc, nil
}

// StatesLen reports how many keywords the deployment tracks (diagnostics).
func (s *Scheme) StatesLen() int { return s.owner.StatesLen() }

func intersectSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
