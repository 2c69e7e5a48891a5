// Package core implements the Slicer protocols: Build (Algorithm 1), Insert
// (Algorithm 2), search token generation (Algorithm 3), cloud search with
// verification-object generation (Algorithm 4) and result verification
// (Algorithm 5), plus the deletion/update extension (§V-F) via twin
// instances.
//
// The package is organized around the paper's four parties:
//
//	Owner    — holds all secrets; builds the encrypted index and ADS.
//	User     — holds (K, K_R, T); generates search tokens and decrypts.
//	Cloud    — holds the index, the prime list X and accumulator public
//	           parameters; answers searches and produces VOs.
//	Verify() — the pure verification function executed by the blockchain
//	           smart contract (package contract meters it for gas).
//
// Concurrency: Cloud is safe for concurrent use — Search, SearchResults,
// AttachWitnesses and the read-only stats accessors take a read lock, while
// ApplyUpdate takes the write lock, so any number of users can query one
// cloud while the owner ships insert deltas. Within one request the cloud
// additionally fans per-token work across one worker per core
// (ForEachIndexed at GOMAXPROCS; at 1 it is the serial pipeline), and
// VerifyResponse parallelizes Algorithm 5 the same way. Owner and User
// remain single-writer types: callers that share them across goroutines
// must serialize mutations (concurrent read-only use — Token generation,
// Decrypt — is safe). Owner.Build/Insert and the cloud's witness rebuild
// also fan CPU-bound crypto across cores internally.
package core

import (
	"errors"
	"fmt"

	"slicer/internal/accumulator"
	"slicer/internal/sore"
	"slicer/internal/trapdoor"
)

// Op is a query matching condition from the data user's perspective.
type Op int

// Query operators. OpLess selects records whose value is strictly below the
// query value (the paper's oc ">" — query value greater than answer), and
// OpGreater selects records strictly above it (oc "<").
const (
	OpEqual Op = iota + 1
	OpLess
	OpGreater
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpEqual:
		return "="
	case OpLess:
		return "<"
	case OpGreater:
		return ">"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// cond maps a user-facing operator to the paper's order condition carried
// inside tokens: records a with a < v are exactly those with "v > a".
func (op Op) cond() (sore.Cond, error) {
	switch op {
	case OpLess:
		return sore.Greater, nil
	case OpGreater:
		return sore.Less, nil
	default:
		return 0, fmt.Errorf("core: operator %v has no order condition", op)
	}
}

// AttrValue is one attribute of a record.
type AttrValue struct {
	Name  string
	Value uint64
}

// Record is a key-value database record: a unique ID and one or more named
// numerical attributes. Single-attribute databases use one AttrValue with an
// empty name.
type Record struct {
	ID    uint64
	Attrs []AttrValue
}

// NewRecord builds a single-attribute record.
func NewRecord(id, value uint64) Record {
	return Record{ID: id, Attrs: []AttrValue{{Value: value}}}
}

// Query is a search request: an operator over one attribute's value.
type Query struct {
	Attr  string
	Op    Op
	Value uint64
}

// Equal / Less / Greater are query constructors for single-attribute
// databases.
func Equal(v uint64) Query   { return Query{Op: OpEqual, Value: v} }
func Less(v uint64) Query    { return Query{Op: OpLess, Value: v} }
func Greater(v uint64) Query { return Query{Op: OpGreater, Value: v} }

// Params fixes the public parameters of a Slicer deployment.
type Params struct {
	// Bits is the value bit width b (1..64). The paper evaluates 8/16/24.
	Bits int
	// TrapdoorBits is the RSA modulus size of the trapdoor permutation.
	TrapdoorBits int
	// AccumulatorBits is the RSA modulus size of the accumulator.
	AccumulatorBits int
	// PrefixIndex additionally indexes every record under its b bit-prefix
	// keywords, enabling prefix-cover range search (User.RangeTokens): an
	// inclusive range resolves to at most 2(b-1) exact keyword lookups with
	// no client-side intersection, at the cost of b extra index entries per
	// record per attribute. Extension beyond the paper; see DESIGN.md.
	PrefixIndex bool
}

// DefaultParams returns the benchmark parameterization used throughout the
// evaluation (matching the paper's lightweight prototype setting).
func DefaultParams(bits int) Params {
	return Params{
		Bits:            bits,
		TrapdoorBits:    trapdoor.DefaultModulusBits,
		AccumulatorBits: accumulator.DefaultModulusBits,
	}
}

func (p Params) validate() error {
	if p.Bits < 1 || p.Bits > sore.MaxBits {
		return fmt.Errorf("core: bits must be in [1,%d], got %d", sore.MaxBits, p.Bits)
	}
	if p.TrapdoorBits < 64 {
		return fmt.Errorf("core: trapdoor modulus %d too small", p.TrapdoorBits)
	}
	if p.AccumulatorBits < 64 {
		return fmt.Errorf("core: accumulator modulus %d too small", p.AccumulatorBits)
	}
	return nil
}

// SearchToken is one entry of Algorithm 3's output: the newest trapdoor,
// the epoch count j, and the index-addressing keys G1, G2.
type SearchToken struct {
	Trapdoor []byte `json:"t"`
	Epoch    int    `json:"j"`
	G1       []byte `json:"g1"`
	G2       []byte `json:"g2"`
}

// SearchRequest carries the token list for one query. Order queries hold up
// to b tokens (one per existing slice); equality queries hold at most one.
type SearchRequest struct {
	Tokens []SearchToken `json:"tokens"`
}

// TokenResult is the cloud's answer for a single token: the unmasked
// encrypted record handles er and the accumulator membership witness vo.
type TokenResult struct {
	Token   SearchToken `json:"token"`
	ER      [][]byte    `json:"er"`
	Witness []byte      `json:"vo"`
}

// SearchResponse is the cloud's full answer to a SearchRequest.
type SearchResponse struct {
	Results []TokenResult `json:"results"`
}

// Sentinel errors shared across the protocol roles.
var (
	// ErrDuplicateID is returned when inserting a record whose ID was
	// already inserted (the scheme forbids repetitive IDs, §V-F).
	ErrDuplicateID = errors.New("core: record ID already inserted")
	// ErrNotBuilt is returned when using a role before Build ran.
	ErrNotBuilt = errors.New("core: protocol state not initialized by Build")
	// ErrUnknownToken is returned by the cloud for tokens whose prime is
	// not in the accumulated set.
	ErrUnknownToken = errors.New("core: search token does not match any accumulated keyword")
	// ErrVerification is returned when a search response fails public
	// verification.
	ErrVerification = errors.New("core: result verification failed")
	// ErrAttrUnknown is returned for queries over undeclared attributes.
	ErrAttrUnknown = errors.New("core: record has no such attribute")
)
