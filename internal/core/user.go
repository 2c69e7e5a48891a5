package core

import (
	"fmt"
	"sort"

	"slicer/internal/prf"
	"slicer/internal/sore"
	"slicer/internal/store"
	"slicer/internal/symenc"
)

// User is an authorized data user. It holds the secret keys (K, K_R) and
// the trapdoor state dictionary T handed out by the owner, generates search
// tokens (Algorithm 3) and decrypts verified results.
type User struct {
	params Params
	gKey   prf.Key
	enc    *symenc.Cipher
	scheme *sore.Scheme
	states *store.TrapdoorStates
}

// NewUser constructs a user from the owner's ClientState package.
func NewUser(st *ClientState) (*User, error) {
	if err := st.Params.validate(); err != nil {
		return nil, err
	}
	master, err := prf.KeyFromBytes(st.MasterKey)
	if err != nil {
		return nil, fmt.Errorf("user keys: %w", err)
	}
	enc, err := symenc.NewCipher(st.EncKey)
	if err != nil {
		return nil, fmt.Errorf("user keys: %w", err)
	}
	scheme, err := sore.New(master.SubKey("sore"), st.Params.Bits)
	if err != nil {
		return nil, err
	}
	states := st.States
	if states == nil {
		states = store.NewTrapdoorStates()
	}
	return &User{
		params: st.Params,
		gKey:   master.SubKey("G"),
		enc:    enc,
		scheme: scheme,
		states: states.Clone(),
	}, nil
}

// UpdateStates replaces the user's trapdoor dictionary with a newer copy
// (the owner re-distributes T after each Insert, Algorithm 2 line 28).
func (u *User) UpdateStates(states *store.TrapdoorStates) {
	u.states = states.Clone()
}

// Token runs Algorithm 3: it slices the query into keywords (one equality
// keyword, or up to b order tuples), and emits a search token for every
// keyword present in T. Keywords absent from T match no record and are
// silently skipped, exactly as in the paper.
func (u *User) Token(q Query) (*SearchRequest, error) {
	var keywords [][]byte
	attr := []byte(q.Attr)
	switch q.Op {
	case OpEqual:
		if u.params.Bits < 64 && q.Value >= 1<<uint(u.params.Bits) {
			return nil, fmt.Errorf("core: query value %d exceeds %d bits", q.Value, u.params.Bits)
		}
		keywords = [][]byte{sore.EqualityKeyword(attr, u.params.Bits, q.Value)}
	case OpLess, OpGreater:
		oc, err := q.Op.cond()
		if err != nil {
			return nil, err
		}
		tuples, err := u.scheme.TokenTuples(attr, q.Value, oc)
		if err != nil {
			return nil, err
		}
		keywords = tuples
	default:
		return nil, fmt.Errorf("core: unsupported operator %v", q.Op)
	}

	return u.tokensFor(keywords), nil
}

// tokensFor emits one search token per keyword present in T. A token owns
// its trapdoor bytes: T's slices are shared with the owner and with every
// other snapshot, and a token travels to code that may write to it.
func (u *User) tokensFor(keywords [][]byte) *SearchRequest {
	req := &SearchRequest{}
	for _, w := range keywords {
		st, ok := u.states.Get(w)
		if !ok {
			continue
		}
		req.Tokens = append(req.Tokens, SearchToken{
			Trapdoor: append([]byte(nil), st.Trapdoor...),
			Epoch:    st.Epoch,
			G1:       u.gKey.EvalConcat(w, []byte{1}),
			G2:       u.gKey.EvalConcat(w, []byte{2}),
		})
	}
	return req
}

// RangeTokens generates search tokens for an inclusive range [lo, hi] via
// the prefix-cover index: the range decomposes into its canonical prefix
// nodes and each existing node becomes one exact keyword token. Requires a
// deployment built with Params.PrefixIndex.
func (u *User) RangeTokens(attr string, lo, hi uint64) (*SearchRequest, error) {
	if !u.params.PrefixIndex {
		return nil, fmt.Errorf("core: prefix-cover range search needs Params.PrefixIndex")
	}
	nodes, err := sore.RangeCover(u.params.Bits, lo, hi)
	if err != nil {
		return nil, err
	}
	// A node no record carries has no keyword in T and yields no token.
	return u.tokensFor(sore.CoverKeywords([]byte(attr), u.params.Bits, nodes)), nil
}

// Decrypt recovers the matching record IDs from a (verified) search
// response. IDs are deduplicated and returned sorted.
func (u *User) Decrypt(resp *SearchResponse) ([]uint64, error) {
	seen := make(map[uint64]struct{})
	for _, res := range resp.Results {
		for _, er := range res.ER {
			var block [symenc.BlockSize]byte
			if len(er) != symenc.BlockSize {
				return nil, fmt.Errorf("core: malformed encrypted handle of %d bytes", len(er))
			}
			copy(block[:], er)
			id, err := u.enc.DecryptID(block)
			if err != nil {
				return nil, fmt.Errorf("decrypt result: %w", err)
			}
			seen[id] = struct{}{}
		}
	}
	ids := make([]uint64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
