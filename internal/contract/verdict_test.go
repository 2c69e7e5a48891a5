package contract

import (
	"encoding/json"
	"math/big"
	"slices"
	"strings"
	"testing"

	"slicer/internal/chain"
	"slicer/internal/core"
)

// verdicts judges responses to one escrowed multi-token request both ways:
// the data user's core.VerifyResponse and the contract's SubmitResult. The
// submission runs as a static call, which executes the contract exactly as a
// mined one would but leaves the escrow pending, so every response is
// judged against the same request.
type verdicts struct {
	f     *fixture
	req   *core.SearchRequest
	reqID chain.Hash
}

func newVerdicts(tb testing.TB) *verdicts {
	f := newFixture(tb, testDB)
	req, err := f.user.Token(core.Greater(4))
	if err != nil {
		tb.Fatal(err)
	}
	if len(req.Tokens) < 2 {
		tb.Fatalf("want a multi-token request, got %d tokens", len(req.Tokens))
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		tb.Fatal(err)
	}
	reqID := chain.HashBytes([]byte("verdicts"))
	if r := f.mine(&chain.Transaction{From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		Value: 1000, GasLimit: 1_000_000, Data: RequestData(reqID, f.cloudAddr, th)}); !r.Status {
		tb.Fatalf("request reverted: %s", r.Err)
	}
	return &verdicts{f: f, req: req, reqID: reqID}
}

// honest returns the cloud's answer as a deep copy, which a mutation may
// change without touching the cloud's index.
func (v *verdicts) honest(tb testing.TB) *core.SearchResponse {
	resp, err := v.f.cloud.Search(v.req)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		tb.Fatal(err)
	}
	var out core.SearchResponse
	if err := json.Unmarshal(b, &out); err != nil {
		tb.Fatal(err)
	}
	return &out
}

// local reports whether the data user's check accepts resp.
func (v *verdicts) local(resp *core.SearchResponse) bool {
	return core.VerifyResponse(v.f.owner.AccumulatorPub(), v.f.owner.Ac(), v.req, resp) == nil
}

// onChain submits resp with ac and reports whether the contract settles; err
// is the revert, if it reverts.
func (v *verdicts) onChain(tb testing.TB, resp *core.SearchResponse, ac *big.Int) (bool, error) {
	data, err := SubmitData(v.reqID, v.f.owner.AccumulatorPub().Marshal(), ac, resp.Results)
	if err != nil {
		tb.Fatal(err)
	}
	ret, _, err := v.f.network.Leader().CallStatic(v.f.cloudAddr, v.f.contractAddr, data, 10_000_000)
	if err != nil {
		return false, err
	}
	return len(ret) == 1 && ret[0] == 1, nil
}

// mutations tamper with a response the ways a cheating cloud could. pick(n)
// draws each choice in [0, n) — which result, which byte — and a mutation
// that does not apply to the response leaves it alone.
var mutations = []struct {
	name  string
	apply func(r *core.SearchResponse, pick func(n int) int)
}{
	{"permute", func(r *core.SearchResponse, pick func(int) int) {
		if i, j, ok := twoOf(len(r.Results), pick); ok {
			r.Results[i], r.Results[j] = r.Results[j], r.Results[i]
		}
	}},
	{"drop", func(r *core.SearchResponse, pick func(int) int) {
		if n := len(r.Results); n > 0 {
			i := pick(n)
			r.Results = append(r.Results[:i], r.Results[i+1:]...)
		}
	}},
	{"duplicate", func(r *core.SearchResponse, pick func(int) int) {
		if n := len(r.Results); n > 0 {
			i := pick(n)
			r.Results = slices.Insert(r.Results, i, r.Results[i])
		}
	}},
	{"pad witness", func(r *core.SearchResponse, pick func(int) int) {
		if n := len(r.Results); n > 0 {
			w := &r.Results[pick(n)].Witness
			*w = append([]byte{0}, *w...)
		}
	}},
	{"strip witness byte", func(r *core.SearchResponse, pick func(int) int) {
		if n := len(r.Results); n > 0 {
			w := &r.Results[pick(n)].Witness
			if len(*w) > 0 {
				k := pick(len(*w))
				*w = append((*w)[:k:k], (*w)[k+1:]...)
			}
		}
	}},
	{"flip er byte", func(r *core.SearchResponse, pick func(int) int) {
		var withER []int
		for i := range r.Results {
			if len(r.Results[i].ER) > 0 {
				withER = append(withER, i)
			}
		}
		if len(withER) == 0 {
			return
		}
		ers := r.Results[withER[pick(len(withER))]].ER
		er := ers[pick(len(ers))]
		if len(er) > 0 {
			er[pick(len(er))] ^= byte(1 + pick(255))
		}
	}},
	{"swap witnesses", func(r *core.SearchResponse, pick func(int) int) {
		if i, j, ok := twoOf(len(r.Results), pick); ok {
			r.Results[i].Witness, r.Results[j].Witness = r.Results[j].Witness, r.Results[i].Witness
		}
	}},
}

// twoOf picks two distinct indexes below n.
func twoOf(n int, pick func(int) int) (int, int, bool) {
	if n < 2 {
		return 0, 0, false
	}
	i := pick(n)
	return i, (i + 1 + pick(n-1)) % n, true
}

// TestVerdictsAgree requires that the data user accepts a response exactly
// when the contract settles it, for the honest response and for one of each
// mutation, and that every mutation is refunded; a stale Ac reverts.
func TestVerdictsAgree(t *testing.T) {
	v := newVerdicts(t)
	resp := v.honest(t)
	if settled, err := v.onChain(t, resp, v.f.owner.Ac()); err != nil || !settled || !v.local(resp) {
		t.Fatalf("honest response: settled %v (revert %v), accepted locally %v", settled, err, v.local(resp))
	}
	first := func(int) int { return 0 }
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			resp := v.honest(t)
			m.apply(resp, first)
			settled, err := v.onChain(t, resp, v.f.owner.Ac())
			if err != nil {
				t.Fatalf("submission reverted: %v", err)
			}
			if accepted := v.local(resp); accepted != settled || settled {
				t.Fatalf("accepted locally %v, settled on chain %v; want both false", accepted, settled)
			}
		})
	}
	t.Run("stale Ac", func(t *testing.T) {
		stale := v.f.owner.Ac()
		if _, err := v.f.owner.Insert([]core.Record{core.NewRecord(6, 5)}); err != nil {
			t.Fatal(err)
		}
		if r := v.f.mine(&chain.Transaction{From: v.f.ownerAddr, To: v.f.contractAddr,
			Nonce: v.f.nonce(v.f.ownerAddr), GasLimit: 1_000_000, Data: SetAcData(v.f.owner.Ac())}); !r.Status {
			t.Fatalf("SetAc reverted: %s", r.Err)
		}
		if _, err := v.onChain(t, v.honest(t), stale); err == nil || !strings.Contains(err.Error(), "stale") {
			t.Fatalf("a stale Ac does not revert: %v", err)
		}
	})
}

// FuzzVerdictsAgree applies the mutations the fuzz bytes choose, in turn,
// and requires the two verdicts to agree on the result. Seed k is the table's
// case for mutation k; the empty seed is the honest response.
func FuzzVerdictsAgree(f *testing.F) {
	f.Add([]byte{})
	for k := range mutations {
		f.Add([]byte{byte(k)})
	}
	v := newVerdicts(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := func(n int) int {
			if len(data) == 0 || n <= 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		resp := v.honest(t)
		for len(data) > 0 {
			mutations[pick(len(mutations))].apply(resp, pick)
		}
		settled, err := v.onChain(t, resp, v.f.owner.Ac())
		if err != nil {
			t.Fatalf("submission reverted: %v", err)
		}
		if accepted := v.local(resp); accepted != settled {
			t.Fatalf("accepted locally %v, settled on chain %v", accepted, settled)
		}
	})
}
