package contract

import (
	"bytes"
	"testing"
	"testing/quick"

	"slicer/internal/chain"
	"slicer/internal/core"
)

func sampleToken(seed byte) core.SearchToken {
	return core.SearchToken{
		Trapdoor: bytes.Repeat([]byte{seed}, 32),
		Epoch:    int(seed),
		G1:       bytes.Repeat([]byte{seed + 1}, 16),
		G2:       bytes.Repeat([]byte{seed + 2}, 16),
	}
}

func tokensEqual(a, b core.SearchToken) bool {
	return bytes.Equal(a.Trapdoor, b.Trapdoor) && a.Epoch == b.Epoch &&
		bytes.Equal(a.G1, b.G1) && bytes.Equal(a.G2, b.G2)
}

func TestTokenRoundTrip(t *testing.T) {
	f := func(trapdoor, g1, g2 []byte, epoch uint16) bool {
		tok := core.SearchToken{Trapdoor: trapdoor, Epoch: int(epoch), G1: g1, G2: g2}
		enc, err := EncodeToken(nil, tok)
		if err != nil {
			return false
		}
		got, rest, err := DecodeToken(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		// nil and empty slices are equivalent on the wire.
		return bytes.Equal(got.Trapdoor, trapdoor) && got.Epoch == int(epoch) &&
			bytes.Equal(got.G1, g1) && bytes.Equal(got.G2, g2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	results := []core.TokenResult{
		{
			Token:   sampleToken(1),
			ER:      [][]byte{bytes.Repeat([]byte{9}, 16), bytes.Repeat([]byte{8}, 16)},
			Witness: bytes.Repeat([]byte{7}, 64),
		},
		{
			Token:   sampleToken(5),
			ER:      nil, // empty result set
			Witness: bytes.Repeat([]byte{6}, 64),
		},
	}
	enc, err := EncodeResults(results)
	if err != nil {
		t.Fatalf("EncodeResults: %v", err)
	}
	got, rest, err := DecodeResults(enc)
	if err != nil {
		t.Fatalf("DecodeResults: %v", err)
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	if len(got) != len(results) {
		t.Fatalf("decoded %d results, want %d", len(got), len(results))
	}
	for i := range results {
		if !tokensEqual(got[i].Token, results[i].Token) {
			t.Errorf("result %d token mismatch", i)
		}
		if len(got[i].ER) != len(results[i].ER) {
			t.Errorf("result %d ER count mismatch", i)
		}
		for k := range results[i].ER {
			if !bytes.Equal(got[i].ER[k], results[i].ER[k]) {
				t.Errorf("result %d er %d mismatch", i, k)
			}
		}
		if !bytes.Equal(got[i].Witness, results[i].Witness) {
			t.Errorf("result %d witness mismatch", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	results := []core.TokenResult{{
		Token:   sampleToken(1),
		ER:      [][]byte{bytes.Repeat([]byte{9}, 16)},
		Witness: bytes.Repeat([]byte{7}, 64),
	}}
	enc, err := EncodeResults(results)
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail rather than decode garbage. (Prefixes
	// that happen to parse as a shorter valid message are acceptable for a
	// length-prefixed codec only if all counts still match; with a single
	// result that never happens before the final byte.)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeResults(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(enc))
		}
	}
}

func TestTokensHashBindsContent(t *testing.T) {
	t1 := []core.SearchToken{sampleToken(1), sampleToken(2)}
	t2 := []core.SearchToken{sampleToken(1), sampleToken(3)}
	t3 := []core.SearchToken{sampleToken(2), sampleToken(1)} // order matters
	h1, err := TokensHash(t1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := TokensHash(t2)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := TokensHash(t3)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 || h1 == h3 {
		t.Error("tokens hash does not bind content/order")
	}
	h1b, err := TokensHash(t1)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h1b {
		t.Error("tokens hash not deterministic")
	}
}

func TestEncodeTokenRejectsOversized(t *testing.T) {
	tok := core.SearchToken{Trapdoor: make([]byte, 70000)}
	if _, err := EncodeToken(nil, tok); err == nil {
		t.Error("oversized trapdoor accepted")
	}
}

// hostileERCount is one result whose er count, 0x7fffffff, is followed by
// nothing: a decoder that sizes the er slice by the count before reading the
// elements asks the runtime for two billion slice headers and dies with a
// fatal out-of-memory error, which no recover can catch.
func hostileERCount(tb testing.TB) []byte {
	data, err := EncodeToken([]byte{0, 1}, sampleToken(3))
	if err != nil {
		tb.Fatal(err)
	}
	return append(data, 0x7f, 0xff, 0xff, 0xff)
}

// TestDecodeResultsCapsCounts: a count larger than the remaining bytes could
// hold fails the decode, and a submission carrying one reverts with the
// escrow still pending instead of stopping the chain node that executes it.
func TestDecodeResultsCapsCounts(t *testing.T) {
	for _, data := range [][]byte{hostileERCount(t), {0xff, 0xff}} {
		if _, _, err := DecodeResults(data); err == nil {
			t.Fatalf("DecodeResults(%x) succeeded", data)
		}
	}

	f := newFixture(t, testDB)
	req, err := f.user.Token(core.Equal(5))
	if err != nil {
		t.Fatal(err)
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	reqID := chain.HashBytes([]byte("hostile count"))
	if r := f.mine(&chain.Transaction{From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		Value: 100, GasLimit: 1_000_000, Data: RequestData(reqID, f.cloudAddr, th)}); !r.Status {
		t.Fatalf("request reverted: %s", r.Err)
	}
	data, err := SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:len(data)-2], hostileERCount(t)...) // no results -> the hostile one
	if r := f.mine(&chain.Transaction{From: f.cloudAddr, To: f.contractAddr, Nonce: f.nonce(f.cloudAddr),
		GasLimit: 10_000_000, Data: data}); r.Status {
		t.Fatal("submission with a hostile er count did not revert")
	}
	if got := f.requestStatus(reqID); got != StatusPending {
		t.Fatalf("request status = %d, want pending", got)
	}
}

// TestDecodeResultsCopiesEntries: a token's er entries share one backing
// array, apart from the calldata and each capped at its own length, so
// neither a write to the calldata nor an append to one entry reaches another.
func TestDecodeResultsCopiesEntries(t *testing.T) {
	results := []core.TokenResult{{
		Token:   sampleToken(2),
		ER:      [][]byte{bytes.Repeat([]byte{1}, 16), {}, bytes.Repeat([]byte{3}, 16)},
		Witness: bytes.Repeat([]byte{4}, 32),
	}}
	enc, err := EncodeResults(results)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeResults(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] ^= 0xff
	}
	_ = append(got[0].ER[0], 9)
	_ = append(got[0].ER[1], 9)
	for k, er := range results[0].ER {
		if !bytes.Equal(got[0].ER[k], er) || cap(got[0].ER[k]) != len(er) {
			t.Errorf("er %d = %x (cap %d), want %x", k, got[0].ER[k], cap(got[0].ER[k]), er)
		}
	}
	enc, err = EncodeResults(results)
	if err != nil {
		t.Fatal(err)
	}
	// The result slice, then per token its trapdoor, G1, G2, er headers, er
	// bytes and witness.
	if allocs := testing.AllocsPerRun(10, func() { _, _, _ = DecodeResults(enc) }); allocs != 7 {
		t.Errorf("DecodeResults allocates %v times for one token, want 7", allocs)
	}
}
