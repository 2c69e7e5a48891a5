package contract

import (
	"bytes"
	"testing"

	"slicer/internal/core"
)

// FuzzDecodeResults hardens the contract's calldata parser: arbitrary bytes
// must either fail cleanly or decode into results that re-encode to a
// semantically identical message (no panics, no silent truncation).
func FuzzDecodeResults(f *testing.F) {
	seed, err := EncodeResults([]core.TokenResult{{
		Token:   sampleToken(3),
		ER:      [][]byte{bytes.Repeat([]byte{1}, 16)},
		Witness: bytes.Repeat([]byte{2}, 32),
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add(hostileERCount(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		results, rest, err := DecodeResults(data)
		if err != nil {
			return
		}
		// Re-encode and re-decode: must agree.
		enc, err := EncodeResults(results)
		if err != nil {
			t.Fatalf("decoded results fail to re-encode: %v", err)
		}
		again, rest2, err := DecodeResults(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(again) != len(results) {
			t.Fatalf("round trip changed result count")
		}
		_ = rest
	})
}

// FuzzDecodeToken does the same for single tokens.
func FuzzDecodeToken(f *testing.F) {
	enc, err := EncodeToken(nil, sampleToken(9))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, _, err := DecodeToken(data)
		if err != nil {
			return
		}
		re, err := EncodeToken(nil, tok)
		if err != nil {
			t.Fatalf("decoded token fails to re-encode: %v", err)
		}
		tok2, rest, err := DecodeToken(re)
		if err != nil || len(rest) != 0 {
			t.Fatalf("token round trip failed: %v", err)
		}
		if !tokensEqual(tok, tok2) {
			t.Fatal("token round trip changed content")
		}
	})
}
