package mhash_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slicer/internal/chain"
	"slicer/internal/mhash"
)

var update = flag.Bool("update", false, "rewrite testdata/kat.golden from the current implementation")

// katElementLens are the element lengths the known answers cover. With the
// 22-byte domain prefix and the counter byte, 32 is the longest element
// whose SHA-256 input fits one block, and 41/42 put the message end on
// either side of the 64-byte block boundary.
var katElementLens = []int{0, 1, 31, 32, 33, 41, 42, 55, 64, 200}

func seededMultiset(rng *rand.Rand, n, elemLen int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, elemLen)
		rng.Read(out[i])
	}
	// One repeated element, so multiplicity is covered too.
	return append(out, out[0])
}

// katLines computes every known answer: the values the protocol persists
// (set hashes, primes derived from them, the chain's state root) are all
// functions of these, so an implementation of the hash must reproduce them
// bit for bit.
func katLines() []string {
	var lines []string
	put := func(name string, b []byte) { lines = append(lines, name+" "+hex.EncodeToString(b)) }
	rng := rand.New(rand.NewSource(20031130))

	sets := make(map[int][][]byte)
	for _, n := range katElementLens {
		sets[n] = seededMultiset(rng, 6, n)
		put(fmt.Sprintf("of/len%d", n), mhash.OfMultiset(sets[n]).Marshal())
	}
	var mixed [][]byte
	for _, n := range katElementLens {
		mixed = append(mixed, sets[n]...)
	}
	put("of/mixed", mhash.OfMultiset(mixed).Marshal())
	put("of/empty", mhash.OfMultiset(nil).Marshal())
	put("zero-value", mhash.Hash{}.Marshal())

	a, b := mhash.OfMultiset(sets[32]), mhash.OfMultiset(sets[200])
	put("union/32+200", a.Union(b).Marshal())
	put("union/empty+32", mhash.Empty().Union(a).Marshal())
	h := a
	for _, e := range sets[41] {
		h = h.Remove(e)
	}
	put("remove/32-41", h.Marshal())
	put("remove/32-32[0]", a.Remove(sets[32][0]).Marshal())

	for _, s := range []string{
		"0000000000000000000000000000000000000000000000000000000000000001",
		"0000000000000000000000000000000000000000000000000000000000000002",
		"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140", // q-1
		"8000000000000000000000000000000000000000000000000000000000000000",
		"0000000000000000000000000000000000000000000000000000000000000000", // 0: rejected
		"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", // q: rejected
		"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", // 2^256-1: rejected
	} {
		raw, _ := hex.DecodeString(s)
		v, err := mhash.Unmarshal(raw)
		if err != nil {
			lines = append(lines, "unmarshal/"+s+" error")
			continue
		}
		put("unmarshal/"+s, v.Marshal())
	}
	for i := 0; i < 4; i++ {
		raw := make([]byte, mhash.Size)
		rng.Read(raw)
		raw[0] &= 0x7f // below q
		v, err := mhash.Unmarshal(raw)
		if err != nil {
			lines = append(lines, fmt.Sprintf("unmarshal/rand%d error", i))
			continue
		}
		put(fmt.Sprintf("unmarshal/rand%d", i), v.Marshal())
		put(fmt.Sprintf("unmarshal/rand%d*32", i), v.Union(a).Marshal())
	}

	root := katState(rng).Root()
	put("chain/root", root[:])
	return lines
}

// katState builds a fixed state through the public setters, including
// writes that are zeroed again and a reverted checkpoint.
func katState(rng *rand.Rand) *chain.State {
	st := chain.NewState()
	for i := 0; i < 24; i++ {
		a := chain.AddressFromString(fmt.Sprintf("kat-%d", i))
		st.SetBalance(a, uint64(rng.Int63()))
		if i%3 == 0 {
			st.BumpNonce(a)
		}
		if i%4 == 0 {
			code := make([]byte, 1+rng.Intn(90))
			rng.Read(code)
			st.SetCode(a, code)
		}
		for j := 0; j < i%5; j++ {
			var k, v chain.Slot
			rng.Read(k[:])
			rng.Read(v[:])
			st.SetStorage(a, k, v)
		}
		if i%7 == 0 {
			st.SetBalance(a, 0)
		}
	}
	cp := st.Checkpoint()
	st.Credit(chain.AddressFromString("kat-reverted"), 99)
	st.Revert(cp)
	st.DiscardJournal()
	return st
}

// TestKnownAnswers holds the hash to testdata/kat.golden. The golden was
// written by the big.Int implementation that mhash_test.go keeps as its
// oracle, so it pins the values every persisted set hash was made with.
func TestKnownAnswers(t *testing.T) {
	got := []byte(strings.Join(katLines(), "\n") + "\n")
	path := filepath.Join("testdata", "kat.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("known answers differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
