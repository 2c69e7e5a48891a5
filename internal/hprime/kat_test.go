package hprime

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/kat.golden from the current implementation")

// katLines computes every known answer: input → prime → probe count. The
// contract charges gas per probe and the accumulator takes the prime, so an
// implementation of H_prime must reproduce both columns bit for bit.
func katLines() []string {
	var lines []string
	hash := func(data []byte) {
		p, probes := HashCount(data)
		lines = append(lines, fmt.Sprintf("hash %x %x %d", data, p, probes))
	}
	start := func(hi, lo uint64) {
		p, probes := probe(hi, lo)
		lines = append(lines, fmt.Sprintf("probe %016x%016x %x %d", hi, lo, p, probes))
	}

	// The fuzz seeds' inputs and a few fixed strings.
	for _, s := range []string{"", "s1", "carry", "slicer", "probe-test", "roundtrip", "x"} {
		hash([]byte(s))
	}
	rng := rand.New(rand.NewSource(19710304))
	for i := 0; i < 1024; i++ {
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		hash(data)
	}

	// Probe starts: the carry past 2^128 (TestProbeCarriesPast128Bits), the
	// fuzz seeds' words as the fuzz target widens them, and the edges of the
	// 128-bit range.
	start(^uint64(0), ^uint64(0)-156)
	start(1<<63, 1)
	start(1<<63|1, ^uint64(0)-2|1)
	start(^uint64(0), ^uint64(0))
	start(1<<63, ^uint64(0))
	start(^uint64(0), 1)
	for i := 0; i < 64; i++ {
		start(rng.Uint64()|1<<63, rng.Uint64()|1)
	}
	return lines
}

// TestKnownAnswers holds HashCount and the probe loop to testdata/kat.golden,
// memo off. The golden was written by the probe loop that accepted with
// (*big.Int).ProbablyPrime, so it pins the primes and probe counts every
// persisted index and every gas figure were made with.
func TestKnownAnswers(t *testing.T) {
	SetCacheCapacity(0)
	defer SetCacheCapacity(DefaultCacheCapacity)
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
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\ngot  %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s has %d lines, the implementation %d", path, len(wantLines), len(gotLines))
	}
}
