package accumulator

import (
	"bytes"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fixedbase_kat.golden from the current implementation")

// randBits returns a pseudo-random integer of exactly bits bits.
func randBits(rng *rand.Rand, bits int) *big.Int {
	n := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits)))
	return n.SetBit(n, bits-1, 1)
}

// randOdd returns a pseudo-random odd modulus of exactly bits bits.
func randOdd(rng *rand.Rand, bits int) *big.Int {
	n := randBits(rng, bits)
	return n.SetBit(n, 0, 1)
}

// fixedBaseKATLines computes every known answer of FixedBase.Exp: per
// modulus size and comb width, the exponents 0, 1, 2, 2^16+1, random ones
// below, at and just past the capacity, and an all-ones exponent of full
// capacity. The exponents come from a seeded stream, so each line names
// its case and the result alone.
func fixedBaseKATLines(t testing.TB) []string {
	rng := rand.New(rand.NewSource(20020818))
	var lines []string
	for _, bits := range []int{256, 512, 1024} {
		n := randOdd(rng, bits)
		base := new(big.Int).Rand(rng, n)
		pp := &PublicParams{N: n, G: base}
		for _, c := range []struct{ capBits, teeth int }{{bits, 0}, {4 * bits, 0}, {3000, 5}, {2 * bits, 8}} {
			fb, err := pp.NewFixedBase(base, c.capBits, c.teeth)
			if err != nil {
				t.Fatal(err)
			}
			capBits := fb.CapBits()
			exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(65537)}
			for _, eb := range []int{64, capBits / 2, capBits - 1, capBits, capBits + 1} {
				exps = append(exps, randBits(rng, eb))
			}
			exps = append(exps, new(big.Int).Sub(new(big.Int).Lsh(one, uint(capBits)), one))
			for i, e := range exps {
				got := fb.Exp(e)
				if got.Cmp(new(big.Int).Exp(base, e, n)) != 0 {
					t.Fatalf("%d-bit comb, exponent %d: diverges from Exp", bits, i)
				}
				lines = append(lines, fmt.Sprintf("fixedbase %d %d %d %d %d %x",
					bits, c.teeth, capBits, i, e.BitLen(), got))
			}
		}
	}
	return lines
}

// TestFixedBaseKnownAnswers holds FixedBase.Exp to
// testdata/fixedbase_kat.golden at 256, 512 and 1,024 bits. The golden was
// written by the comb that multiplied with Mul and QuoRem over *big.Int
// tables, so a rewrite of the table form or the multiply must reproduce it
// byte for byte.
func TestFixedBaseKnownAnswers(t *testing.T) {
	got := []byte(strings.Join(fixedBaseKATLines(t), "\n") + "\n")
	path := filepath.Join("testdata", "fixedbase_kat.golden")
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
