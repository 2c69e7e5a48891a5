package trapdoor

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"slicer/internal/chunkio"
)

// inverseOracle is the inverse before CRT: v^d mod n over the whole
// modulus, encoded at the key's width.
func inverseOracle(sk *SecretKey, v *big.Int) []byte {
	return sk.encode(new(big.Int).Exp(v, sk.D, sk.N))
}

// FuzzInverseMatchesExp holds the CRT inverse to v^d mod n on fixed keys
// of 256 and 512 bits for any input: one in the domain gives the oracle's
// bytes, and one outside it is refused as the oracle's decode refuses it.
func FuzzInverseMatchesExp(f *testing.F) {
	s := &katStream{label: "slicer trapdoor inverse fuzz"}
	keys := []*SecretKey{newKATKey(s, 256).secret(f), newKATKey(s, 512).secret(f)}
	for _, sk := range keys {
		f.Add(sk.p.Bytes())
		f.Add(new(big.Int).Sub(sk.N, sk.q).Bytes())
		f.Add(new(big.Int).Sub(sk.N, one).Bytes())
		f.Add(s.below(sk.N).Bytes())
	}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, sk := range keys {
			x := make([]byte, sk.Size())
			copy(x[len(x)-min(len(raw), len(x)):], raw)
			got, err := sk.Inverse(x)
			v, derr := sk.decode(x)
			if derr != nil {
				if err == nil {
					t.Fatalf("%d bits: Inverse accepted %x, which decode refuses", sk.N.BitLen(), x)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d bits: Inverse(%x): %v", sk.N.BitLen(), x, err)
			}
			if !bytes.Equal(got, inverseOracle(sk, v)) {
				t.Fatalf("%d bits: Inverse(%x) diverges from v^d mod n", sk.N.BitLen(), x)
			}
		}
	})
}

// TestUnmarshalSecretRecoversCRT loads the trapdoor key of the checked-in
// owner fixture, whose bytes hold only (n, e, d), and checks that the
// factors recovered at load make Inverse agree with v^d mod n on the
// fixture's own trapdoors and on drawn values. A key whose d is not an
// inverse of e fails to load with ErrNoFactors.
func TestUnmarshalSecretRecoversCRT(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "contract", "testdata", "owner.json"))
	if err != nil {
		t.Fatal(err)
	}
	var owner struct {
		Trapdoor []byte `json:"trapdoorSecret"`
		States   []struct {
			Trapdoor []byte `json:"t"`
		} `json:"states"`
	}
	if err := json.Unmarshal(raw, &owner); err != nil {
		t.Fatal(err)
	}
	sk, err := UnmarshalSecret(owner.Trapdoor)
	if err != nil {
		t.Fatalf("UnmarshalSecret(fixture): %v", err)
	}
	if !bytes.Equal(sk.MarshalSecret(), owner.Trapdoor) {
		t.Fatal("the fixture's key does not marshal back to its bytes")
	}
	if len(owner.States) == 0 {
		t.Fatal("fixture has no trapdoor states")
	}
	s := &katStream{label: "slicer trapdoor fixture"}
	xs := [][]byte{sk.p.FillBytes(make([]byte, sk.Size()))}
	for _, st := range owner.States {
		xs = append(xs, st.Trapdoor)
	}
	for i := 0; i < 16; i++ {
		xs = append(xs, sk.encode(s.below(sk.N)))
	}
	for i, x := range xs {
		got, err := sk.Inverse(x)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if !bytes.Equal(got, inverseOracle(sk, new(big.Int).SetBytes(x))) {
			t.Fatalf("input %d: Inverse diverges from v^d mod n", i)
		}
	}

	for name, d := range map[string]*big.Int{
		"d+2": new(big.Int).Add(sk.D, big.NewInt(2)),
		"d=1": big.NewInt(1),
		"d=e": new(big.Int).Set(sk.E),
	} {
		blob := chunkio.Append(nil, sk.N.Bytes())
		blob = chunkio.Append(blob, sk.E.Bytes())
		if _, err := UnmarshalSecret(chunkio.Append(blob, d.Bytes())); !errors.Is(err, ErrNoFactors) {
			t.Errorf("%s: err = %v, want ErrNoFactors", name, err)
		}
	}
}

// TestGeneratedKeyFactors checks that a fresh key and the same key loaded
// from its bytes hold the same factors and CRT exponents.
func TestGeneratedKeyFactors(t *testing.T) {
	sk := genKey(t)
	back, err := UnmarshalSecret(sk.MarshalSecret())
	if err != nil {
		t.Fatal(err)
	}
	p, q := back.p, back.q
	if p.Cmp(sk.p) != 0 { // the split may find either factor first
		p, q = q, p
	}
	if p.Cmp(sk.p) != 0 || q.Cmp(sk.q) != 0 {
		t.Fatal("loaded key holds other factors than the generated one")
	}
}

// BenchmarkInverse times one trapdoor step by CRT against the direct
// v^d mod n it replaced, at 512 and 1,024 bits.
func BenchmarkInverse(b *testing.B) {
	s := &katStream{label: "slicer trapdoor inverse bench"}
	for _, bits := range []int{512, 1024} {
		sk := newKATKey(s, bits).secret(b)
		v := s.below(sk.N)
		x := sk.encode(v)
		b.Run(strconv.Itoa(bits)+"/crt", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Inverse(x); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(strconv.Itoa(bits)+"/exp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inverseOracle(sk, v)
			}
		})
	}
}
