package trapdoor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slicer/internal/chunkio"
)

var update = flag.Bool("update", false, "rewrite testdata/inverse_kat.golden from the current implementation")

// katStream is a deterministic byte stream: SHA-256 of a label and a
// counter, block after block. The known answers and the fuzz seeds draw
// their keys and inputs from it, so they repeat on every machine.
type katStream struct {
	label string
	ctr   uint64
}

// intBits returns an integer of exactly bits bits whose top two bits are
// set, so the product of two such halves has the full width.
func (s *katStream) intBits(bits int) *big.Int {
	buf := make([]byte, 0, (bits+7)/8+sha256.Size)
	for len(buf) < (bits+7)/8 {
		var c [8]byte
		binary.BigEndian.PutUint64(c[:], s.ctr)
		s.ctr++
		sum := sha256.Sum256(append([]byte(s.label), c[:]...))
		buf = append(buf, sum[:]...)
	}
	v := new(big.Int).SetBytes(buf[:(bits+7)/8])
	v.Rsh(v, uint(8*((bits+7)/8)-bits))
	v.SetBit(v, bits-1, 1)
	return v.SetBit(v, bits-2, 1)
}

// prime returns the first prime at or above an odd draw of bits bits.
func (s *katStream) prime(bits int) *big.Int {
	p := s.intBits(bits)
	p.SetBit(p, 0, 1)
	for !p.ProbablyPrime(20) {
		p.Add(p, big.NewInt(2))
	}
	return p
}

// below returns a value in [1, n).
func (s *katStream) below(n *big.Int) *big.Int {
	v := s.intBits(n.BitLen() + 64)
	v.Mod(v, new(big.Int).Sub(n, one))
	return v.Add(v, one)
}

// katKey is a fixed RSA key drawn from the stream: two primes of half the
// width, e = 65537 and d = e⁻¹ mod φ(n), as GenerateKey derives it.
type katKey struct{ p, q, n, e, d *big.Int }

func newKATKey(s *katStream, bits int) katKey {
	e := big.NewInt(65537)
	for {
		p, q := s.prime(bits/2), s.prime(bits-bits/2)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int)
		if p.Cmp(q) == 0 || d.ModInverse(e, phi) == nil {
			continue
		}
		return katKey{p: p, q: q, n: new(big.Int).Mul(p, q), e: e, d: d}
	}
}

// secret loads the key the way an owner file does: through UnmarshalSecret
// of MarshalSecret's chunk layout.
func (k katKey) secret(t testing.TB) *SecretKey {
	t.Helper()
	blob := chunkio.Append(nil, k.n.Bytes())
	blob = chunkio.Append(blob, k.e.Bytes())
	sk, err := UnmarshalSecret(chunkio.Append(blob, k.d.Bytes()))
	if err != nil {
		t.Fatalf("UnmarshalSecret: %v", err)
	}
	return sk
}

// inverseKATInputs lists the inputs of one key: the ends of the domain,
// values that share a factor with n (p, q and multiples of each), and
// values drawn from the stream.
func inverseKATInputs(s *katStream, k katKey) []*big.Int {
	xs := []*big.Int{
		big.NewInt(1), big.NewInt(2), new(big.Int).Sub(k.n, one),
		new(big.Int).Set(k.p), new(big.Int).Set(k.q),
		new(big.Int).Lsh(k.p, 1), new(big.Int).Mul(k.q, big.NewInt(3)),
		new(big.Int).Sub(k.n, k.p), new(big.Int).Sub(k.n, k.q),
	}
	for i := 0; i < 8; i++ {
		xs = append(xs, s.below(k.n))
	}
	return xs
}

// inverseKATLines computes every known answer of SecretKey.Inverse: per
// modulus size, the key line and one line per input.
func inverseKATLines(t testing.TB) []string {
	s := &katStream{label: "slicer trapdoor inverse kat"}
	var lines []string
	for _, bits := range []int{256, 512, 1024} {
		k := newKATKey(s, bits)
		sk := k.secret(t)
		lines = append(lines, fmt.Sprintf("key %d %x %x %x", bits, k.n, k.e, k.d))
		for i, x := range inverseKATInputs(s, k) {
			y, err := sk.Inverse(sk.encode(x))
			if err != nil {
				t.Fatalf("%d bits, input %d: %v", bits, i, err)
			}
			if !bytes.Equal(y, inverseOracle(sk, x)) {
				t.Fatalf("%d bits, input %d: Inverse diverges from v^d mod n", bits, i)
			}
			lines = append(lines, fmt.Sprintf("inverse %d %d %x %x", bits, i, x, y))
		}
	}
	return lines
}

// TestInverseKnownAnswers holds SecretKey.Inverse to
// testdata/inverse_kat.golden at 256, 512 and 1,024 bits. The golden was
// written by the inverse that raised v to d modulo n directly (kept as
// inverseOracle), so the CRT inverse must reproduce it byte for byte.
func TestInverseKnownAnswers(t *testing.T) {
	got := []byte(strings.Join(inverseKATLines(t), "\n") + "\n")
	path := filepath.Join("testdata", "inverse_kat.golden")
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
