package core

import (
	"crypto/rand"
	"errors"
	"math"
	"math/big"
	"runtime"
	"testing"

	"slicer/internal/accumulator"
	"slicer/internal/chain"
	"slicer/internal/mhash"
)

// TestFanOutPieceHashes holds VerifyResults' piecewise multiset hash to
// mhash.OfMultiset and its attempt counts to AddCount's, for tokens on
// either side of each piece boundary, with valid witnesses so every token
// passes, and then with one entry of the longest token changed, so only
// that token fails. Each case runs at GOMAXPROCS 1 and 2.
func TestFanOutPieceHashes(t *testing.T) {
	counts := []int{0, 1, pieceLen - 1, pieceLen, pieceLen + 1, 2*pieceLen + 1}
	pp, ac, results := honestResults(t, counts)
	tampered := append([]TokenResult(nil), results...)
	last := len(counts) - 1
	tampered[last].ER = append([][]byte(nil), results[last].ER...)
	tampered[last].ER[pieceLen+3] = randBytes(t, 16)

	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		checks := checkResults(pp, ac, results, freeMeter{})
		bad, err := VerifyResults(pp, ac, tampered, nil)
		runtime.GOMAXPROCS(prev)
		for i, res := range results {
			if !checks[i].h.Equal(mhash.OfMultiset(res.ER)) {
				t.Errorf("GOMAXPROCS %d: %d entries: hash differs from OfMultiset", procs, counts[i])
			}
			h := mhash.Empty()
			for k, er := range res.ER {
				var attempts int
				if h, attempts = h.AddCount(er); checks[i].attempts[k] != attempts {
					t.Errorf("GOMAXPROCS %d: %d entries: entry %d took %d attempts, AddCount %d",
						procs, counts[i], k, checks[i].attempts[k], attempts)
				}
			}
			if !checks[i].ok {
				t.Errorf("GOMAXPROCS %d: %d entries: valid result rejected", procs, counts[i])
			}
		}
		if bad != last || err != nil {
			t.Errorf("GOMAXPROCS %d: tampered response: VerifyResults = %d, %v; want %d", procs, bad, err, last)
		}
	}
}

// TestCheckResultsWithinGasLeft holds the work done ahead of the charges to
// what the gas left pays for at the floors, spelled here as charge's prices
// at one attempt per er, one probe and floorX: with gas for the floors of
// the first k tokens and no more, exactly those k get a prime and a witness
// check. Tokens of empty entries with a one-valued witness, the cheapest
// calldata a self-named cloud can submit, get no witness check unless their
// floors fit. The first such token also holds an er of 32 KB, whose hash
// costs more than the token's own floors: its charges run out of gas one
// below every floor boundary and pass at what they really cost.
func TestCheckResultsWithinGasLeft(t *testing.T) {
	pp, ac, honest := honestResults(t, []int{3, 0, pieceLen + 6, 2})
	one := make([]byte, pp.Size())
	one[len(one)-1] = 1
	invalid := func(i int) TokenResult {
		return TokenResult{Token: honest[i].Token, ER: make([][]byte, 50), Witness: one}
	}
	results := append(append([]TokenResult{invalid(0)}, honest...), invalid(1), invalid(2))
	results[0].ER[3] = make([]byte, 32<<10)
	var cuts, floors []uint64 // the cumulative floor after each er and after each token
	floor := gasMeter{chain.NewMeter(math.MaxUint64)}
	for _, res := range results {
		for _, er := range res.ER {
			_, _ = floor.ChargeHash(len(er)), floor.ChargeFieldMul()
			cuts = append(cuts, floor.Used())
		}
		w, _ := pp.DecodeValue(res.Witness)
		c := &tokenCheck{probes: 1, x: floorX, w: w}
		_, _ = c.charge(pp, TokenResult{Token: res.Token, Witness: res.Witness}, floor)
		floors = append(floors, floor.Used())
		cuts = append(cuts, floor.Used())
	}
	for k, f := range floors {
		for _, left := range []uint64{f - 1, f} {
			checks := checkResults(pp, ac, results, chain.NewMeter(left))
			for i := range checks {
				c := &checks[i]
				if want := i < k || i == k && left == f; c.derive != want || (c.x != floorX) != want {
					t.Errorf("gas left %d: token %d derived %v, want %v", left, i, c.derive, want)
				}
				if want := i >= 1 && i <= len(honest) && c.derive; c.ok != want {
					t.Errorf("gas left %d: token %d witness check %v, want %v", left, i, c.ok, want)
				}
			}
		}
	}
	for _, cut := range cuts {
		if cut > floors[0] {
			break
		}
		if _, err := VerifyResults(pp, ac, results, gasMeter{chain.NewMeter(cut - 1)}); !errors.Is(err, chain.ErrOutOfGas) {
			t.Errorf("gas left %d: %v, want out of gas", cut-1, err)
		}
	}
	m := gasMeter{chain.NewMeter(math.MaxUint64)}
	if bad, err := VerifyResults(pp, ac, results, m); bad != 0 || err != nil {
		t.Fatalf("VerifyResults = %d, %v; want 0", bad, err)
	}
	used := m.Used() // what the first token's charges really cost
	if _, err := VerifyResults(pp, ac, results, gasMeter{chain.NewMeter(used - 1)}); !errors.Is(err, chain.ErrOutOfGas) {
		t.Errorf("gas left %d: %v, want out of gas", used-1, err)
	}
	if bad, err := VerifyResults(pp, ac, results, gasMeter{chain.NewMeter(used)}); bad != 0 || err != nil {
		t.Errorf("gas left %d: VerifyResults = %d, %v; want 0", used, bad, err)
	}
}

// gasMeter charges chain's prices on a bare meter.
type gasMeter struct{ *chain.Meter }

func (g gasMeter) Fresh() Charges { return chain.NewMeter(g.Remaining()) }

// honestResults builds one result per count, of that many random entries,
// and an accumulator over their primes that every witness proves.
func honestResults(t *testing.T, counts []int) (*accumulator.PublicParams, *big.Int, []TokenResult) {
	t.Helper()
	params, err := accumulator.Setup(256)
	if err != nil {
		t.Fatal(err)
	}
	pp := params.Public()
	results := make([]TokenResult, len(counts))
	primes := make([]*big.Int, len(counts))
	for i, n := range counts {
		tok := SearchToken{Trapdoor: randBytes(t, 32), Epoch: i, G1: randBytes(t, 32), G2: randBytes(t, 32)}
		results[i] = TokenResult{Token: tok, ER: make([][]byte, n)}
		for k := range results[i].ER {
			results[i].ER[k] = randBytes(t, 16)
		}
		primes[i] = TokenPrime(tok, mhash.OfMultiset(results[i].ER))
	}
	ac := pp.Accumulate(primes)
	for i := range results {
		w, err := pp.MemWit(primes, primes[i])
		if err != nil {
			t.Fatal(err)
		}
		results[i].Witness = pp.EncodeValue(w)
	}
	return pp, ac, results
}

func randBytes(t *testing.T, n int) []byte {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		t.Fatal(err)
	}
	return b
}
