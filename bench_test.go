// Benchmarks regenerating the paper's evaluation (one bench per table /
// figure, plus the ablation benches DESIGN.md calls out) at a fixed
// laptop-friendly size. The parameter sweeps behind the full figures are
// produced by cmd/slicer-bench; EXPERIMENTS.md maps each bench to its
// figure and records paper-vs-measured values.
package slicer_test

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"

	"slicer/internal/accumulator"
	"slicer/internal/baseline"
	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/hprime"
	"slicer/internal/prf"
	"slicer/internal/sore"
	"slicer/internal/workload"
)

const (
	benchRecords = 2000
	benchModBits = 512
)

func benchParams(bits int) core.Params {
	return core.Params{Bits: bits, TrapdoorBits: benchModBits, AccumulatorBits: benchModBits}
}

// benchEnv is a built deployment shared across benchmarks of one bit width.
type benchEnv struct {
	db    []core.Record
	owner *core.Owner
	user  *core.User
	cloud *core.Cloud // on-demand witnesses: honest Algorithm-4 VO cost
}

var (
	benchMu   sync.Mutex
	benchEnvs = map[int]*benchEnv{}
)

func getEnv(b *testing.B, bits int) *benchEnv {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if env, ok := benchEnvs[bits]; ok {
		return env
	}
	db := workload.Generate(workload.Config{N: benchRecords, Bits: bits, Seed: int64(bits)})
	owner, err := core.NewOwner(benchParams(bits))
	if err != nil {
		b.Fatalf("NewOwner: %v", err)
	}
	out, err := owner.Build(db)
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessOnDemand)
	if err != nil {
		b.Fatalf("NewCloud: %v", err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		b.Fatalf("NewUser: %v", err)
	}
	env := &benchEnv{db: db, owner: owner, user: user, cloud: cloud}
	benchEnvs[bits] = env
	return env
}

func bitSub(b *testing.B, f func(b *testing.B, bits int)) {
	for _, bits := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dbit", bits), func(b *testing.B) { f(b, bits) })
	}
}

// BenchmarkBuildIndex regenerates Fig. 3a (index building time) and reports
// Fig. 4a's index storage as a metric.
func BenchmarkBuildIndex(b *testing.B) {
	bitSub(b, func(b *testing.B, bits int) {
		db := workload.Generate(workload.Config{N: benchRecords, Bits: bits, Seed: int64(bits)})
		owner, err := core.NewOwner(benchParams(bits))
		if err != nil {
			b.Fatal(err)
		}
		var indexBytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i > 0 {
				owner, err = core.NewOwner(benchParams(bits))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			out, err := owner.Build(db)
			if err != nil {
				b.Fatal(err)
			}
			indexBytes = out.Index.Len() * 32
		}
		b.ReportMetric(float64(indexBytes), "index-bytes")
		b.ReportMetric(owner.LastStats().IndexDuration.Seconds(), "index-s")
		b.ReportMetric(owner.LastStats().ADSDuration.Seconds(), "ads-s")
	})
}

// BenchmarkBuildADS regenerates Fig. 3b in isolation: prime derivation and
// accumulation over the set hashes of a built database (Fig. 4b's ADS
// storage is reported as a metric).
func BenchmarkBuildADS(b *testing.B) {
	bitSub(b, func(b *testing.B, bits int) {
		env := getEnv(b, bits)
		primes := make([]*big.Int, env.cloud.PrimeCount())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Re-derive the same number of prime representatives and
			// accumulate them all — the ADS phase of Algorithm 1.
			for k := range primes {
				primes[k] = hprime.Hash([]byte(fmt.Sprintf("bench-ads-%d-%d", bits, k)))
			}
			env.owner.AccumulatorPub().Accumulate(primes)
		}
		b.ReportMetric(float64(env.cloud.ADSSizeBytes()), "ads-bytes")
	})
}

// BenchmarkSearchEquality regenerates Fig. 5a (equality result generation).
func BenchmarkSearchEquality(b *testing.B) {
	bitSub(b, func(b *testing.B, bits int) {
		env := getEnv(b, bits)
		req, err := env.user.Token(core.Equal(env.db[0].Attrs[0].Value))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.cloud.SearchResults(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVOEquality regenerates Fig. 5b (equality VO generation).
func BenchmarkVOEquality(b *testing.B) {
	bitSub(b, func(b *testing.B, bits int) {
		env := getEnv(b, bits)
		req, err := env.user.Token(core.Equal(env.db[0].Attrs[0].Value))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := env.cloud.SearchResults(req)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := env.cloud.AttachWitnesses(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchOrder regenerates Fig. 5c (order result generation) and
// reports Fig. 6a/6c overheads as metrics.
func BenchmarkSearchOrder(b *testing.B) {
	bitSub(b, func(b *testing.B, bits int) {
		env := getEnv(b, bits)
		// 0b1010...10: roughly half the bits are set, so the order query
		// decomposes into multiple existing slices.
		v := (uint64(1)<<uint(bits) - 1) / 3 * 2
		req, err := env.user.Token(core.Less(v))
		if err != nil {
			b.Fatal(err)
		}
		var resultBytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := env.cloud.SearchResults(req)
			if err != nil {
				b.Fatal(err)
			}
			resultBytes = 0
			for _, r := range resp.Results {
				resultBytes += len(r.ER) * 16
			}
		}
		b.ReportMetric(float64(len(req.Tokens)), "tokens")
		b.ReportMetric(float64(resultBytes), "result-bytes")
	})
}

// BenchmarkVOOrder regenerates Fig. 5d (order VO generation) and reports
// Fig. 6d's VO size as a metric.
func BenchmarkVOOrder(b *testing.B) {
	bitSub(b, func(b *testing.B, bits int) {
		env := getEnv(b, bits)
		// 0b1010...10: roughly half the bits are set, so the order query
		// decomposes into multiple existing slices.
		v := (uint64(1)<<uint(bits) - 1) / 3 * 2
		req, err := env.user.Token(core.Less(v))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := env.cloud.SearchResults(req)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := env.cloud.AttachWitnesses(resp); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		voBytes := 0
		for _, r := range resp.Results {
			voBytes += len(r.Witness)
		}
		b.ReportMetric(float64(voBytes), "vo-bytes")
	})
}

// BenchmarkSearchParallel is the serial-vs-parallel pipeline ablation: one
// full Algorithm-4 search (results + VO). The cloud fans tokens across
// GOMAXPROCS workers, so sweep the width with -cpu (e.g. -cpu 1,2,4,8).
// Order queries fan their b independent tokens and scale with cores;
// equality queries carry a single token and pin the fan-out overhead floor.
// Responses are byte-identical at every width (see
// TestParallelSearchDeterminism), so the runs isolate pure scheduling. On a
// single-core host the ratios collapse to ~1x.
func BenchmarkSearchParallel(b *testing.B) {
	env := getEnv(b, 16)
	queries := []struct {
		name string
		q    core.Query
	}{
		{"order", core.Less((uint64(1)<<16 - 1) / 3 * 2)},
		{"equality", core.Equal(env.db[0].Attrs[0].Value)},
	}
	for _, qc := range queries {
		req, err := env.user.Token(qc.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(qc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(req.Tokens)), "tokens")
			for i := 0; i < b.N; i++ {
				if _, err := env.cloud.Search(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerificationParallel is the verifier-side half of the parallel
// ablation: Algorithm 5 over a multi-token order response, swept with -cpu.
func BenchmarkVerificationParallel(b *testing.B) {
	env := getEnv(b, 16)
	req, err := env.user.Token(core.Less((uint64(1)<<16 - 1) / 3 * 2))
	if err != nil {
		b.Fatal(err)
	}
	resp, err := env.cloud.Search(req)
	if err != nil {
		b.Fatal(err)
	}
	pp, ac := env.owner.AccumulatorPub(), env.owner.Ac()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.VerifyResponse(pp, ac, req, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertIndex / BenchmarkInsertADS regenerate Fig. 7: the index
// and ADS phases of a 100-record insert into a preloaded database.
func BenchmarkInsertIndex(b *testing.B) { benchInsert(b, false) }
func BenchmarkInsertADS(b *testing.B)   { benchInsert(b, true) }

func benchInsert(b *testing.B, ads bool) {
	bitSub(b, func(b *testing.B, bits int) {
		db := workload.Generate(workload.Config{N: benchRecords, Bits: bits, Seed: int64(bits)})
		owner, err := core.NewOwner(benchParams(bits))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := owner.Build(db); err != nil {
			b.Fatal(err)
		}
		nextID := uint64(benchRecords + 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			batch := workload.Generate(workload.Config{
				N: 100, Bits: bits, Seed: int64(i), FirstID: nextID,
			})
			nextID += 100
			b.StartTimer()
			if _, err := owner.Insert(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := owner.LastStats()
		if ads {
			b.ReportMetric(st.ADSDuration.Seconds(), "ads-s")
		} else {
			b.ReportMetric(st.IndexDuration.Seconds(), "index-s")
		}
	})
}

// BenchmarkVerification regenerates Table II's dominating operation: one
// result verification run (Algorithm 5) — the identical computation the
// smart contract meters; TestGasCosts in internal/contract and the table2
// experiment report the gas figures themselves.
func BenchmarkVerification(b *testing.B) {
	env := getEnv(b, 8)
	req, err := env.user.Token(core.Equal(env.db[0].Attrs[0].Value))
	if err != nil {
		b.Fatal(err)
	}
	resp, err := env.cloud.Search(req)
	if err != nil {
		b.Fatal(err)
	}
	pp, ac := env.owner.AccumulatorPub(), env.owner.Ac()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.VerifyResponse(pp, ac, req, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOREComparison is the SORE-vs-baselines ablation: one comparison
// under each scheme.
func BenchmarkOREComparison(b *testing.B) {
	key, err := prf.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SORE", func(b *testing.B) {
		s, err := sore.New(key, 16)
		if err != nil {
			b.Fatal(err)
		}
		ct, err := s.Encrypt(12345)
		if err != nil {
			b.Fatal(err)
		}
		tk, err := s.Token(20000, sore.Greater)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !sore.Compare(ct, tk) {
				b.Fatal("comparison wrong")
			}
		}
	})
	b.Run("CLWW", func(b *testing.B) {
		c, err := baseline.NewCLWW(key, 16)
		if err != nil {
			b.Fatal(err)
		}
		ca, err := c.Encrypt(12345)
		if err != nil {
			b.Fatal(err)
		}
		cb, err := c.Encrypt(20000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if baseline.Compare(ca, cb) != -1 {
				b.Fatal("comparison wrong")
			}
		}
	})
	b.Run("OPE", func(b *testing.B) {
		ope := baseline.NewOPE(1)
		ca, err := ope.Encrypt(12345)
		if err != nil {
			b.Fatal(err)
		}
		cb, err := ope.Encrypt(20000)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ope.Compare(ca, cb) != -1 {
				b.Fatal("comparison wrong")
			}
		}
	})
}

// BenchmarkRangeVsTraversal is the slicing ablation: a width-256 range
// answered with SORE order tokens vs per-value keyword traversal.
func BenchmarkRangeVsTraversal(b *testing.B) {
	env := getEnv(b, 16)
	maxV := uint64(1)<<16 - 1
	lo := maxV - 255
	b.Run("SORE", func(b *testing.B) {
		req, err := env.user.Token(core.Greater(lo - 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.cloud.SearchResults(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Traversal", func(b *testing.B) {
		trav := baseline.NewTraversal(env.user, env.cloud, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := trav.RangeSearch("", lo, maxV); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAccumulatorIncremental is the incremental-update ablation.
func BenchmarkAccumulatorIncremental(b *testing.B) {
	params, err := accumulator.Setup(benchModBits)
	if err != nil {
		b.Fatal(err)
	}
	primes := make([]*big.Int, 1024+64)
	for i := range primes {
		primes[i] = hprime.Hash([]byte(fmt.Sprintf("inc-%d", i)))
	}
	base, extra := primes[:1024], primes[1024:]
	ac := params.Public().Accumulate(base)
	b.Run("FullRecompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			params.Public().Accumulate(primes)
		}
	})
	b.Run("Incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			params.Public().Add(ac, extra)
		}
	})
	b.Run("OwnerFastPath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := params.AddFast(ac, extra); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWitnessGeneration is the RootFactor-vs-on-demand ablation.
func BenchmarkWitnessGeneration(b *testing.B) {
	params, err := accumulator.Setup(benchModBits)
	if err != nil {
		b.Fatal(err)
	}
	pp := params.Public()
	primes := make([]*big.Int, 1024)
	for i := range primes {
		primes[i] = hprime.Hash([]byte(fmt.Sprintf("wit-%d", i)))
	}
	b.Run("OnDemandOne", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pp.MemWit(primes, primes[512]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RootFactorAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.RootFactor(primes)
		}
	})
	b.Run("RootFactorParallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pp.RootFactorParallel(primes, runtime.GOMAXPROCS(0))
		}
	})
}

// BenchmarkVOvsMerkle is the constant-size-VO ablation: accumulator
// verification vs Merkle proof verification over the same committed set.
func BenchmarkVOvsMerkle(b *testing.B) {
	params, err := accumulator.Setup(benchModBits)
	if err != nil {
		b.Fatal(err)
	}
	pp := params.Public()
	primes := make([]*big.Int, 4096)
	leaves := make([]chain.Hash, len(primes))
	for i := range primes {
		primes[i] = hprime.Hash([]byte(fmt.Sprintf("vm-%d", i)))
		leaves[i] = chain.HashBytes(primes[i].Bytes())
	}
	ac, err := params.AccumulateFast(primes)
	if err != nil {
		b.Fatal(err)
	}
	wit, err := pp.MemWit(primes, primes[100])
	if err != nil {
		b.Fatal(err)
	}
	root := chain.MerkleRoot(leaves)
	proof, err := chain.ProveLeaf(leaves, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AccumulatorVerify", func(b *testing.B) {
		b.ReportMetric(float64(pp.Size()), "proof-bytes")
		for i := 0; i < b.N; i++ {
			if !pp.VerifyMem(ac, primes[100], wit) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("MerkleVerify", func(b *testing.B) {
		b.ReportMetric(float64(len(proof.Siblings)*32), "proof-bytes")
		for i := 0; i < b.N; i++ {
			if !chain.VerifyLeaf(root, leaves[100], proof) {
				b.Fatal("verify failed")
			}
		}
	})
}
