package bench

import (
	"fmt"
	"math/big"
	"strconv"
	"time"

	"slicer/internal/accumulator"
	"slicer/internal/baseline"
	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/hprime"
	"slicer/internal/prf"
	"slicer/internal/sore"
	"slicer/internal/workload"
)

// AblationORE compares SORE against the CLWW ORE and OPE baselines:
// encryption time, ciphertext size and comparison time. It motivates the
// "succinct" design — SORE pays a set-membership comparison to gain
// keyword-izability, while keeping ciphertext growth linear in b like CLWW.
func (r *Runner) AblationORE() (*Table, error) {
	r.progress("ablation: ORE scheme comparison ...")
	const samples = 2000
	t := &Table{
		ID:      "ablation-ore",
		Title:   "SORE vs CLWW ORE vs OPE (16-bit values)",
		Headers: []string{"scheme", "encrypt/op", "ciphertext", "compare/op", "keyword-searchable"},
	}
	key, err := prf.NewKey()
	if err != nil {
		return nil, err
	}
	values := workload.Generate(workload.Config{N: samples, Bits: 16, Seed: 9})

	// SORE.
	s, err := sore.New(key, 16)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	soreCTs := make([]sore.Ciphertext, samples)
	for i, rec := range values {
		soreCTs[i], err = s.Encrypt(rec.Attrs[0].Value)
		if err != nil {
			return nil, err
		}
	}
	soreEnc := time.Since(start) / samples
	tok, err := s.Token(1<<15, sore.Greater)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, ct := range soreCTs {
		sore.Compare(ct, tok)
	}
	soreCmp := time.Since(start) / samples
	t.AddRow("SORE", fmt.Sprint(soreEnc), fmt.Sprintf("%dB", s.CiphertextSize()), fmt.Sprint(soreCmp), "yes (tuple = keyword)")

	// CLWW.
	cl, err := baseline.NewCLWW(key, 16)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	clCTs := make([]baseline.CLWWCiphertext, samples)
	for i, rec := range values {
		clCTs[i], err = cl.Encrypt(rec.Attrs[0].Value)
		if err != nil {
			return nil, err
		}
	}
	clEnc := time.Since(start) / samples
	ref, err := cl.Encrypt(1 << 15)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, ct := range clCTs {
		baseline.Compare(ct, ref)
	}
	clCmp := time.Since(start) / samples
	t.AddRow("CLWW ORE", fmt.Sprint(clEnc), fmt.Sprintf("%dB", cl.CiphertextSize()), fmt.Sprint(clCmp), "no (positional compare)")

	// OPE.
	ope := baseline.NewOPE(11)
	start = time.Now()
	opeCTs := make([]uint64, samples)
	for i, rec := range values {
		opeCTs[i], err = ope.Encrypt(rec.Attrs[0].Value)
		if err != nil {
			return nil, err
		}
	}
	opeEnc := time.Since(start) / samples
	refCode, err := ope.Encrypt(1 << 15)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, ct := range opeCTs {
		ope.Compare(ct, refCode)
	}
	opeCmp := time.Since(start) / samples
	t.AddRow("OPE", fmt.Sprint(opeEnc), "8B", fmt.Sprint(opeCmp), "no (and leaks total order)")
	t.AddNote("averaged over %d encryptions/comparisons", samples)
	return t, nil
}

// AblationTraversal compares SORE order search against the naive per-value
// keyword traversal the paper's introduction rules out, over growing range
// widths.
func (r *Runner) AblationTraversal() (*Table, error) {
	r.progress("ablation: range search vs keyword traversal ...")
	const bits = 16
	d, err := r.ensure(bits, r.scale.Counts[0])
	if err != nil {
		return nil, err
	}
	trav := baseline.NewTraversal(d.user, d.cloud, bits)
	t := &Table{
		ID:    "ablation-traversal",
		Title: "Order search (SORE slices) vs per-value keyword traversal (16-bit)",
		Headers: []string{"range width", "SORE tokens", "SORE time",
			"traversal tokens", "traversal time"},
	}
	maxV := uint64(1)<<bits - 1
	for _, width := range []uint64{16, 256, 4096, 65535} {
		hi := maxV
		lo := hi - width + 1
		// SORE: records > lo-1 (one one-sided query covers the top-anchored
		// range).
		req, err := d.user.Token(core.Query{Op: core.OpGreater, Value: lo - 1})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		resp, err := d.cloud.SearchResults(req)
		if err != nil {
			return nil, err
		}
		soreTime := time.Since(start)
		soreIDs, err := d.user.Decrypt(resp)
		if err != nil {
			return nil, err
		}

		start = time.Now()
		travIDs, travTokens, err := trav.RangeSearch("", lo, hi)
		if err != nil {
			return nil, err
		}
		travTime := time.Since(start)
		if len(soreIDs) != len(travIDs) {
			return nil, fmt.Errorf("bench: traversal disagreement: %d vs %d ids", len(soreIDs), len(travIDs))
		}
		t.AddRow(strconv.FormatUint(width, 10),
			strconv.Itoa(len(req.Tokens)), fmt.Sprint(soreTime),
			strconv.Itoa(travTokens), fmt.Sprint(travTime))
	}
	t.AddNote("SORE issues at most b=%d tokens regardless of range width; traversal issues one per existing value", bits)
	return t, nil
}

// AblationRangeStrategy compares the two range-search strategies over the
// same database: two one-sided order queries intersected client-side (the
// paper's conditions) versus the prefix-cover index (this repository's
// extension).
func (r *Runner) AblationRangeStrategy() (*Table, error) {
	r.progress("ablation: range search strategies ...")
	const bits = 16
	const n = 2000
	db := workload.Generate(workload.Config{N: n, Bits: bits, Seed: 55})

	build := func(prefix bool) (*core.Owner, *core.User, *core.Cloud, error) {
		params := r.scale.Params(bits)
		params.PrefixIndex = prefix
		owner, err := core.NewOwner(params)
		if err != nil {
			return nil, nil, nil, err
		}
		out, err := owner.Build(db)
		if err != nil {
			return nil, nil, nil, err
		}
		cloud, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessOnDemand)
		if err != nil {
			return nil, nil, nil, err
		}
		user, err := core.NewUser(owner.ClientState())
		if err != nil {
			return nil, nil, nil, err
		}
		return owner, user, cloud, nil
	}
	_, sideUser, sideCloud, err := build(false)
	if err != nil {
		return nil, err
	}
	_, prefUser, prefCloud, err := build(true)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "ablation-range-strategy",
		Title: "Range search: two-sided intersection vs prefix cover (16-bit, 2000 records)",
		Headers: []string{"range width", "strategy", "tokens", "fetched records",
			"matching", "index entries/record"},
	}
	maxV := uint64(1)<<bits - 1
	for _, width := range []uint64{64, 1024, 16384} {
		lo := maxV/2 - width/2
		hi := lo + width - 1
		matching := len(workload.Answer(db, core.Query{Op: core.OpGreater, Value: lo - 1})) -
			len(workload.Answer(db, core.Query{Op: core.OpGreater, Value: hi}))

		// Two-sided: Greater(lo-1) and Less(hi+1), intersect client side.
		reqA, err := sideUser.Token(core.Greater(lo - 1))
		if err != nil {
			return nil, err
		}
		reqB, err := sideUser.Token(core.Less(hi + 1))
		if err != nil {
			return nil, err
		}
		fetched := 0
		for _, req := range []*core.SearchRequest{reqA, reqB} {
			resp, err := sideCloud.SearchResults(req)
			if err != nil {
				return nil, err
			}
			for _, res := range resp.Results {
				fetched += len(res.ER)
			}
		}
		t.AddRow(strconv.FormatUint(width, 10), "two-sided",
			strconv.Itoa(len(reqA.Tokens)+len(reqB.Tokens)),
			strconv.Itoa(fetched), strconv.Itoa(matching),
			strconv.Itoa(bits+1))

		// Prefix cover.
		req, err := prefUser.RangeTokens("", lo, hi)
		if err != nil {
			return nil, err
		}
		resp, err := prefCloud.SearchResults(req)
		if err != nil {
			return nil, err
		}
		fetched = 0
		for _, res := range resp.Results {
			fetched += len(res.ER)
		}
		t.AddRow(strconv.FormatUint(width, 10), "prefix-cover",
			strconv.Itoa(len(req.Tokens)), strconv.Itoa(fetched),
			strconv.Itoa(matching), strconv.Itoa(2*bits+1))
	}
	t.AddNote("two-sided fetches both one-sided result sets (over-fetch grows with n); prefix cover fetches exactly the matches at the cost of b extra index entries per record")
	return t, nil
}

// AblationAccumulator compares incremental accumulator updates against full
// recomputation, and the owner's trapdoor fast path against the public
// path.
func (r *Runner) AblationAccumulator() (*Table, error) {
	r.progress("ablation: accumulator update strategies ...")
	params, err := accumulator.Setup(r.scale.AccumulatorBits)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-accumulator",
		Title:   "Accumulator update: full recompute vs incremental vs owner fast path",
		Headers: []string{"|X|", "+new", "full recompute", "incremental", "owner fast path"},
	}
	for _, base := range []int{512, 2048} {
		primes := randomPrimes(base + 64)
		baseSet, newSet := primes[:base], primes[base:]
		ac := params.Public().Accumulate(baseSet)

		start := time.Now()
		full := params.Public().Accumulate(primes)
		fullDur := time.Since(start)

		start = time.Now()
		incr := params.Public().Add(ac, newSet)
		incrDur := time.Since(start)

		start = time.Now()
		fast, err := params.AddFast(ac, newSet)
		if err != nil {
			return nil, err
		}
		fastDur := time.Since(start)

		if full.Cmp(incr) != 0 || full.Cmp(fast) != 0 {
			return nil, fmt.Errorf("bench: accumulator strategies disagree")
		}
		t.AddRow(strconv.Itoa(base), "64", fmt.Sprint(fullDur), fmt.Sprint(incrDur), fmt.Sprint(fastDur))
	}
	t.AddNote("incremental = Ac^(Πx⁺); owner fast path reduces the exponent mod φ(n) first")
	return t, nil
}

// AblationWitness compares per-query on-demand witness generation (O(|X|)
// modexps each) against RootFactor batch precomputation (O(|X| log |X|)
// for all witnesses at once).
func (r *Runner) AblationWitness() (*Table, error) {
	r.progress("ablation: witness generation strategies ...")
	params, err := accumulator.Setup(r.scale.AccumulatorBits)
	if err != nil {
		return nil, err
	}
	pp := params.Public()
	t := &Table{
		ID:      "ablation-witness",
		Title:   "VO generation: on-demand MemWit vs RootFactor batch precompute",
		Headers: []string{"|X|", "one on-demand witness", "RootFactor (all |X|)", "amortized per witness"},
	}
	for _, n := range []int{256, 1024, 4096} {
		primes := randomPrimes(n)
		start := time.Now()
		w, err := pp.MemWit(primes, primes[n/2])
		if err != nil {
			return nil, err
		}
		onDemand := time.Since(start)

		start = time.Now()
		all := pp.RootFactor(primes)
		batch := time.Since(start)
		if all[n/2].Cmp(w) != 0 {
			return nil, fmt.Errorf("bench: RootFactor and MemWit disagree")
		}
		t.AddRow(strconv.Itoa(n), fmt.Sprint(onDemand), fmt.Sprint(batch),
			fmt.Sprint(batch/time.Duration(n)))
	}
	t.AddNote("cached mode (default cloud) uses RootFactor once per build, then answers VOs by lookup")
	return t, nil
}

// AblationVOvsMerkle compares the RSA accumulator's constant-size VO with a
// Merkle-tree inclusion proof over the same committed set — the design
// trade-off §III-B claims motivates the accumulator.
func (r *Runner) AblationVOvsMerkle() (*Table, error) {
	r.progress("ablation: accumulator VO vs Merkle proof ...")
	params, err := accumulator.Setup(r.scale.AccumulatorBits)
	if err != nil {
		return nil, err
	}
	pp := params.Public()
	t := &Table{
		ID:      "ablation-vo-merkle",
		Title:   "Verification object: RSA accumulator vs Merkle tree",
		Headers: []string{"|X|", "acc VO size", "acc verify", "merkle proof size", "merkle verify"},
	}
	for _, n := range []int{1024, 16384} {
		primes := randomPrimes(n)
		ac := params.Public().Accumulate(primes[:1]) // placeholder, replaced below
		acFast, err := params.AccumulateFast(primes)
		if err != nil {
			return nil, err
		}
		ac = acFast
		member := primes[n/3]
		wit, err := pp.MemWit(primes, member)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		const reps = 50
		for i := 0; i < reps; i++ {
			if !pp.VerifyMem(ac, member, wit) {
				return nil, fmt.Errorf("bench: accumulator verify failed")
			}
		}
		accVerify := time.Since(start) / reps

		leaves := make([]chain.Hash, n)
		for i, p := range primes {
			leaves[i] = chain.HashBytes(p.Bytes())
		}
		root := chain.MerkleRoot(leaves)
		proof, err := chain.ProveLeaf(leaves, n/3)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		for i := 0; i < reps; i++ {
			if !chain.VerifyLeaf(root, leaves[n/3], proof) {
				return nil, fmt.Errorf("bench: merkle verify failed")
			}
		}
		merkleVerify := time.Since(start) / reps

		t.AddRow(strconv.Itoa(n),
			fmt.Sprintf("%dB", pp.Size()), fmt.Sprint(accVerify),
			fmt.Sprintf("%dB", len(proof.Siblings)*32), fmt.Sprint(merkleVerify))
	}
	t.AddNote("the accumulator VO is constant size and leaks nothing about the rest of X; the Merkle proof grows with log|X| and reveals sibling digests")
	return t, nil
}

// randomPrimes derives n deterministic prime representatives.
func randomPrimes(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = hprime.Hash([]byte(fmt.Sprintf("bench-prime-%d", i)))
	}
	return out
}
