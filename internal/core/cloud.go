package core

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"slicer/internal/accumulator"
	"slicer/internal/hprime"
	"slicer/internal/mhash"
	"slicer/internal/obs"
	"slicer/internal/prf"
	"slicer/internal/store"
	"slicer/internal/trapdoor"
)

// WitnessMode selects how the cloud produces accumulator membership
// witnesses.
type WitnessMode int

const (
	// WitnessCached holds a witness for every accumulated prime, the
	// owner's (checked) or, when none were shipped, its own from RootFactor,
	// and maintains them lazily on insert (see ApplyUpdate). Query-time VO
	// generation is then a single lookup plus the pending folds. This
	// matches the fast VO-generation times of the paper's evaluation.
	WitnessCached WitnessMode = iota + 1
	// WitnessOnDemand derives each witness at query time from a memoized
	// RootFactor tree over the current prime list, rebuilt on every update.
	// Cheaper on insert, slower on search; the paper's VO-cost figures
	// (fig5b/fig5d) use it. It never touches the lazy journal, so it is also
	// the reference the cached mode's witnesses are tested against.
	WitnessOnDemand
)

// Cloud is the untrusted search server. It stores the encrypted index I,
// the prime list X, the accumulator public parameters and the trapdoor
// public key; it executes Algorithm 4 (search + VO generation).
//
// A Cloud is safe for concurrent use: Search, SearchResults,
// AttachWitnesses, Marshal and the stats accessors take a read lock, so any
// number of users can query simultaneously; ApplyUpdate takes the write
// lock and observes a quiescent index. Within one request, per-token work
// additionally fans out across one worker per core.
type Cloud struct {
	mu     sync.RWMutex
	params Params
	accPub *accumulator.PublicParams
	tpk    *trapdoor.PublicKey

	index     *store.Index
	primes    []*big.Int
	primeSet  map[string]int       // prime bytes -> index into primes
	witnesses map[string]*witEntry // prime bytes -> cached witness state
	// journal holds, per lazily-applied update, the product of that batch's
	// primes; witEntry.epoch records how many journal entries a witness has
	// already folded in. Appended only under the write lock, entries
	// immutable thereafter, so serve paths read it under the read lock.
	journal       []*big.Int
	pendingPrimes int
	ac            *big.Int
	mode          WitnessMode
	wtree         *accumulator.WitnessTree // on-demand mode: memoized RootFactor tree
	fbG           *accumulator.FixedBase   // comb over g feeding successive wtrees
	rebuilds      int                      // RootFactor rebuilds run, for tests
	met           cloudMetrics

	searchCalls atomic.Uint64 // Search invocations, for round-trip accounting
}

// witEntry is one cached witness. Entries mutate in two places: under the
// cloud's write lock (rebuild), or under the entry's own mutex while the
// caller holds the cloud's read lock (lazy fold on serve) — the write lock
// excludes readers, so the two never race.
type witEntry struct {
	mu sync.Mutex
	w  *big.Int // materialized witness; nil while batch is pending
	// batch/exp defer a new prime's initial witness (batch.base^exp) until
	// first served; epoch counts the journal prefix already folded into w.
	batch *updateBatch
	exp   *big.Int
	epoch int
}

// updateBatch is the shared deferred-computation state of one lazy update:
// the pre-update accumulation value all the batch's new witnesses start
// from, plus a comb table over it, built at most once when the batch is big
// enough that table reuse across the batch's witnesses pays for the build.
type updateBatch struct {
	base *big.Int
	size int
	once sync.Once
	fb   *accumulator.FixedBase
}

// batchCombMin is the batch size from which a lazy update batch builds a
// fixed-base comb over its base accumulation value.
const batchCombMin = 32

// treeCombMin is the prime count from which an on-demand cloud invests in a
// generator comb for its witness trees (only once updates prove the tree
// gets rebuilt; a single static tree never re-exponentiates g).
const treeCombMin = 512

func (b *updateBatch) comb(pp *accumulator.PublicParams) *accumulator.FixedBase {
	b.once.Do(func() {
		if b.size < batchCombMin {
			return
		}
		fb, err := pp.NewFixedBase(b.base, b.size*hprime.PrimeBits, 0)
		if err == nil {
			b.fb = fb
		}
	})
	return b.fb
}

// NewCloud initializes a cloud from the owner's CloudState package.
func NewCloud(st *CloudState, mode WitnessMode) (*Cloud, error) {
	if err := st.Params.validate(); err != nil {
		return nil, err
	}
	if mode != WitnessCached && mode != WitnessOnDemand {
		return nil, fmt.Errorf("core: unknown witness mode %d", mode)
	}
	c := &Cloud{
		params:   st.Params,
		accPub:   st.AccumulatorPub,
		tpk:      st.TrapdoorPub,
		index:    store.NewIndex(),
		primeSet: make(map[string]int),
		ac:       new(big.Int).Set(st.Ac),
		mode:     mode,
	}
	if st.Index != nil {
		if err := c.index.Merge(st.Index); err != nil {
			return nil, err
		}
	}
	c.addPrimes(st.Primes)
	if mode == WitnessCached {
		if err := c.adoptWitnesses(st.Witnesses); err != nil {
			return nil, err
		}
	}
	if mode == WitnessOnDemand {
		c.resetTree()
	}
	return c, nil
}

// adoptWitnesses installs the owner's witnesses, packed and parallel to
// c.primes, once every one checks out; given none, the cloud computes them
// with RootFactor.
func (c *Cloud) adoptWitnesses(ws []byte) error {
	if len(ws) == 0 {
		c.rebuildWitnesses()
		return nil
	}
	if err := c.checkWitnesses(ws, c.primes, c.ac); err != nil {
		return err
	}
	c.installWitnesses(ws)
	return nil
}

// checkWitnesses verifies packed witnesses, parallel to primes, against
// ac: one VerifyMem each (a 128-bit modexp, about 1/log|X| of RootFactor),
// decoded and checked inside the fan-out across the cores. It changes
// nothing, and names the first bad index.
func (c *Cloud) checkWitnesses(ws []byte, primes []*big.Int, ac *big.Int) error {
	size := c.accPub.Size()
	if len(ws) != len(primes)*size {
		return fmt.Errorf("core: %d bytes of witnesses for %d primes of %d bytes", len(ws), len(primes), size)
	}
	return ForEachIndexed(len(primes), runtime.GOMAXPROCS(0), func(i int) error {
		if !c.accPub.VerifyMem(ac, primes[i], new(big.Int).SetBytes(ws[i*size:(i+1)*size])) {
			return fmt.Errorf("core: witness %d does not verify against Ac", i)
		}
		return nil
	})
}

// installWitnesses adopts checked witnesses, packed and parallel to
// c.primes. An existing entry is overwritten in place and is then fully
// current; only primes without one get a new entry. The lazy journal is
// cleared.
func (c *Cloud) installWitnesses(ws []byte) {
	size := c.accPub.Size()
	if c.witnesses == nil {
		c.witnesses = make(map[string]*witEntry, len(c.primes))
	}
	for i, x := range c.primes {
		w, key := ws[i*size:(i+1)*size], string(x.Bytes())
		e := c.witnesses[key]
		if e == nil {
			c.witnesses[key] = &witEntry{w: new(big.Int).SetBytes(w)}
			continue
		}
		if e.w == nil {
			e.w = new(big.Int)
		}
		e.w.SetBytes(w)
		e.batch, e.exp, e.epoch = nil, nil, 0
	}
	c.journal = nil
	c.pendingPrimes = 0
}

// SearchCalls reports how many Search requests the cloud has served — one
// per round trip in a remote deployment. Tests and the evaluation harness
// use it to assert round-trip counts.
func (c *Cloud) SearchCalls() uint64 { return c.searchCalls.Load() }

// Ac returns a copy of the cloud's current accumulation value (the same
// public digest the owner posts on chain).
func (c *Cloud) Ac() *big.Int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return new(big.Int).Set(c.ac)
}

// ApplyUpdate merges an UpdateOutput delta shipped by the owner after an
// Insert: new index entries, new primes and the new accumulation value. It
// takes the cloud's write lock, so in-flight searches drain first and later
// ones observe the full delta.
//
// A cached cloud maintains its witnesses lazily: the batch's prime product
// is appended to a journal and each witness folds its pending exponents only
// when next served, so the write-lock window costs O(|X⁺|) regardless of
// cache size. The insert that takes the pending primes past max(64, |X|/4)
// carries every witness from the owner (UpdateOutput.Witnesses): the cloud
// checks each against the new Ac and overwrites its cache. An update past
// the threshold without them (an older owner, an old WAL record, an owner
// whose count restarted) rebuilds the cache with RootFactor instead. Either
// way a served witness is the one value g^(Π_{j≠i} x_j) mod N,
// byte-identical to what an on-demand cloud derives from its tree.
//
// A delta whose index labels collide with stored ones, or whose shipped
// witnesses do not all verify, is rejected before anything changes: index,
// primes, witnesses and Ac stay as they were.
func (c *Cloud) ApplyUpdate(out *UpdateOutput) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.updates.Inc()
	defer c.met.updateDur.ObserveSince(c.met.updateDur.Start())
	shipped := c.mode == WitnessCached && len(out.Witnesses) > 0
	if shipped {
		if err := c.checkWitnesses(out.Witnesses, slices.Concat(c.primes, out.Primes), out.Ac); err != nil {
			return fmt.Errorf("apply update: %w", err)
		}
	}
	if err := c.index.Merge(out.Index); err != nil {
		return fmt.Errorf("apply index delta: %w", err)
	}
	if shipped || c.mode != WitnessCached || len(out.Primes) == 0 {
		c.addPrimes(out.Primes)
	} else {
		c.applyLazy(out.Primes)
	}
	if shipped {
		c.installWitnesses(out.Witnesses)
	}
	c.ac = new(big.Int).Set(out.Ac)
	if c.mode == WitnessOnDemand {
		// The accumulated set changed; the memoized witness tree is stale.
		c.resetTree()
	}
	return nil
}

// applyLazy journals the batch instead of touching existing witnesses: each
// entry's pending exponents fold in when it is next served (materialize).
// New primes defer even their initial witness — the batch records the
// pre-update accumulation value they all start from, plus a shared comb
// table over it for large batches.
func (c *Cloud) applyLazy(newPrimes []*big.Int) {
	if rebuildDue(c.pendingPrimes, len(newPrimes), len(c.primes)+len(newPrimes)) {
		c.addPrimes(newPrimes)
		c.rebuildWitnesses()
		return
	}
	prod := accumulator.Product(newPrimes)
	c.journal = append(c.journal, prod)
	c.pendingPrimes += len(newPrimes)
	batch := &updateBatch{base: new(big.Int).Set(c.ac), size: len(newPrimes)}
	start := len(c.primes)
	c.addPrimes(newPrimes)
	for i := start; i < len(c.primes); i++ {
		c.witnesses[string(c.primes[i].Bytes())] = &witEntry{
			batch: batch,
			exp:   new(big.Int).Div(prod, c.primes[i]),
			epoch: len(c.journal), // the own batch is already in exp
		}
	}
}

// rebuildDue is the one rule the owner and a cached cloud both apply to an
// insert of added primes that brings the set to total, with pending primes
// journaled before it: past rebuildThreshold(total) the owner ships every
// witness with the insert, and a cloud given none rebuilds them itself.
func rebuildDue(pending, added, total int) bool {
	return added > 0 && pending+added > rebuildThreshold(total)
}

// rebuildThreshold is the pending-prime budget of a cached cloud holding
// total primes.
func rebuildThreshold(total int) int {
	if t := total / 4; t > 64 {
		return t
	}
	return 64
}

// materialize returns the entry's up-to-date witness, computing a deferred
// initial value and folding pending journal epochs first. Callers hold the
// cloud's read lock; concurrent serves of the same entry serialize on the
// entry mutex.
func (c *Cloud) materialize(e *witEntry) *big.Int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.batch != nil {
		if fb := e.batch.comb(c.accPub); fb != nil {
			e.w = fb.Exp(e.exp)
		} else {
			e.w = new(big.Int).Exp(e.batch.base, e.exp, c.accPub.N)
		}
		e.batch, e.exp = nil, nil
	}
	if e.epoch < len(c.journal) {
		// Fold all pending batches in one modexp; exponentiation composes,
		// so this equals folding them one update at a time.
		pending := accumulator.Product(c.journal[e.epoch:])
		e.w = new(big.Int).Exp(e.w, pending, c.accPub.N)
		e.epoch = len(c.journal)
	}
	return e.w
}

// resetTree replaces the on-demand witness tree after the accumulated set
// changed. The generator comb is built on the first rebuild (not at startup:
// a deployment that never updates has exactly one tree, and a comb only pays
// for itself across several) and is reused by every subsequent tree.
func (c *Cloud) resetTree() {
	needBits := (len(c.primes)/2 + 1) * hprime.PrimeBits // top tree nodes: ~half the set's bits
	if c.wtree != nil && len(c.primes) >= treeCombMin &&
		(c.fbG == nil || c.fbG.CapBits() < needBits) {
		// Size for 2x the current set so trickle inserts don't rebuild it.
		if fb, err := c.accPub.NewFixedBase(c.accPub.G, 2*needBits, 0); err == nil {
			c.fbG = fb
		}
	}
	c.wtree = c.accPub.NewWitnessTree(c.primes, c.fbG)
}

func (c *Cloud) addPrimes(primes []*big.Int) {
	for _, p := range primes {
		cp := new(big.Int).Set(p)
		c.primeSet[string(cp.Bytes())] = len(c.primes)
		c.primes = append(c.primes, cp)
	}
}

// rebuildWitnesses recomputes the full witness cache with RootFactor
// (O(|X| log |X|) modexps), fanned out across the available cores. It also
// clears the lazy journal: every rebuilt witness is fully current.
func (c *Cloud) rebuildWitnesses() {
	c.rebuilds++
	c.witnesses = make(map[string]*witEntry, len(c.primes))
	for i, w := range c.accPub.RootFactorParallel(c.primes, runtime.GOMAXPROCS(0)) {
		c.witnesses[string(c.primes[i].Bytes())] = &witEntry{w: w}
	}
	c.journal = nil
	c.pendingPrimes = 0
}

// IndexLen reports the number of stored index entries.
func (c *Cloud) IndexLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.index.Len()
}

// IndexSizeBytes reports the index storage footprint (Fig. 4a).
func (c *Cloud) IndexSizeBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.index.SizeBytes()
}

// PrimeCount reports |X|.
func (c *Cloud) PrimeCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.primes)
}

// ADSSizeBytes reports the storage footprint of the prime list X (Fig. 4b).
func (c *Cloud) ADSSizeBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, p := range c.primes {
		total += (p.BitLen() + 7) / 8
	}
	return total
}

// Search runs Algorithm 4 for every token in the request: walk the trapdoor
// chain from the newest epoch backwards (via π_pk), drain each epoch's
// counter sequence from the index, then build the verification object.
// Tokens are independent keyword searches (one per SORE slice), so they fan
// out across one worker per core; results keep the request's token order
// and a failing request reports the first (lowest-index) token error.
func (c *Cloud) Search(req *SearchRequest) (*SearchResponse, error) {
	return c.SearchTraced(req, nil)
}

// SearchTraced is Search with an optional per-request trace: when tr is
// non-nil every token's collect and witness phase is recorded as a span
// (concurrent spans interleave by offset). The response is byte-identical
// to Search's; a nil trace makes SearchTraced exactly Search.
func (c *Cloud) SearchTraced(req *SearchRequest, tr *obs.Trace) (*SearchResponse, error) {
	c.searchCalls.Add(1)
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.met.searches.Inc()
	c.met.tokens.Add(uint64(len(req.Tokens)))
	t0 := c.met.search.Start()
	results := make([]TokenResult, len(req.Tokens))
	err := ForEachIndexed(len(req.Tokens), runtime.GOMAXPROCS(0), func(i int) error {
		res, err := c.searchToken(req.Tokens[i], tr)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		c.met.errors.Inc()
		return nil, err
	}
	c.met.search.ObserveSince(t0)
	return &SearchResponse{Results: results}, nil
}

// SearchResults runs only the result-generation half of Algorithm 4 (lines
// 2–7), without VO generation. The evaluation harness uses it to separate
// result-generation time (Fig. 5a/5c) from VO-generation time (Fig. 5b/5d).
func (c *Cloud) SearchResults(req *SearchRequest) (*SearchResponse, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	results := make([]TokenResult, len(req.Tokens))
	err := ForEachIndexed(len(req.Tokens), runtime.GOMAXPROCS(0), func(i int) error {
		t0 := c.met.collect.Start()
		er, err := c.collectResults(req.Tokens[i])
		if err != nil {
			return err
		}
		c.met.collect.ObserveSince(t0)
		c.met.results.Add(uint64(len(er)))
		results[i] = TokenResult{Token: req.Tokens[i], ER: er}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SearchResponse{Results: results}, nil
}

// AttachWitnesses fills in the verification objects for a response produced
// by SearchResults, one token per worker, one worker per core.
func (c *Cloud) AttachWitnesses(resp *SearchResponse) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return ForEachIndexed(len(resp.Results), runtime.GOMAXPROCS(0), func(i int) error {
		t0 := c.met.witness.Start()
		vo, err := c.witnessFor(resp.Results[i].Token, resp.Results[i].ER)
		if err != nil {
			return err
		}
		c.met.witness.ObserveSince(t0)
		resp.Results[i].Witness = vo
		return nil
	})
}

func (c *Cloud) searchToken(tok SearchToken, tr *obs.Trace) (TokenResult, error) {
	endCollect := obs.StartPhase(c.met.collect, tr, "cloud.collect")
	er, err := c.collectResults(tok)
	if err != nil {
		return TokenResult{}, err
	}
	endCollect()
	c.met.results.Add(uint64(len(er)))
	endWitness := obs.StartPhase(c.met.witness, tr, "cloud.witness")
	vo, err := c.witnessFor(tok, er)
	if err != nil {
		return TokenResult{}, err
	}
	endWitness()
	return TokenResult{Token: tok, ER: er, Witness: vo}, nil
}

// resultChunk is how many unmasked entries share one backing allocation in
// collectResults.
const resultChunk = 64

// collectResults walks epochs j..0 of one keyword's trapdoor chain and
// unmasks every stored handle. The label/mask PRF states and the result
// backing storage are allocated once per call and reused across entries
// (large result sets previously paid three heap allocations per entry).
func (c *Cloud) collectResults(tok SearchToken) ([][]byte, error) {
	lk, err := prf.KeyFromBytes(tok.G1)
	if err != nil {
		return nil, fmt.Errorf("token G1: %w", err)
	}
	dk, err := prf.KeyFromBytes(tok.G2)
	if err != nil {
		return nil, fmt.Errorf("token G2: %w", err)
	}
	labelEval := lk.NewEvaluator()
	maskEval := dk.NewEvaluator()
	var er [][]byte
	var chunk []byte
	t := tok.Trapdoor
	for i := tok.Epoch; i >= 0; i-- {
		for cctr := uint64(0); ; cctr++ {
			l, err := store.LabelFromBytes(labelEval.EvalWithCounter(t, cctr))
			if err != nil {
				return nil, err
			}
			d, ok := c.index.Get(l)
			if !ok {
				break
			}
			mask := maskEval.EvalWithCounter(t, cctr)
			if len(chunk) < store.EntrySize {
				chunk = make([]byte, resultChunk*store.EntrySize)
			}
			r := chunk[:store.EntrySize:store.EntrySize]
			chunk = chunk[store.EntrySize:]
			for b := range r {
				r[b] = mask[b] ^ d[b]
			}
			er = append(er, r)
		}
		if i > 0 {
			t, err = c.tpk.Forward(t)
			if err != nil {
				return nil, fmt.Errorf("walk trapdoor chain: %w", err)
			}
		}
	}
	return er, nil
}

// witnessFor derives the prime representative for (token, results) and
// produces its membership witness.
func (c *Cloud) witnessFor(tok SearchToken, er [][]byte) ([]byte, error) {
	x, _ := tokenPrime(tok.Trapdoor, tok.Epoch, tok.G1, tok.G2, mhash.OfMultiset(er))
	return c.witnessForPrime(x)
}

// witnessForPrime produces the membership witness for a prime
// representative. Callers hold the read lock (WitnessForPrime wraps it for
// the shard router; witnessFor rides inside a search request).
func (c *Cloud) witnessForPrime(x *big.Int) ([]byte, error) {
	// Neither error below embeds the prime: it is PRF-derived from the
	// token, and error strings travel into logs and wire responses where
	// secrettaint (rightly) refuses to let key-derived bytes go.
	key := string(x.Bytes())
	idx, ok := c.primeSet[key]
	if !ok {
		return nil, ErrUnknownToken
	}
	var w *big.Int
	switch c.mode {
	case WitnessCached:
		e := c.witnesses[key]
		if e == nil {
			return nil, fmt.Errorf("core: witness cache miss for accumulated prime")
		}
		w = c.materialize(e)
	case WitnessOnDemand:
		// NewCloud, UnmarshalCloud and ApplyUpdate all call resetTree after
		// changing c.primes, so the tree always covers the current set.
		w = c.wtree.Witness(idx)
	}
	return c.accPub.EncodeValue(w), nil
}
