package core

import (
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"time"

	"slicer/internal/accumulator"
	"slicer/internal/mhash"
	"slicer/internal/prf"
	"slicer/internal/sore"
	"slicer/internal/store"
	"slicer/internal/symenc"
	"slicer/internal/trapdoor"
)

// Owner is the fully trusted data owner. It generates all keys, builds the
// encrypted index and ADS (Algorithm 1), and performs forward-secure
// insertions (Algorithm 2).
type Owner struct {
	params Params

	master prf.Key        // K: master PRF key, shared with users
	gKey   prf.Key        // G, derived from K
	enc    *symenc.Cipher // K_R
	scheme *sore.Scheme   // tuple slicer
	tsk    *trapdoor.SecretKey
	acc    *accumulator.Params

	states    *store.TrapdoorStates // T
	setHashes *store.SetHashes      // S
	primes    []*big.Int            // owner's mirror of X
	ac        *big.Int              // current accumulation value
	seen      map[uint64]struct{}   // inserted record IDs
	built     bool
	lastStats UpdateStats
	// pending counts the primes inserted since the last witness-bearing
	// insert, the count a cached cloud journals. It is not persisted: an
	// owner restored from Marshal starts it at 0.
	pending int
}

// UpdateStats reports how the last Build or Insert call's time split
// between encrypted-index construction and ADS (prime derivation +
// accumulation) work. The evaluation harness uses it to reproduce the
// paper's separate index-vs-ADS curves (Figs. 3 and 7).
type UpdateStats struct {
	// IndexDuration covers tuple slicing, PRF addressing, index entry
	// writes and the incremental set hashing.
	IndexDuration time.Duration
	// ADSDuration covers prime-representative derivation and the
	// accumulator update.
	ADSDuration time.Duration
	// Keywords is the number of distinct keywords touched.
	Keywords int
	// NewPrimes is |X⁺| (equal to Keywords for Build).
	NewPrimes int
}

// UpdateOutput is what the owner ships to the cloud after Build or Insert:
// the (delta) encrypted index, the (delta) prime list, and the new
// accumulation value. After Build the fields carry the full state.
type UpdateOutput struct {
	Index  *store.Index
	Primes []*big.Int
	Ac     *big.Int
	// Witnesses is set only on the insert that takes the pending primes
	// past the rebuild threshold (never by Build): every prime's witness,
	// parallel to the cloud's prime list after the update, packed at
	// AccumulatorPub().Size() bytes each.
	Witnesses []byte
}

// ClientState is the package the owner hands to an authorized data user:
// the secret keys (K, K_R) and a copy of the trapdoor state dictionary T.
type ClientState struct {
	Params    Params
	MasterKey []byte
	EncKey    []byte
	States    *store.TrapdoorStates
}

// CloudState is the initialization package for a cloud: public parameters
// plus the full index, prime list and accumulation value.
type CloudState struct {
	Params         Params
	AccumulatorPub *accumulator.PublicParams
	TrapdoorPub    *trapdoor.PublicKey
	Index          *store.Index
	Primes         []*big.Int
	Ac             *big.Int
	// Witnesses is parallel to Primes, packed at AccumulatorPub.Size()
	// bytes each. A cached cloud checks and adopts them; when they are
	// absent it computes them itself with RootFactor.
	Witnesses []byte
}

// NewOwner generates a fresh deployment: master PRF key, record-encryption
// key, trapdoor permutation keypair and accumulator parameters.
func NewOwner(params Params) (*Owner, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	master, err := prf.NewKey()
	if err != nil {
		return nil, fmt.Errorf("owner keygen: %w", err)
	}
	enc, err := symenc.NewRandomCipher()
	if err != nil {
		return nil, fmt.Errorf("owner keygen: %w", err)
	}
	tsk, err := trapdoor.GenerateKey(params.TrapdoorBits)
	if err != nil {
		return nil, fmt.Errorf("trapdoor keygen: %w", err)
	}
	acc, err := accumulator.Setup(params.AccumulatorBits)
	if err != nil {
		return nil, fmt.Errorf("accumulator setup: %w", err)
	}
	scheme, err := sore.New(master.SubKey("sore"), params.Bits)
	if err != nil {
		return nil, err
	}
	return &Owner{
		params:    params,
		master:    master,
		gKey:      master.SubKey("G"),
		enc:       enc,
		scheme:    scheme,
		tsk:       tsk,
		acc:       acc,
		states:    store.NewTrapdoorStates(),
		setHashes: store.NewSetHashes(),
		ac:        new(big.Int).Set(acc.G),
		seen:      make(map[uint64]struct{}),
	}, nil
}

// Params returns the deployment parameters.
func (o *Owner) Params() Params { return o.params }

// Ac returns the current accumulation value (posted to the blockchain).
func (o *Owner) Ac() *big.Int { return new(big.Int).Set(o.ac) }

// AccumulatorPub returns the public accumulator parameters.
func (o *Owner) AccumulatorPub() *accumulator.PublicParams { return o.acc.Public() }

// TrapdoorPub returns the public half of the trapdoor permutation.
func (o *Owner) TrapdoorPub() *trapdoor.PublicKey { return &o.tsk.PublicKey }

// ClientState exports the keys and trapdoor states for an authorized data
// user. Each call returns an independent copy of T. Like StatesSnapshot it
// only reads the owner: Build, Insert and UnmarshalOwner leave T frozen.
func (o *Owner) ClientState() *ClientState {
	return &ClientState{
		Params:    o.params,
		MasterKey: o.master.Bytes(),
		EncKey:    o.enc.KeyBytes(),
		States:    o.states.Clone(),
	}
}

// primeInput collects the fields a keyword's prime representative commits
// to; Build/Insert gather them during index construction and derive the
// primes in a separately-timed ADS phase.
type primeInput struct {
	t      []byte
	j      int
	g1, g2 []byte
	h      mhash.Hash
}

// LastStats returns the phase timings of the most recent Build or Insert.
func (o *Owner) LastStats() UpdateStats { return o.lastStats }

// derivePrimes maps keyword commitments to their prime representatives,
// fanning the (independent, CPU-bound) hash-to-prime derivations across the
// available cores. Output order matches the input order.
func derivePrimes(commits []primeInput) []*big.Int {
	primes := make([]*big.Int, len(commits))
	_ = ForEachIndexed(len(commits), runtime.GOMAXPROCS(0), func(i int) error {
		c := commits[i]
		primes[i], _ = tokenPrime(c.t, c.j, c.g1, c.g2, c.h)
		return nil
	})
	return primes
}

// StatesSnapshot exports a copy of the current trapdoor dictionary T, which
// the owner redistributes to users after each Insert (Algorithm 2 line 28).
func (o *Owner) StatesSnapshot() *store.TrapdoorStates { return o.states.Clone() }

// StatesLen reports how many keywords T tracks.
func (o *Owner) StatesLen() int { return o.states.Len() }

// keywordsOf returns every index keyword a record contributes: per
// attribute, the equality keyword plus the b SORE ciphertext tuples.
func (o *Owner) keywordsOf(rec Record) ([][]byte, error) {
	if len(rec.Attrs) == 0 {
		return nil, fmt.Errorf("core: record %d has no attributes", rec.ID)
	}
	keywords := make([][]byte, 0, len(rec.Attrs)*(2*o.params.Bits+1))
	for _, av := range rec.Attrs {
		attr := []byte(av.Name)
		keywords = append(keywords, sore.EqualityKeyword(attr, o.params.Bits, av.Value))
		tuples, err := o.scheme.EncryptTuples(attr, av.Value)
		if err != nil {
			return nil, fmt.Errorf("record %d attr %q: %w", rec.ID, av.Name, err)
		}
		keywords = append(keywords, tuples...)
		if o.params.PrefixIndex {
			prefixes, err := o.scheme.PrefixKeywordsOf(attr, av.Value)
			if err != nil {
				return nil, fmt.Errorf("record %d attr %q: %w", rec.ID, av.Name, err)
			}
			keywords = append(keywords, prefixes...)
		}
	}
	return keywords, nil
}

// groupByKeyword maps each keyword to the encrypted handles of the records
// containing it (the paper's DB(w)).
func (o *Owner) groupByKeyword(db []Record) (map[string][][]byte, error) {
	groups := make(map[string][][]byte)
	for _, rec := range db {
		encID := o.enc.EncryptID(rec.ID)
		keywords, err := o.keywordsOf(rec)
		if err != nil {
			return nil, err
		}
		for _, w := range keywords {
			groups[string(w)] = append(groups[string(w)], encID[:])
		}
	}
	return groups, nil
}

// g1g2 derives the per-keyword index keys G1 = G(K, w||1), G2 = G(K, w||2).
func (o *Owner) g1g2(w []byte) (g1, g2 []byte) {
	g1 = o.gKey.EvalConcat(w, []byte{1})
	g2 = o.gKey.EvalConcat(w, []byte{2})
	return g1, g2
}

// advance fills c with keyword w's index keys and its next trapdoor and
// epoch: a fresh trapdoor at epoch 0 for a keyword new to T, else π_sk⁻¹
// of the current one. It returns the S key of the epoch w leaves ("" for a
// new keyword). It only reads T, so calls for distinct keywords may run
// concurrently.
func (o *Owner) advance(w []byte, c *primeInput) (oldKey string, err error) {
	c.g1, c.g2 = o.g1g2(w)
	st, ok := o.states.Get(w)
	if !ok {
		if c.t, err = o.tsk.Sample(); err != nil {
			return "", fmt.Errorf("sample trapdoor: %w", err)
		}
		return "", nil
	}
	if c.t, err = o.tsk.Inverse(st.Trapdoor); err != nil {
		return "", fmt.Errorf("advance trapdoor: %w", err)
	}
	c.j = st.Epoch + 1
	return store.SetHashKey(st.Trapdoor, st.Epoch, c.g1, c.g2), nil
}

// indexEntries writes the entries for one keyword epoch into ix, starting at
// counter 0, and folds each handle into the running multiset hash.
func indexEntries(ix *store.Index, g1, g2, t []byte, encIDs [][]byte, h mhash.Hash) (mhash.Hash, error) {
	lk, err := prf.KeyFromBytes(g1)
	if err != nil {
		return h, err
	}
	dk, err := prf.KeyFromBytes(g2)
	if err != nil {
		return h, err
	}
	for c, encID := range encIDs {
		l, err := store.LabelFromBytes(lk.EvalWithCounter(t, uint64(c)))
		if err != nil {
			return h, err
		}
		mask := dk.EvalWithCounter(t, uint64(c))
		var d store.Payload
		for i := range d {
			d[i] = mask[i] ^ encID[i]
		}
		if err := ix.Put(l, d); err != nil {
			return h, err
		}
		h = h.Add(encID)
	}
	return h, nil
}

// checkNewRecords validates IDs (unique, never seen) and attribute values
// (within bit width). It does not mutate owner state.
func (o *Owner) checkNewRecords(db []Record) error {
	batch := make(map[uint64]struct{}, len(db))
	for _, rec := range db {
		if _, dup := o.seen[rec.ID]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateID, rec.ID)
		}
		if _, dup := batch[rec.ID]; dup {
			return fmt.Errorf("%w: %d appears twice in batch", ErrDuplicateID, rec.ID)
		}
		batch[rec.ID] = struct{}{}
		if len(rec.Attrs) == 0 {
			return fmt.Errorf("core: record %d has no attributes", rec.ID)
		}
		for _, av := range rec.Attrs {
			if o.params.Bits < 64 && av.Value >= 1<<uint(o.params.Bits) {
				return fmt.Errorf("core: record %d attr %q value %d exceeds %d bits",
					rec.ID, av.Name, av.Value, o.params.Bits)
			}
		}
	}
	return nil
}

// Build runs Algorithm 1 over the initial database, producing the encrypted
// index, the prime list X and the accumulation value Ac. Algorithm 1 is
// Algorithm 2 on an owner that holds no keyword yet, so Build is the first
// insert. It may be called once; later additions go through Insert.
func (o *Owner) Build(db []Record) (*UpdateOutput, error) {
	if o.built {
		return nil, fmt.Errorf("core: Build already ran; use Insert for updates")
	}
	out, err := o.insert(db)
	if err != nil {
		return nil, err
	}
	o.built = true
	return out, nil
}

// Insert runs Algorithm 2 over a batch of new records, producing the index
// delta, the new primes X⁺ and the updated accumulation value. Keywords that
// already exist have their trapdoor advanced with π_sk^{-1} (forward
// security) and their set hash carried over under the new epoch key.
func (o *Owner) Insert(db []Record) (*UpdateOutput, error) {
	if !o.built {
		return nil, ErrNotBuilt
	}
	return o.insert(db)
}

// insert is Algorithm 2, shared by Build and Insert. A keyword new to T
// samples a fresh trapdoor at epoch 0; keywords go in sorted order, which
// keeps the output reproducible for tests (the dictionary is history
// independent regardless).
//
// Every step that can fail runs before the first write to T, S, X, Ac or
// the seen IDs, so a failed insert leaves the owner as it was. The
// trapdoor steps, one modexp per existing keyword, fan out across the
// cores and read T only; the index entries and set hashes follow in
// keyword order.
func (o *Owner) insert(db []Record) (*UpdateOutput, error) {
	if err := o.checkNewRecords(db); err != nil {
		return nil, err
	}
	groups, err := o.groupByKeyword(db)
	if err != nil {
		return nil, err
	}
	ix := store.NewIndex()
	keywords := sortedKeys(groups)

	indexStart := statsNow()
	commits := make([]primeInput, len(keywords))
	oldKeys := make([]string, len(keywords)) // S key of the epoch left; "" for a new keyword
	err = ForEachIndexed(len(keywords), runtime.GOMAXPROCS(0), func(i int) (err error) {
		oldKeys[i], err = o.advance([]byte(keywords[i]), &commits[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range commits {
		c, h := &commits[i], mhash.Empty()
		if oldKeys[i] != "" {
			var ok bool
			if h, ok = o.setHashes.Get(oldKeys[i]); !ok {
				return nil, fmt.Errorf("core: set hash missing for existing keyword")
			}
		}
		if c.h, err = indexEntries(ix, c.g1, c.g2, c.t, groups[keywords[i]], h); err != nil {
			return nil, err
		}
	}
	indexDur := statsNow().Sub(indexStart)

	adsStart := statsNow()
	newPrimes := derivePrimes(commits)
	ac, err := o.acc.AddFast(o.ac, newPrimes)
	if err != nil {
		return nil, err
	}
	o.lastStats = UpdateStats{
		IndexDuration: indexDur,
		ADSDuration:   statsNow().Sub(adsStart),
		Keywords:      len(keywords),
		NewPrimes:     len(newPrimes),
	}

	// Nothing below fails: commit T, S, X, Ac and the seen IDs.
	for i, c := range commits {
		if oldKeys[i] != "" {
			o.setHashes.Pop(oldKeys[i])
		}
		o.states.Put([]byte(keywords[i]), store.TrapdoorState{Trapdoor: c.t, Epoch: c.j})
		o.setHashes.Put(store.SetHashKey(c.t, c.j, c.g1, c.g2), c.h)
	}
	o.states.Freeze()
	o.ac = ac
	o.primes = append(o.primes, newPrimes...)
	for _, rec := range db {
		o.seen[rec.ID] = struct{}{}
	}
	out := &UpdateOutput{Index: ix, Primes: clonePrimes(newPrimes), Ac: o.Ac()}
	if o.built {
		// The cloud's own rule on the same counts: the insert that would make
		// a cached cloud rebuild carries the witnesses instead.
		if rebuildDue(o.pending, len(newPrimes), len(o.primes)) {
			out.Witnesses, o.pending = o.witnesses(), 0
		} else {
			o.pending += len(newPrimes)
		}
	}
	return out, nil
}

// CloudInit exports the full cloud state after Build (and any number of
// Inserts), with every prime's witness. Use the per-call UpdateOutput
// deltas for incremental shipping.
func (o *Owner) CloudInit(full *store.Index) *CloudState {
	return &CloudState{
		Params:         o.params,
		AccumulatorPub: o.acc.Public(),
		TrapdoorPub:    o.TrapdoorPub(),
		Index:          full,
		Primes:         clonePrimes(o.primes),
		Ac:             o.Ac(),
		Witnesses:      o.witnesses(),
	}
}

// witnesses computes every prime's witness with the accumulator trapdoor,
// one index per task across the cores, each written straight into its
// fixed-width slot of one buffer. Nil (a trapdoor that does not factor n)
// leaves the cloud to compute them.
func (o *Owner) witnesses() []byte {
	witness, err := o.acc.Witnesses(o.primes)
	if err != nil {
		return nil
	}
	size := o.acc.Size()
	ws := make([]byte, len(o.primes)*size)
	_ = ForEachIndexed(len(o.primes), runtime.GOMAXPROCS(0), func(i int) error {
		witness(i).FillBytes(ws[i*size : (i+1)*size])
		return nil
	})
	return ws
}

// statsNow feeds the UpdateStats instrumentation timings only; no
// protocol byte (index entries, primes, Ac) ever depends on it, so it is
// the single sanctioned wall-clock read in this package.
var statsNow = time.Now //slicer:allow wallclock -- instrumentation-only clock for UpdateStats; protocol output never reads it

func sortedKeys(m map[string][][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func clonePrimes(primes []*big.Int) []*big.Int {
	out := make([]*big.Int, len(primes))
	for i, p := range primes {
		out[i] = new(big.Int).Set(p)
	}
	return out
}
