package main

import (
	"math/rand"
	"sort"

	"slicer/internal/core"
	"slicer/internal/workload"
)

// spec is one named workload: a topology, a database size, how the search
// phase mixes equality and order queries, and how much of each phase it runs.
type spec struct {
	name    string
	topo    topology
	records int
	// Round i of the search phase is an order query when i%period < orders.
	period, orders int
	// The search phase is stationary and runs by the clock, for searchShare of
	// the run's seconds. The churn phase is not (the database grows, witnesses
	// go stale, the cloud rebuilds them all once a quarter of its primes are
	// pending), so it is a fixed number of cycles, sized on the reference box
	// to fill the rest of ten seconds. The read-heavy workloads stop before
	// the first rebuild, a stall of some 2 s; churn-durable is small enough to
	// cross five of them.
	searchShare float64
	cycles      int
}

var specs = []spec{
	{name: "inproc-order", topo: topoInproc, records: 1000, period: 5, orders: 4, searchShare: 0.65, cycles: 32},
	{name: "wire-mixed", topo: topoWire, records: 1000, period: 5, orders: 1, searchShare: 0.65, cycles: 32},
	{name: "router3-mixed", topo: topoRouter3, records: 1000, period: 5, orders: 1, searchShare: 0.65, cycles: 32},
	{name: "churn-durable", topo: topoDurable, records: 128, period: 5, orders: 1, searchShare: 0.35, cycles: 60},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scale holds the sizes a smoke test shrinks. records and cycles of 0 keep
// the spec's.
type scale struct {
	params     core.Params
	records    int
	cycles     int
	batch      int // records per insert
	warmRounds int // untimed search rounds after each set-up
	warmCycles int // untimed churn cycles between the two phases
	setups     int // set-ups per run; setup_s is their median
	// The chain is renewed every epochRounds requests (see system.newChain);
	// the search phase runs whole epochs, at least minEpochs of them.
	epochRounds int
	minEpochs   int
}

// epochCycles is how many churn cycles put epochRounds requests on a chain.
func (sc scale) epochCycles() int { return sc.epochRounds / (2 + cycleEq) }

var fullScale = scale{
	params:     core.Params{Bits: 16, TrapdoorBits: 512, AccumulatorBits: 512},
	batch:      4,
	warmRounds: 50,
	warmCycles: 2,
	setups:     3,

	epochRounds: 150,
	minEpochs:   countedEpochs,
}

// One churn cycle: an insert, a cold search, cycleEq warm equality searches,
// the other cold search.
const cycleEq = 2

// countedEpochs: tokens, results, bytes and RPCs per search are means over
// the rounds of this many first epochs of the search phase, the same rounds
// on every run of a seed, so those counts repeat exactly. In the traced run
// spans are recorded in every other epoch, which gives the tracing overhead
// from one process over the same stretch of chain, so the number is even.
const countedEpochs = 8

// tamperProbes cheating rounds follow the timed section.
const tamperProbes = 5

// sampleEvery is the stride at which rounds are framed for their codec time
// and, in the traced run, replayed on the reference cloud. It shares no
// factor with any spec's period, so samples keep the workload's mix.
const sampleEvery = 11

// oracle is the plaintext database, kept in step with inserts.
type oracle struct {
	ids    []uint64
	values []uint64
}

func (o *oracle) add(recs []core.Record) {
	for _, r := range recs {
		o.ids = append(o.ids, r.ID)
		o.values = append(o.values, r.Attrs[0].Value)
	}
}

func (o *oracle) answer(q core.Query) []uint64 {
	var out []uint64
	for i, v := range o.values {
		if (q.Op == core.OpEqual && v == q.Value) || (q.Op == core.OpLess && v < q.Value) || (q.Op == core.OpGreater && v > q.Value) {
			out = append(out, o.ids[i])
		}
	}
	return out
}

func sameIDs(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]uint64(nil), got...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	for i := range g { // want comes from the oracle in ascending ID order
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// stream generates a workload's queries and inserts from the seed. Equality
// values are drawn from existing records. Order thresholds step through the
// domain by the golden ratio from a seeded start, alternating < and >: that
// covers the domain as evenly as uniform draws do on average, but within
// every run, so a run's median result size does not depend on its luck.
type stream struct {
	db     *oracle
	bits   int
	qrng   *rand.Rand
	irng   *rand.Rand
	round  int
	orders uint64
	base   uint64
	stride uint64
	nextID uint64
}

func newStream(db []core.Record, bits int, seed int64) *stream {
	o := &oracle{}
	o.add(db)
	qrng := rand.New(rand.NewSource(seed))
	domain := uint64(1) << uint(bits)
	return &stream{
		db:     o,
		bits:   bits,
		qrng:   qrng,
		irng:   rand.New(rand.NewSource(seed + 1)),
		base:   qrng.Uint64() % domain,
		stride: uint64(float64(domain)*0.6180339887) | 1,
		nextID: uint64(len(db)) + 1,
	}
}

func (g *stream) equal() core.Query {
	return core.Equal(g.db.values[g.qrng.Intn(len(g.db.values))])
}

func (g *stream) order() core.Query {
	g.orders++
	v := (g.base + g.orders*g.stride) % (uint64(1) << uint(g.bits))
	if g.orders%2 == 0 {
		return core.Greater(v)
	}
	return core.Less(v)
}

// cold is one of the two searches that follow every insert: always the same
// two queries, as a user who re-runs two reports after each load would send
// them. The first threshold has its five one-bits right below the top bit and
// the second is its complement, so each query carries five tokens whose slices
// exist in any dataset of a few hundred records, the two share no token, each
// matches 48 % of a uniform dataset, and each of their witnesses was last
// served exactly one insert ago: every cold search owes the same one-batch
// fold per token, on every cycle and every seed. (A stream of fresh order
// queries would not: each token's fold grows with the inserts its witness has
// sat out, so the cost would follow the luck of the draw.)
func (g *stream) cold(second bool) core.Query {
	v := uint64(0b011111) << uint(g.bits-6)
	if second {
		return core.Greater(uint64(1)<<uint(g.bits) - 1 - v)
	}
	return core.Less(v)
}

// next is the search phase's query for its next round.
func (g *stream) next(s spec) core.Query {
	i := g.round
	g.round++
	if i%s.period < s.orders {
		return g.order()
	}
	return g.equal()
}

// batch makes n fresh records with uniform values.
func (g *stream) batch(n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.NewRecord(g.nextID, g.irng.Uint64()&(uint64(1)<<uint(g.bits)-1))
		g.nextID++
	}
	return recs
}

func dataset(n, bits int, seed int64) []core.Record {
	return workload.Generate(workload.Config{N: n, Bits: bits, Dist: workload.Uniform, Seed: seed})
}
