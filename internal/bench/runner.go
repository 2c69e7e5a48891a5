package bench

import (
	"fmt"
	"math/rand" //slicer:allow weakrand -- seeded query sampling for benchmarks; never touches the deployment's keys
	"time"

	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/workload"
)

// Runner executes experiments under one scale, memoizing built deployments
// so the search/overhead figures reuse the builds the time/storage figures
// already paid for.
type Runner struct {
	scale       Scale
	cache       map[deployKey]*deployment
	searchCache map[searchKey]searchMetrics
	insertStats map[insertKey]core.UpdateStats
	// Progress, when non-nil, receives status lines while experiments run.
	Progress func(format string, args ...any)
	// Registry, when non-nil, collects the series of the servers an
	// experiment starts; cmd/slicer-bench snapshots it around each
	// experiment to report per-experiment instrument deltas.
	Registry *obs.Registry
}

type deployKey struct {
	bits  int
	count int
}

// deployment is one built (bits, count) point.
type deployment struct {
	db    []core.Record
	owner *core.Owner
	user  *core.User
	cloud *core.Cloud // WitnessOnDemand: honest Algorithm-4 VO cost
	stats core.UpdateStats
}

// NewRunner creates a runner for a scale.
func NewRunner(scale Scale) *Runner {
	return &Runner{scale: scale, cache: make(map[deployKey]*deployment)}
}

func (r *Runner) progress(format string, args ...any) {
	if r.Progress != nil {
		r.Progress(format, args...)
	}
}

// ensure builds (or returns the cached) deployment for a sweep point.
func (r *Runner) ensure(bits, count int) (*deployment, error) {
	key := deployKey{bits: bits, count: count}
	if d, ok := r.cache[key]; ok {
		return d, nil
	}
	r.progress("building %d-bit / %d records ...", bits, count)
	db := workload.Generate(workload.Config{
		N:    count,
		Bits: bits,
		Dist: workload.Uniform,
		Seed: int64(bits)*1_000_003 + int64(count),
	})
	owner, err := core.NewOwner(r.scale.Params(bits))
	if err != nil {
		return nil, err
	}
	out, err := owner.Build(db)
	if err != nil {
		return nil, fmt.Errorf("build %d-bit/%d: %w", bits, count, err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessOnDemand)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		return nil, err
	}
	d := &deployment{db: db, owner: owner, user: user, cloud: cloud, stats: owner.LastStats()}
	r.cache[key] = d
	return d, nil
}

// queryValues picks deterministic random query values: for equality they
// are sampled from stored records (so result sets are non-trivial, as in
// the paper's setup); for order queries they are uniform domain values.
func (d *deployment) queryValues(bits, n int, equality bool) []uint64 {
	rng := rand.New(rand.NewSource(int64(bits)*7 + int64(n)*13 + 42))
	out := make([]uint64, n)
	maxV := uint64(1)<<uint(bits) - 1
	for i := range out {
		if equality {
			out[i] = d.db[rng.Intn(len(d.db))].Attrs[0].Value
		} else {
			out[i] = rng.Uint64() & maxV
		}
	}
	return out
}

// searchMetrics aggregates one sweep point's query measurements.
type searchMetrics struct {
	resultGen   time.Duration // avg result-generation time per query
	voGen       time.Duration // avg VO-generation time per query
	tokens      float64       // avg search tokens per query
	resultBytes float64       // avg encrypted-result bytes per query
	voBytes     float64       // avg verification-object bytes per query
	matched     float64       // avg matched records per query
}

// measureSearch runs Q queries of one kind against a deployment and
// averages the Algorithm-4 costs, verifying every response on the way (a
// failed verification aborts the experiment — the numbers would be
// meaningless).
func (r *Runner) measureSearch(d *deployment, bits int, op core.Op) (searchMetrics, error) {
	var m searchMetrics
	q := r.scale.Queries
	values := d.queryValues(bits, q, op == core.OpEqual)
	pp, ac := d.owner.AccumulatorPub(), d.owner.Ac()
	for _, v := range values {
		query := core.Query{Op: op, Value: v}
		if op != core.OpEqual {
			// Alternate direction like the paper's random order queries.
			if v%2 == 0 {
				query.Op = core.OpLess
			} else {
				query.Op = core.OpGreater
			}
		}
		req, err := d.user.Token(query)
		if err != nil {
			return m, err
		}
		start := time.Now()
		resp, err := d.cloud.SearchResults(req)
		if err != nil {
			return m, err
		}
		m.resultGen += time.Since(start)

		start = time.Now()
		if err := d.cloud.AttachWitnesses(resp); err != nil {
			return m, err
		}
		m.voGen += time.Since(start)

		if err := core.VerifyResponse(pp, ac, req, resp); err != nil {
			return m, fmt.Errorf("experiment response failed verification: %w", err)
		}
		m.tokens += float64(len(req.Tokens))
		for _, res := range resp.Results {
			for _, er := range res.ER {
				m.resultBytes += float64(len(er))
				m.matched++
			}
			m.voBytes += float64(len(res.Witness))
		}
	}
	n := time.Duration(q)
	m.resultGen /= n
	m.voGen /= n
	m.tokens /= float64(q)
	m.resultBytes /= float64(q)
	m.voBytes /= float64(q)
	m.matched /= float64(q)
	return m, nil
}

// fmtDur renders a duration in seconds with sensible precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.4fs", d.Seconds())
}

// fmtMB renders bytes as MB.
func fmtMB(b int) string {
	return fmt.Sprintf("%.3fMB", float64(b)/1e6)
}
