package core

import (
	"errors"
	"math/rand"
	"testing"
)

// TestMultiUser models the paper's multi-user setting: several authorized
// users hold independent copies of (K, K_R, T) and interleave searches;
// after inserts, only users with refreshed states see new data, and every
// response verifies against the single on-chain Ac regardless of which
// user asked.
func TestMultiUser(t *testing.T) {
	db := []Record{NewRecord(1, 5), NewRecord(2, 9), NewRecord(3, 5)}
	d := deploy(t, 8, db, WitnessCached)

	u2, err := NewUser(d.owner.ClientState())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}

	run := func(u *User, q Query) []uint64 {
		t.Helper()
		req, err := u.Token(q)
		if err != nil {
			t.Fatalf("Token: %v", err)
		}
		resp, err := d.cloud.Search(req)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if err := VerifyResponse(d.owner.AccumulatorPub(), d.owner.Ac(), req, resp); err != nil {
			t.Fatalf("verify: %v", err)
		}
		ids, err := u.Decrypt(resp)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		return ids
	}

	if got := run(d.user, Equal(5)); !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("user1 Equal(5) = %v", got)
	}
	if got := run(u2, Equal(5)); !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("user2 Equal(5) = %v", got)
	}

	// Insert; refresh only user2.
	out, err := d.owner.Insert([]Record{NewRecord(4, 5)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	u2.UpdateStates(d.owner.StatesSnapshot())

	// user2 sees the fresh data, fully verified.
	if got := run(u2, Equal(5)); !equalIDs(got, []uint64{1, 3, 4}) {
		t.Fatalf("refreshed user Equal(5) = %v", got)
	}

	// user1 still holds the pre-insert T. Its token reaches only the old
	// epoch, and — because Algorithm 2 only ever adds primes to X — the
	// old-state answer still carries a valid proof. That is by design: the
	// response is a *correct* answer for the state the token references.
	// Freshness in the multi-user setting is established out of band: the
	// contract's AcUpdated counter tells a lagging user that newer state
	// exists and their T must be resynced (see Deployment.VerifyFreshness
	// and contract.TestStaleAcRejectedOnChain for the chain-side half:
	// a *cloud* replaying a stale Ac against a fresh token is rejected).
	if got := run(d.user, Equal(5)); !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("stale user Equal(5) = %v, want the pre-insert answer [1 3]", got)
	}
}

// TestAdversarialTamperNeverVerifies is a randomized property test over the
// whole verification pipeline: for random databases, random queries and a
// random tampering action, the mutated response must never pass Algorithm 5.
func TestAdversarialTamperNeverVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := make([]Record, 40)
	for i := range db {
		db[i] = NewRecord(uint64(i+1), uint64(rng.Intn(256)))
	}
	d := deploy(t, 8, db, WitnessCached)
	pp, ac := d.owner.AccumulatorPub(), d.owner.Ac()

	tampers := []func(*SearchResponse) bool{
		func(r *SearchResponse) bool { // drop one er entry
			for i := range r.Results {
				if len(r.Results[i].ER) > 0 {
					r.Results[i].ER = r.Results[i].ER[1:]
					return true
				}
			}
			return false
		},
		func(r *SearchResponse) bool { // flip a random byte in an er entry
			for i := range r.Results {
				if len(r.Results[i].ER) > 0 {
					er := r.Results[i].ER[rng.Intn(len(r.Results[i].ER))]
					er[rng.Intn(len(er))] ^= 1 << uint(rng.Intn(8))
					return true
				}
			}
			return false
		},
		func(r *SearchResponse) bool { // duplicate an er entry
			for i := range r.Results {
				if len(r.Results[i].ER) > 0 {
					r.Results[i].ER = append(r.Results[i].ER, r.Results[i].ER[0])
					return true
				}
			}
			return false
		},
		func(r *SearchResponse) bool { // corrupt a witness
			if len(r.Results) == 0 {
				return false
			}
			w := r.Results[rng.Intn(len(r.Results))].Witness
			if len(w) == 0 {
				return false
			}
			w[rng.Intn(len(w))] ^= 1 << uint(rng.Intn(8))
			return true
		},
		func(r *SearchResponse) bool { // swap witnesses between tokens
			if len(r.Results) < 2 {
				return false
			}
			r.Results[0].Witness, r.Results[1].Witness = r.Results[1].Witness, r.Results[0].Witness
			// Only a real tamper if the result sets differ.
			return len(r.Results[0].ER) != len(r.Results[1].ER)
		},
		func(r *SearchResponse) bool { // drop a whole token result
			if len(r.Results) == 0 {
				return false
			}
			r.Results = r.Results[1:]
			return true
		},
		func(r *SearchResponse) bool { // move a result between tokens
			for i := range r.Results {
				if len(r.Results[i].ER) > 0 {
					for k := range r.Results {
						if k != i {
							r.Results[k].ER = append(r.Results[k].ER, r.Results[i].ER[0])
							r.Results[i].ER = r.Results[i].ER[1:]
							return true
						}
					}
				}
			}
			return false
		},
	}

	const trials = 60
	applied := 0
	for trial := 0; trial < trials; trial++ {
		var q Query
		switch rng.Intn(3) {
		case 0:
			q = Equal(uint64(rng.Intn(256)))
		case 1:
			q = Less(uint64(rng.Intn(255) + 1))
		default:
			q = Greater(uint64(rng.Intn(255)))
		}
		req, err := d.user.Token(q)
		if err != nil {
			t.Fatalf("Token: %v", err)
		}
		resp, err := d.cloud.Search(req)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if err := VerifyResponse(pp, ac, req, resp); err != nil {
			t.Fatalf("honest response rejected: %v", err)
		}
		if tampers[rng.Intn(len(tampers))](resp) {
			applied++
			if err := VerifyResponse(pp, ac, req, resp); err == nil {
				t.Fatalf("trial %d: tampered response (query %v %d) verified", trial, q.Op, q.Value)
			}
		}
	}
	if applied < trials/3 {
		t.Fatalf("only %d/%d trials applied a tamper; fixture too sparse", applied, trials)
	}
}

// TestExhaustiveQueries4Bit runs every possible query of a 4-bit domain
// (all operators × all values) against a random database and the plaintext
// ground truth — complete behavioural coverage of the query space at small
// scale.
func TestExhaustiveQueries4Bit(t *testing.T) {
	rng := newDeterministicValues(16, 31)
	db := make([]Record, 25)
	for i := range db {
		db[i] = NewRecord(uint64(i+1), rng())
	}
	d := deploy(t, 4, db, WitnessCached)
	for v := uint64(0); v < 16; v++ {
		for _, op := range []Op{OpEqual, OpLess, OpGreater} {
			got := d.search(t, Query{Op: op, Value: v})
			want := wantIDs(db, func(r Record) bool {
				switch op {
				case OpEqual:
					return r.Attrs[0].Value == v
				case OpLess:
					return r.Attrs[0].Value < v
				default:
					return r.Attrs[0].Value > v
				}
			})
			if !equalIDs(got, want) {
				t.Fatalf("query %v %d: got %v, want %v", op, v, got, want)
			}
		}
	}
}

// newDeterministicValues yields a simple LCG over [0, mod) for seed-stable
// tests without importing math/rand here.
func newDeterministicValues(mod, seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % mod
	}
}

// TestEdgeBitWidths exercises the 1-bit and 64-bit extremes of the scheme.
func TestEdgeBitWidths(t *testing.T) {
	t.Run("1bit", func(t *testing.T) {
		db := []Record{NewRecord(1, 0), NewRecord(2, 1), NewRecord(3, 1)}
		d := deploy(t, 1, db, WitnessCached)
		if got := d.search(t, Equal(1)); !equalIDs(got, []uint64{2, 3}) {
			t.Errorf("Equal(1) = %v", got)
		}
		if got := d.search(t, Less(1)); !equalIDs(got, []uint64{1}) {
			t.Errorf("Less(1) = %v", got)
		}
		if got := d.search(t, Greater(0)); !equalIDs(got, []uint64{2, 3}) {
			t.Errorf("Greater(0) = %v", got)
		}
	})
	t.Run("64bit", func(t *testing.T) {
		big1 := ^uint64(0)
		db := []Record{NewRecord(1, 0), NewRecord(2, big1), NewRecord(3, big1-1)}
		d := deploy(t, 64, db, WitnessCached)
		if got := d.search(t, Equal(big1)); !equalIDs(got, []uint64{2}) {
			t.Errorf("Equal(max) = %v", got)
		}
		if got := d.search(t, Greater(big1-1)); !equalIDs(got, []uint64{2}) {
			t.Errorf("Greater(max-1) = %v", got)
		}
		if got := d.search(t, Less(big1)); !equalIDs(got, []uint64{1, 3}) {
			t.Errorf("Less(max) = %v", got)
		}
	})
}

// TestEmptyBuild: building over an empty database must work (the twin
// delete instance starts empty) and searches must return nothing.
func TestEmptyBuild(t *testing.T) {
	d := deploy(t, 8, nil, WitnessCached)
	if got := d.search(t, Equal(5)); len(got) != 0 {
		t.Errorf("Equal(5) on empty DB = %v", got)
	}
	if got := d.search(t, Less(255)); len(got) != 0 {
		t.Errorf("Less(255) on empty DB = %v", got)
	}
	// Insert into the empty deployment.
	out, err := d.owner.Insert([]Record{NewRecord(1, 7)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	if got := d.search(t, Equal(7)); !equalIDs(got, []uint64{1}) {
		t.Errorf("Equal(7) after first insert = %v", got)
	}
}

// TestOwnerBuildOnce pins Build's once-only contract: Insert before Build
// is refused, a Build rejected for a duplicate ID leaves the owner unbuilt,
// a corrected Build then commits Ac over its primes, and a second Build
// errors.
func TestOwnerBuildOnce(t *testing.T) {
	owner, err := NewOwner(testParams(8))
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	if _, err := owner.Insert([]Record{NewRecord(1, 7)}); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Insert before Build: err = %v, want ErrNotBuilt", err)
	}
	if _, err := owner.Build([]Record{NewRecord(1, 7), NewRecord(1, 9)}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Build with a duplicate ID: err = %v, want ErrDuplicateID", err)
	}
	if _, err := owner.Insert([]Record{NewRecord(1, 7)}); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Insert after a failed Build: err = %v, want ErrNotBuilt", err)
	}
	out, err := owner.Build([]Record{NewRecord(1, 7), NewRecord(2, 9)})
	if err != nil {
		t.Fatalf("corrected Build: %v", err)
	}
	if want := owner.AccumulatorPub().Accumulate(out.Primes); out.Ac.Cmp(want) != 0 {
		t.Fatal("Build's Ac is not the accumulation of its primes")
	}
	if _, err := owner.Build([]Record{NewRecord(3, 1)}); err == nil {
		t.Fatal("second Build succeeded")
	}
}

// TestUnknownAttributeQuery: a query over an attribute that no record has
// simply matches nothing.
func TestUnknownAttributeQuery(t *testing.T) {
	db := []Record{{ID: 1, Attrs: []AttrValue{{Name: "age", Value: 30}}}}
	d := deploy(t, 8, db, WitnessCached)
	if got := d.search(t, Query{Attr: "height", Op: OpEqual, Value: 30}); len(got) != 0 {
		t.Errorf("unknown attribute matched %v", got)
	}
}
