package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestTokenDoesNotAliasStates scribbles over a token the user handed out
// (the in-process cloud echoes the request's slices into its response, so
// any holder of either can) and then needs T intact on both sides: the
// user's next token for the keyword must be the same one, and the owner,
// whose dictionary shares storage with the user's snapshot, must still find
// the keyword's set hash when it advances the trapdoor.
func TestTokenDoesNotAliasStates(t *testing.T) {
	d := deploy(t, 8, []Record{NewRecord(1, 5), NewRecord(2, 9)}, WitnessCached)
	token := func() *SearchRequest {
		t.Helper()
		req, err := d.user.Token(Equal(5))
		if err != nil || len(req.Tokens) != 1 {
			t.Fatalf("Token: %v, %v", req, err)
		}
		return req
	}
	req := token()
	want := append([]byte(nil), req.Tokens[0].Trapdoor...)
	for i := range req.Tokens[0].Trapdoor {
		req.Tokens[0].Trapdoor[i] ^= 0xff
	}
	if got := token().Tokens[0].Trapdoor; !bytes.Equal(got, want) {
		t.Fatal("writing to a returned token changed the user's T")
	}
	if got := d.search(t, Equal(5)); !equalIDs(got, []uint64{1}) {
		t.Fatalf("Equal(5) = %v, want [1]", got)
	}
	out, err := d.owner.Insert([]Record{NewRecord(3, 5)})
	if err != nil {
		t.Fatalf("Insert after a token was written to: %v", err)
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		t.Fatal(err)
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	if got := token().Tokens[0]; got.Epoch != 1 || bytes.Equal(got.Trapdoor, want) {
		t.Fatalf("token after insert: epoch %d, trapdoor unchanged %v", got.Epoch, bytes.Equal(got.Trapdoor, want))
	}
	if got := d.search(t, Equal(5)); !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("Equal(5) after insert = %v, want [1 3]", got)
	}
}

// TestSnapshotsSharedAcrossGoroutines is for -race. Snapshots of T share
// storage with the owner's dictionary, so each round (a) builds several
// users from ClientState at once — reads of a quiescent owner, as they were
// when a snapshot was a deep copy — and (b) lets those users generate tokens
// while the owner inserts into, freezes and re-snapshots the dictionary they
// came from. A user must keep seeing the epoch it was handed.
func TestSnapshotsSharedAcrossGoroutines(t *testing.T) {
	db := make([]Record, 0, 40)
	for i := uint64(0); i < 40; i++ {
		db = append(db, NewRecord(i+1, (i*11)%256))
	}
	d := deploy(t, 8, db, WitnessCached)
	const readers = 4
	nextID := uint64(1000)
	for round := 0; round < 8; round++ {
		users := make([]*User, readers)
		var wg sync.WaitGroup
		errs := make(chan error, 2*readers+1)
		for g := range users {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				u, err := NewUser(d.owner.ClientState())
				if err != nil {
					errs <- err
				}
				users[g] = u
			}(g)
		}
		wg.Wait()
		for _, u := range users {
			wg.Add(1)
			go func(u *User) {
				defer wg.Done()
				for k := 0; k < 50; k++ {
					req, err := u.Token(Equal(0)) // value 0 is in db and in every batch
					if err != nil || len(req.Tokens) != 1 || req.Tokens[0].Epoch != round {
						errs <- fmt.Errorf("round %d: snapshot user got %+v, %v", round, req, err)
						return
					}
					if _, err := u.Token(Less(200)); err != nil {
						errs <- err
						return
					}
				}
			}(u)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := []Record{NewRecord(nextID, 0), NewRecord(nextID+1, (nextID*13)%256)}
			nextID += 2
			out, err := d.owner.Insert(batch)
			if err == nil {
				err = d.cloud.ApplyUpdate(out)
			}
			if err != nil {
				errs <- fmt.Errorf("round %d insert: %w", round, err)
				return
			}
			d.user.UpdateStates(d.owner.StatesSnapshot())
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	if got, want := len(d.search(t, Equal(0))), 1+8; got != want {
		t.Fatalf("Equal(0) finds %d records after 8 inserts, want %d", got, want)
	}
}

// TestStateHandoffCostIsPerBatch pins the cost model of the hand-off of T
// after an insert (Algorithm 2 line 28): it must not grow with the
// dictionary. Mallocs of the hand-off call alone, averaged over 20 cycles of
// a 4-record insert, stay small at 500 preloaded records and at 4000 and
// within 2x of each other; a hand-off that copies T costs about four
// allocations per keyword, 5x more at 4000 records than at 500.
func TestStateHandoffCostIsPerBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4000-record index")
	}
	const cycles, batch = 20, 4
	perHandoff := func(preload int) float64 {
		rng := rand.New(rand.NewSource(int64(preload)))
		nextID := uint64(0)
		records := func(n int) []Record {
			out := make([]Record, n)
			for i := range out {
				nextID++
				out[i] = NewRecord(nextID, uint64(rng.Intn(1<<16)))
			}
			return out
		}
		owner, err := NewOwner(testParams(16))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := owner.Build(records(preload)); err != nil {
			t.Fatal(err)
		}
		user, err := NewUser(owner.ClientState())
		if err != nil {
			t.Fatal(err)
		}
		var mallocs uint64
		var before, after runtime.MemStats
		for c := 0; c < cycles; c++ {
			if _, err := owner.Insert(records(batch)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			user.UpdateStates(owner.StatesSnapshot())
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		t.Logf("%d records, %d keywords: %.1f mallocs per hand-off", preload, owner.StatesLen(), float64(mallocs)/cycles)
		return float64(mallocs) / cycles
	}
	small, large := perHandoff(500), perHandoff(4000)
	if small >= 1000 || large >= 1000 {
		t.Errorf("hand-off allocates %.0f times at 500 records and %.0f at 4000, want under 1000", small, large)
	}
	if large > 2*small+2 {
		t.Errorf("hand-off allocates %.0f times at 4000 records against %.0f at 500: it grows with T", large, small)
	}
}
