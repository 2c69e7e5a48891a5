package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// lazyDB generates n deterministic records with values in [0, 2^bits).
func lazyDB(n, bits int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	db := make([]Record, n)
	for i := range db {
		db[i] = NewRecord(uint64(i+1), rng.Uint64()%(1<<bits))
	}
	return db
}

// lazyOnDemandPair builds two clouds over the same owner state: a cached one
// (lazy journal plus rebuild) and an on-demand one, whose witnesses come
// from a RootFactor tree over the current primes and never touch the
// journal — an independent reference.
func lazyOnDemandPair(t testing.TB, owner *Owner, out *UpdateOutput) (lazy, ref *Cloud) {
	t.Helper()
	lazy, err := NewCloud(owner.CloudInit(out.Index), WitnessCached)
	if err != nil {
		t.Fatalf("NewCloud(cached): %v", err)
	}
	ref, err = NewCloud(owner.CloudInit(out.Index), WitnessOnDemand)
	if err != nil {
		t.Fatalf("NewCloud(on-demand): %v", err)
	}
	return lazy, ref
}

// checkPersistedAgainstReference requires the cached cloud's snapshot to
// hold the reference's primes and Ac, and exactly RootFactor's witness for
// every prime: the journal is folded before anything is written.
func checkPersistedAgainstReference(t testing.TB, owner *Owner, lazy, ref *Cloud) {
	t.Helper()
	var sL, sR map[string]json.RawMessage
	for _, x := range []struct {
		c  *Cloud
		st *map[string]json.RawMessage
	}{{lazy, &sL}, {ref, &sR}} {
		raw, err := x.c.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if err := json.Unmarshal(raw, x.st); err != nil {
			t.Fatal(err)
		}
	}
	// Index bytes are excluded: store.Index marshals in map order, which
	// differs between instances even for identical contents.
	for _, k := range []string{"primes", "ac"} {
		if !bytes.Equal(sL[k], sR[k]) {
			t.Fatalf("marshaled %q differs between cached and on-demand", k)
		}
	}
	lazy.mu.RLock()
	primes := lazy.primes
	lazy.mu.RUnlock()
	var want [][]byte
	for _, w := range owner.AccumulatorPub().RootFactor(primes) {
		want = append(want, w.Bytes())
	}
	rawWant, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sL["witnesses"], rawWant) {
		t.Fatal("persisted witnesses differ from RootFactor over the persisted primes")
	}
}

// TestLazyRefreshMatchesOnDemand interleaves inserts and searches, crossing
// both journaled and rebuilding updates, and requires the cached cloud's
// responses to be byte-identical to the on-demand reference's at every step
// and its persisted witnesses to be RootFactor's.
func TestLazyRefreshMatchesOnDemand(t *testing.T) {
	const bits = 8
	db := lazyDB(40, bits, 71)
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	lazy, ref := lazyOnDemandPair(t, owner, out)
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}

	nextID := uint64(1000)
	for step := 0; step < 6; step++ {
		batch := make([]Record, 3+step*2)
		for i := range batch {
			batch[i] = NewRecord(nextID, uint64(step*13+i)%(1<<bits))
			nextID++
		}
		upd, err := owner.Insert(batch)
		if err != nil {
			t.Fatalf("step %d: Insert: %v", step, err)
		}
		if err := lazy.ApplyUpdate(upd); err != nil {
			t.Fatalf("step %d: lazy ApplyUpdate: %v", step, err)
		}
		if err := ref.ApplyUpdate(upd); err != nil {
			t.Fatalf("step %d: on-demand ApplyUpdate: %v", step, err)
		}
		// Before any search: Marshal itself must fold the journal.
		checkPersistedAgainstReference(t, owner, lazy, ref)

		for _, q := range []Query{Equal(uint64(step * 13 % (1 << bits))), Greater(1 << (bits - 1)), Less(20)} {
			req, err := user.Token(q)
			if err != nil {
				t.Fatalf("step %d: Token: %v", step, err)
			}
			respL, err := lazy.Search(req)
			if err != nil {
				t.Fatalf("step %d: lazy Search: %v", step, err)
			}
			respR, err := ref.Search(req)
			if err != nil {
				t.Fatalf("step %d: on-demand Search: %v", step, err)
			}
			rawL, _ := json.Marshal(respL)
			rawR, _ := json.Marshal(respR)
			if !bytes.Equal(rawL, rawR) {
				t.Fatalf("step %d query %v: cached response differs from on-demand", step, q)
			}
			if err := VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, respL); err != nil {
				t.Fatalf("step %d: lazy response fails verification: %v", step, err)
			}
		}
	}
}

// TestLazyRebuildThreshold journals small inserts until the pending primes
// would pass max(64, |X|/4), and requires that exact update to rebuild: the
// journal is drained and searches still verify.
func TestLazyRebuildThreshold(t *testing.T) {
	const bits = 8
	db := lazyDB(30, bits, 5)
	d := deploy(t, bits, db, WitnessCached)
	journal := func() (pending, epochs, primes int) {
		d.cloud.mu.RLock()
		defer d.cloud.mu.RUnlock()
		return d.cloud.pendingPrimes, len(d.cloud.journal), len(d.cloud.primes)
	}
	rebuilt := false
	for step := 0; step < 40 && !rebuilt; step++ {
		batch := make([]Record, 3)
		for i := range batch {
			batch[i] = NewRecord(uint64(2000+step*10+i), uint64(step*31+i*7)%(1<<bits))
		}
		upd, err := d.owner.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		before, epochs, total := journal()
		total += len(upd.Primes)
		if err := d.cloud.ApplyUpdate(upd); err != nil {
			t.Fatal(err)
		}
		pending, gotEpochs, _ := journal()
		if before+len(upd.Primes) > rebuildThreshold(total) {
			if pending != 0 || gotEpochs != 0 {
				t.Fatalf("step %d: %d+%d primes past the threshold left %d pending in %d epochs, want a rebuild",
					step, before, len(upd.Primes), pending, gotEpochs)
			}
			rebuilt = true
		} else if pending != before+len(upd.Primes) || gotEpochs != epochs+1 {
			t.Fatalf("step %d: journal holds %d primes in %d epochs, want %d in %d",
				step, pending, gotEpochs, before+len(upd.Primes), epochs+1)
		}
	}
	if !rebuilt {
		t.Fatal("40 inserts never crossed the rebuild threshold")
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	d.search(t, Greater(0))
	d.search(t, Less(200))
}

// TestLazyConcurrentServes folds pending witnesses from many goroutines at
// once (the entry-level locking under the cloud read lock); run with -race.
func TestLazyConcurrentServes(t *testing.T) {
	const bits = 8
	db := lazyDB(50, bits, 23)
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloud(owner.CloudInit(out.Index), WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Record, 12)
	for i := range batch {
		batch[i] = NewRecord(uint64(3000+i), uint64(i*11)%(1<<bits))
	}
	upd, err := owner.Insert(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.ApplyUpdate(upd); err != nil {
		t.Fatal(err)
	}

	queries := []Query{Greater(10), Less(200), Equal(11), Equal(22), Greater(128)}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for g := 0; g < 4; g++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q Query) {
				defer wg.Done()
				req, err := user.Token(q)
				if err != nil {
					errs <- err
					return
				}
				resp, err := cloud.Search(req)
				if err != nil {
					errs <- fmt.Errorf("query %v: %w", q, err)
					return
				}
				if err := VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, resp); err != nil {
					errs <- fmt.Errorf("query %v: %w", q, err)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzWitnessRefreshLazyVsOnDemand drives a randomized insert/search
// schedule through a cached and an on-demand cloud and requires
// byte-identical responses, and persisted witnesses equal to RootFactor's.
func FuzzWitnessRefreshLazyVsOnDemand(f *testing.F) {
	f.Add([]byte{3, 1, 9, 250, 0}, uint8(2))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(9))
	f.Fuzz(func(t *testing.T, schedule []byte, seed uint8) {
		const bits = 6
		if len(schedule) > 16 {
			schedule = schedule[:16]
		}
		db := lazyDB(12, bits, int64(seed))
		owner, err := NewOwner(testParams(bits))
		if err != nil {
			t.Fatal(err)
		}
		out, err := owner.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		lazy, ref := lazyOnDemandPair(t, owner, out)
		user, err := NewUser(owner.ClientState())
		if err != nil {
			t.Fatal(err)
		}
		nextID := uint64(500)
		for step, b := range schedule {
			if b%2 == 0 {
				n := int(b/2)%5 + 1
				batch := make([]Record, n)
				for i := range batch {
					batch[i] = NewRecord(nextID, (uint64(b)+uint64(i*3))%(1<<bits))
					nextID++
				}
				upd, err := owner.Insert(batch)
				if err != nil {
					t.Fatal(err)
				}
				if err := lazy.ApplyUpdate(upd); err != nil {
					t.Fatal(err)
				}
				if err := ref.ApplyUpdate(upd); err != nil {
					t.Fatal(err)
				}
				continue
			}
			req, err := user.Token(Greater(uint64(b) % (1 << bits)))
			if err != nil {
				t.Fatal(err)
			}
			respL, err := lazy.Search(req)
			if err != nil {
				t.Fatalf("step %d: lazy: %v", step, err)
			}
			respR, err := ref.Search(req)
			if err != nil {
				t.Fatalf("step %d: on-demand: %v", step, err)
			}
			rawL, _ := json.Marshal(respL)
			rawR, _ := json.Marshal(respR)
			if !bytes.Equal(rawL, rawR) {
				t.Fatalf("step %d: cached and on-demand responses differ", step)
			}
		}
		checkPersistedAgainstReference(t, owner, lazy, ref)
	})
}

// TestNewCloudRejectsBadShippedWitness flips one of the owner's shipped
// witnesses: a cached cloud checks every witness before adopting any, so
// init fails and names the index, where a cloud that rebuilt its own would
// never have read it. An on-demand cloud does not read them at all.
func TestNewCloudRejectsBadShippedWitness(t *testing.T) {
	owner, err := NewOwner(testParams(8))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(lazyDB(12, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	const bad = 3
	st := owner.CloudInit(out.Index)
	size := st.AccumulatorPub.Size()
	if len(st.Witnesses) != len(st.Primes)*size || len(st.Primes) <= bad {
		t.Fatalf("CloudInit shipped %d bytes of witnesses for %d primes", len(st.Witnesses), len(st.Primes))
	}
	if _, err := NewCloud(st, WitnessCached); err != nil {
		t.Fatalf("NewCloud with the owner's witnesses: %v", err)
	}
	st.Witnesses[(bad+1)*size-1] ^= 1
	_, err = NewCloud(st, WitnessCached)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("witness %d ", bad)) {
		t.Fatalf("flipped witness %d: NewCloud error = %v", bad, err)
	}
	if _, err := NewCloud(st, WitnessOnDemand); err != nil {
		t.Fatalf("on-demand cloud read the shipped witnesses: %v", err)
	}
	st.Witnesses = st.Witnesses[:bad*size]
	if _, err := NewCloud(st, WitnessCached); err == nil {
		t.Fatal("NewCloud accepted fewer witnesses than primes")
	}
}

// servedWitnesses returns the witness c serves for every prime of its set,
// in prime-list order.
func servedWitnesses(t *testing.T, c *Cloud) [][]byte {
	t.Helper()
	c.mu.RLock()
	primes := append([]*big.Int(nil), c.primes...)
	c.mu.RUnlock()
	out := make([][]byte, len(primes))
	for i, x := range primes {
		w, err := c.WitnessForPrime(x)
		if err != nil {
			t.Fatalf("witness %d: %v", i, err)
		}
		out[i] = w
	}
	return out
}

// TestOwnerShipsWitnessesAtThreshold drives an owner and a cached cloud
// across several rebuild thresholds. The owner's insert that crosses one
// carries every witness, so the cloud never runs RootFactor, set-up
// included; right after a ship its journal is empty, and at every step it
// serves exactly the witnesses of an on-demand cloud.
func TestOwnerShipsWitnessesAtThreshold(t *testing.T) {
	const bits = 8
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(lazyDB(30, bits, 44))
	if err != nil {
		t.Fatal(err)
	}
	if out.Witnesses != nil {
		t.Fatal("Build carried witnesses")
	}
	lazy, ref := lazyOnDemandPair(t, owner, out)
	ships := 0
	for step := 0; ships < 3; step++ {
		if step == 40 {
			t.Fatalf("40 inserts shipped witnesses %d times, want 3", ships)
		}
		batch := make([]Record, 3)
		for i := range batch {
			batch[i] = NewRecord(uint64(5000+step*10+i), uint64(step*37+i*11)%(1<<bits))
		}
		upd, err := owner.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Cloud{lazy, ref} {
			if err := c.ApplyUpdate(upd); err != nil {
				t.Fatalf("step %d: ApplyUpdate: %v", step, err)
			}
		}
		lazy.mu.RLock()
		rebuilds, pending, epochs := lazy.rebuilds, lazy.pendingPrimes, len(lazy.journal)
		lazy.mu.RUnlock()
		if rebuilds != 0 {
			t.Fatalf("step %d: the cached cloud ran %d RootFactor rebuilds", step, rebuilds)
		}
		if upd.Witnesses != nil {
			ships++
			if pending != 0 || epochs != 0 {
				t.Fatalf("step %d: a ship left %d primes pending in %d epochs", step, pending, epochs)
			}
		}
		got, want := servedWitnesses(t, lazy), servedWitnesses(t, ref)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("step %d: witness %d differs from the on-demand cloud's", step, i)
			}
		}
	}
}

// TestApplyUpdateRejectsBadShippedWitness flips one byte of a shipped
// witness: the update fails naming the index and leaves the cloud exactly
// as it was, and the intact update then applies, so no half-merged index
// was left behind.
func TestApplyUpdateRejectsBadShippedWitness(t *testing.T) {
	const bits = 8
	d := deploy(t, bits, lazyDB(30, bits, 45), WitnessCached)
	var upd *UpdateOutput
	for step := 0; upd == nil; step++ {
		if step == 40 {
			t.Fatal("40 inserts never shipped witnesses")
		}
		batch := make([]Record, 3)
		for i := range batch {
			batch[i] = NewRecord(uint64(6000+step*10+i), uint64(step*29+i*13)%(1<<bits))
		}
		next, err := d.owner.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		if next.Witnesses != nil {
			upd = next
			break
		}
		if err := d.cloud.ApplyUpdate(next); err != nil {
			t.Fatal(err)
		}
	}
	const bad = 5
	size := d.owner.AccumulatorPub().Size()
	indexLen, primes, ac := d.cloud.IndexLen(), d.cloud.PrimeCount(), d.cloud.Ac()
	served := servedWitnesses(t, d.cloud)

	upd.Witnesses[(bad+1)*size-1] ^= 1
	err := d.cloud.ApplyUpdate(upd)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("witness %d ", bad)) {
		t.Fatalf("flipped witness %d: ApplyUpdate error = %v", bad, err)
	}
	if d.cloud.IndexLen() != indexLen || d.cloud.PrimeCount() != primes || d.cloud.Ac().Cmp(ac) != 0 {
		t.Fatal("a rejected update changed the index, the primes or Ac")
	}
	for i, w := range servedWitnesses(t, d.cloud) {
		if !bytes.Equal(w, served[i]) {
			t.Fatalf("a rejected update changed served witness %d", i)
		}
	}

	upd.Witnesses[(bad+1)*size-1] ^= 1
	if err := d.cloud.ApplyUpdate(upd); err != nil {
		t.Fatalf("the intact update after a rejected one: %v", err)
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	d.search(t, Greater(0))
	d.search(t, Less(200))
}

// TestFoldThroughCombMatchesOnDemand drives a cached cloud through a
// journal that mixes batches below and above batchCombMin, so witnesses
// fold through batch combs (accumulator.Fold) and through runs of
// comb-less batches, and across an owner's ship. Each step serves a
// rotating quarter of the primes, concurrently, so entries are served
// while current, one batch behind, several behind and still deferred in
// their own batch, and different entries fold through one comb at the
// same time (run with -race). Every served witness must equal the
// on-demand cloud's byte for byte, also from a cloud restored by
// UnmarshalCloud out of a half-folded one.
func TestFoldThroughCombMatchesOnDemand(t *testing.T) {
	const bits = 6
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatal(err)
	}
	out, err := owner.Build(lazyDB(30, bits, 46))
	if err != nil {
		t.Fatal(err)
	}
	lazy, ref := lazyOnDemandPair(t, owner, out)
	records := []int{1, 6, 2, 1, 6, 1, 2, 6, 1, 1, 6, 2}
	seen := map[string]int{} // how a served entry stood before the serve
	var combBatches, plainBatches, ships int
	nextID := uint64(7000)
	for step, n := range records {
		batch := make([]Record, n)
		for i := range batch {
			batch[i] = NewRecord(nextID, (nextID*37+uint64(step))%(1<<bits))
			nextID++
		}
		upd, err := owner.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Cloud{lazy, ref} {
			if err := c.ApplyUpdate(upd); err != nil {
				t.Fatalf("step %d: ApplyUpdate: %v", step, err)
			}
		}
		switch {
		case upd.Witnesses != nil:
			ships++
		case len(upd.Primes) >= batchCombMin:
			combBatches++
		default:
			plainBatches++
		}

		lazy.mu.RLock()
		var serve []*big.Int
		for i, x := range lazy.primes {
			if i%4 != step%4 {
				continue
			}
			serve = append(serve, x)
			e := lazy.witnesses[string(x.Bytes())]
			switch lag := len(lazy.journal) - e.epoch; {
			case e.batch != nil:
				seen["deferred"]++
			case lag == 0:
				seen["current"]++
			case lag == 1:
				seen["one behind"]++
			case lag >= 3:
				seen["three or more behind"]++
			}
		}
		lazy.mu.RUnlock()
		got, want := make([][]byte, len(serve)), make([][]byte, len(serve))
		err = ForEachIndexed(len(serve), 8, func(i int) error {
			var err error
			if got[i], err = lazy.WitnessForPrime(serve[i]); err != nil {
				return err
			}
			want[i], err = ref.WitnessForPrime(serve[i])
			return err
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("step %d: served witness differs from the on-demand cloud's", step)
			}
		}

		if step == len(records)/2 {
			raw, err := lazy.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if lazy, err = UnmarshalCloud(raw); err != nil {
				t.Fatalf("UnmarshalCloud of a half-folded cloud: %v", err)
			}
			got, want := servedWitnesses(t, lazy), servedWitnesses(t, ref)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("restored cloud: witness %d differs from the on-demand cloud's", i)
				}
			}
		}
	}
	got, want := servedWitnesses(t, lazy), servedWitnesses(t, ref)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("witness %d differs from the on-demand cloud's", i)
		}
	}
	t.Logf("comb batches %d, comb-less %d, ships %d, serves %v", combBatches, plainBatches, ships, seen)
	if combBatches == 0 || plainBatches == 0 || ships == 0 {
		t.Fatalf("%d comb batches, %d comb-less, %d ships: want each at least once", combBatches, plainBatches, ships)
	}
	for _, k := range []string{"deferred", "current", "one behind", "three or more behind"} {
		if seen[k] == 0 {
			t.Fatalf("no entry was served %s: %v", k, seen)
		}
	}
}
