package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs sets GOMAXPROCS to n for the rest of the test, which sets the
// width of every fan-out sized by the machine.
func withProcs(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// orderQuery returns a multi-token order query over the test deployment's
// domain: roughly half the bits set, so the SORE decomposition yields
// several slices.
func orderQuery(bits int) Query {
	v := (uint64(1)<<uint(bits) - 1) / 3 * 2
	return Less(v)
}

// TestParallelSearchDeterminism asserts the parallel pipeline is
// byte-identical to the serial one: the same request searched at
// GOMAXPROCS 1 and 8 (and verified at both) produces the same marshaled
// response.
func TestParallelSearchDeterminism(t *testing.T) {
	db := make([]Record, 0, 64)
	for i := uint64(0); i < 64; i++ {
		db = append(db, NewRecord(i+1, (i*7)%256))
	}
	d := deploy(t, 8, db, WitnessCached)
	for _, q := range []Query{orderQuery(8), Equal(db[3].Attrs[0].Value)} {
		req, err := d.user.Token(q)
		if err != nil {
			t.Fatalf("Token(%+v): %v", q, err)
		}
		withProcs(t, 1)
		serial, err := d.cloud.Search(req)
		if err != nil {
			t.Fatalf("serial Search: %v", err)
		}
		pp, ac := d.owner.AccumulatorPub(), d.owner.Ac()
		if err := VerifyResponse(pp, ac, req, serial); err != nil {
			t.Fatalf("serial verify: %v", err)
		}
		withProcs(t, 8)
		parallel, err := d.cloud.Search(req)
		if err != nil {
			t.Fatalf("parallel Search: %v", err)
		}
		sb, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := json.Marshal(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if string(sb) != string(pb) {
			t.Fatalf("parallel response differs from serial for %+v", q)
		}
		// The split SearchResults + AttachWitnesses pipeline agrees too.
		split, err := d.cloud.SearchResults(req)
		if err != nil {
			t.Fatalf("SearchResults: %v", err)
		}
		if err := d.cloud.AttachWitnesses(split); err != nil {
			t.Fatalf("AttachWitnesses: %v", err)
		}
		qb, err := json.Marshal(split)
		if err != nil {
			t.Fatal(err)
		}
		if string(qb) != string(sb) {
			t.Fatalf("split pipeline response differs from serial for %+v", q)
		}
		if err := VerifyResponse(pp, ac, req, parallel); err != nil {
			t.Fatalf("parallel verify: %v", err)
		}
	}
}

// TestParallelSearchFirstError asserts the parallel pipeline reports the
// same (lowest-index) token error a serial sweep would, at any GOMAXPROCS.
func TestParallelSearchFirstError(t *testing.T) {
	db := make([]Record, 0, 64)
	for i := uint64(0); i < 64; i++ {
		db = append(db, NewRecord(i+1, (i*7)%256))
	}
	d := deploy(t, 8, db, WitnessCached)
	req, err := d.user.Token(orderQuery(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Tokens) < 2 {
		t.Skipf("need >= 2 tokens, got %d", len(req.Tokens))
	}
	// Corrupt two tokens: the reported error must be the lower index's.
	bad := *req
	bad.Tokens = append([]SearchToken(nil), req.Tokens...)
	for _, i := range []int{1, len(bad.Tokens) - 1} {
		tok := bad.Tokens[i]
		tok.G1 = []byte("short") // malformed PRF key -> "token G1" error
		bad.Tokens[i] = tok
	}
	var serialErr error
	withProcs(t, 1)
	if _, serialErr = d.cloud.Search(&bad); serialErr == nil {
		t.Fatal("serial search of corrupted request succeeded")
	}
	for _, procs := range []int{2, 8} {
		withProcs(t, procs)
		_, err := d.cloud.Search(&bad)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: corrupted request succeeded", procs)
		}
		if err.Error() != serialErr.Error() {
			t.Fatalf("GOMAXPROCS=%d error %q, serial error %q", procs, err, serialErr)
		}
	}
}

// TestConcurrentSearchDuringUpdates races many searching goroutines against
// a stream of ApplyUpdate deltas — the multi-user serving scenario the
// RWMutex enables. Run under -race. Every response produced against the
// pre-insert token snapshot must stay internally consistent (same token
// order, no errors), and once updates quiesce all epochs verify against the
// final accumulation value.
func TestConcurrentSearchDuringUpdates(t *testing.T) {
	db := make([]Record, 0, 40)
	for i := uint64(0); i < 40; i++ {
		db = append(db, NewRecord(i+1, (i*11)%256))
	}
	d := deploy(t, 8, db, WitnessCached)

	// Token snapshot from before the inserts: stays answerable (and
	// verifiable at its own epoch) throughout.
	reqs := make([]*SearchRequest, 0, 4)
	for _, q := range []Query{orderQuery(8), Greater(100), Equal(db[0].Attrs[0].Value), Less(50)} {
		req, err := d.user.Token(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Tokens) > 0 {
			reqs = append(reqs, req)
		}
	}

	const searchers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, searchers+1)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				req := reqs[(g+k)%len(reqs)]
				resp, err := d.cloud.Search(req)
				if err != nil {
					errs <- fmt.Errorf("searcher %d round %d: %w", g, k, err)
					return
				}
				if len(resp.Results) != len(req.Tokens) {
					errs <- fmt.Errorf("searcher %d: %d results for %d tokens", g, len(resp.Results), len(req.Tokens))
					return
				}
				for i := range resp.Results {
					if resp.Results[i].Token.Epoch != req.Tokens[i].Epoch {
						errs <- fmt.Errorf("searcher %d: result %d out of order", g, i)
						return
					}
				}
				// Exercise the read-locked accessors under contention too.
				_ = d.cloud.PrimeCount()
				_ = d.cloud.Ac()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		nextID := uint64(1000)
		for k := 0; k < 6; k++ {
			batch := make([]Record, 0, 3)
			for j := uint64(0); j < 3; j++ {
				batch = append(batch, NewRecord(nextID, (nextID*13)%256))
				nextID++
			}
			out, err := d.owner.Insert(batch)
			if err != nil {
				errs <- fmt.Errorf("insert %d: %w", k, err)
				return
			}
			if err := d.cloud.ApplyUpdate(out); err != nil {
				errs <- fmt.Errorf("apply update %d: %w", k, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced: a fresh user sees every epoch and the response verifies
	// against the final Ac (which the cloud and owner agree on).
	if d.cloud.Ac().Cmp(d.owner.Ac()) != 0 {
		t.Fatal("cloud and owner accumulation values diverged")
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	d.search(t, orderQuery(8))
}

// TestApplyUpdateWitnessMaintenance pins both ways a cached cloud keeps its
// witnesses current: a trickle insert (pending primes within the rebuild
// threshold) is journaled, a bulk insert past it rebuilds with RootFactor —
// and both keep every epoch's proofs verifying.
func TestApplyUpdateWitnessMaintenance(t *testing.T) {
	db := make([]Record, 0, 20)
	for i := uint64(0); i < 20; i++ {
		db = append(db, NewRecord(i+1, (i*5)%256))
	}
	d := deploy(t, 8, db, WitnessCached)
	insert := func(n int, firstID uint64) {
		t.Helper()
		batch := make([]Record, 0, n)
		for j := 0; j < n; j++ {
			batch = append(batch, NewRecord(firstID+uint64(j), (firstID+uint64(j))%256))
		}
		out, err := d.owner.Insert(batch)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if err := d.cloud.ApplyUpdate(out); err != nil {
			t.Fatalf("ApplyUpdate: %v", err)
		}
		d.user.UpdateStates(d.owner.StatesSnapshot())
	}
	pending := func() int {
		d.cloud.mu.RLock()
		defer d.cloud.mu.RUnlock()
		return d.cloud.pendingPrimes
	}
	insert(1, 500) // lazy journal path
	if pending() == 0 {
		t.Fatal("trickle insert was not journaled")
	}
	d.search(t, orderQuery(8))
	insert(40, 600) // more than 64 new primes: RootFactor rebuild path
	if n := pending(); n != 0 {
		t.Fatalf("bulk insert left %d pending primes, want a rebuild", n)
	}
	d.search(t, orderQuery(8))
	d.search(t, Equal(db[0].Attrs[0].Value))
}

// TestForEachIndexedFirstError pins the helper's deterministic error
// selection directly: with several failing indices, the lowest wins at any
// worker count, and with more than one worker every index still runs.
func TestForEachIndexedFirstError(t *testing.T) {
	fail := map[int]bool{3: true, 7: true, 11: true}
	for _, workers := range []int{1, 2, 4, 16} {
		var ran atomic.Int64
		err := ForEachIndexed(16, workers, func(i int) error {
			ran.Add(1)
			if fail[i] {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("workers=%d: err = %v, want fail-3", workers, err)
		}
		if workers > 1 && ran.Load() != 16 {
			t.Fatalf("workers=%d: %d of 16 indices ran", workers, ran.Load())
		}
	}
	if err := ForEachIndexed(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("empty range: %v", err)
	}
}

// countingHook counts the phases a search starts and the ends it calls.
type countingHook struct {
	mu             sync.Mutex
	started, ended map[string]int
}

func (h *countingHook) Span(phase string) func() {
	h.mu.Lock()
	h.started[phase]++
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		h.ended[phase]++
		h.mu.Unlock()
	}
}

// TestSearchHookSeesEveryPhase holds SearchTraced to the hook's contract:
// for a b-token order request the hook sees b collect and b witness phases,
// each ended once, and the response is Search's, at GOMAXPROCS 1 and 4.
func TestSearchHookSeesEveryPhase(t *testing.T) {
	db := make([]Record, 0, 64)
	for i := uint64(0); i < 64; i++ {
		db = append(db, NewRecord(i+1, (i*7)%256))
	}
	d := deploy(t, 8, db, WitnessCached)
	req, err := d.user.Token(orderQuery(8))
	if err != nil {
		t.Fatal(err)
	}
	b := len(req.Tokens)
	if b < 2 {
		t.Fatalf("want a multi-token request, got %d tokens", b)
	}
	want, err := d.cloud.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		h := &countingHook{started: map[string]int{}, ended: map[string]int{}}
		got, err := d.cloud.SearchTraced(req, h)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: hooked response differs from Search's", procs)
		}
		phases := map[string]int{SpanCollect: b, SpanWitness: b}
		if !maps.Equal(h.started, phases) || !maps.Equal(h.ended, phases) {
			t.Errorf("GOMAXPROCS %d: %d tokens: started %v, ended %v", procs, b, h.started, h.ended)
		}
	}
}
