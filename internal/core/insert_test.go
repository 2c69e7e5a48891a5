package core

import (
	"bytes"
	"math/big"
	"runtime"
	"slices"
	"testing"

	"slicer/internal/store"
)

// lastExistingKeyword returns the keyword of batch that sorts last among
// those already in the owner's T: the one an insert reaches after every
// other keyword it advances.
func lastExistingKeyword(t *testing.T, o *Owner, batch []Record) []byte {
	t.Helper()
	groups, err := o.groupByKeyword(batch)
	if err != nil {
		t.Fatal(err)
	}
	keywords := sortedKeys(groups)
	for i := len(keywords) - 1; i >= 0; i-- {
		if _, ok := o.states.Get([]byte(keywords[i])); ok {
			return []byte(keywords[i])
		}
	}
	t.Fatal("batch touches no existing keyword")
	return nil
}

// TestInsertFailureLeavesOwnerUnchanged corrupts the state of the keyword
// that sorts last among a batch's existing keywords, in two ways an insert
// can trip on: a trapdoor outside the permutation's domain, and a missing
// set hash. Insert must fail and leave Marshal's bytes as they were; with
// the state repaired, the same batch inserts and a search for it verifies.
func TestInsertFailureLeavesOwnerUnchanged(t *testing.T) {
	db := []Record{NewRecord(1, 10), NewRecord(2, 20), NewRecord(3, 200)}
	batch := []Record{NewRecord(4, 10), NewRecord(5, 20), NewRecord(6, 201)}
	corruptions := map[string]func(o *Owner, w []byte) (repair func()){
		"trapdoor outside the domain": func(o *Owner, w []byte) func() {
			st, _ := o.states.Get(w)
			n := o.tsk.N
			o.states.Put(w, store.TrapdoorState{Trapdoor: n.FillBytes(make([]byte, o.tsk.Size())), Epoch: st.Epoch})
			o.states.Freeze()
			return func() { o.states.Put(w, st); o.states.Freeze() }
		},
		"set hash missing": func(o *Owner, w []byte) func() {
			st, _ := o.states.Get(w)
			g1, g2 := o.g1g2(w)
			key := store.SetHashKey(st.Trapdoor, st.Epoch, g1, g2)
			h, ok := o.setHashes.Pop(key)
			if !ok {
				t.Fatal("keyword has no set hash to remove")
			}
			return func() { o.setHashes.Put(key, h) }
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			d := deploy(t, 8, db, WitnessCached)
			repair := corrupt(d.owner, lastExistingKeyword(t, d.owner, batch))
			before, err := d.owner.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.owner.Insert(batch); err == nil {
				t.Fatal("insert over a corrupted keyword succeeded")
			}
			after, err := d.owner.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a failed insert changed the owner's state")
			}

			repair()
			out, err := d.owner.Insert(batch)
			if err != nil {
				t.Fatalf("insert after repair: %v", err)
			}
			if err := d.cloud.ApplyUpdate(out); err != nil {
				t.Fatalf("ApplyUpdate: %v", err)
			}
			d.user.UpdateStates(d.owner.StatesSnapshot())
			if got := d.search(t, Equal(10)); !equalIDs(got, []uint64{1, 4}) {
				t.Fatalf("Equal(10) = %v, want [1 4]", got)
			}
			if got := d.search(t, Greater(199)); !equalIDs(got, []uint64{3, 6}) {
				t.Fatalf("Greater(199) = %v, want [3 6]", got)
			}
		})
	}
}

// TestInsertFanOutMatchesSerial restores two owners from one blob and
// gives both a batch whose keywords all exist already, so no trapdoor is
// sampled: one inserts at GOMAXPROCS 1, the other at 2. The update (index
// entries, primes, Ac, witnesses) and the owners' Marshal bytes must be
// identical.
func TestInsertFanOutMatchesSerial(t *testing.T) {
	var db []Record
	for i := uint64(0); i < 24; i++ {
		db = append(db, NewRecord(i+1, 7*i%256))
	}
	d := deploy(t, 8, db, WitnessCached)
	blob, err := d.owner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var batch []Record
	for i, r := range db[:12] {
		batch = append(batch, NewRecord(uint64(100+i), r.Attrs[0].Value))
	}

	type result struct {
		out   *UpdateOutput
		owner []byte
	}
	run := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o, err := UnmarshalOwner(blob)
		if err != nil {
			t.Fatal(err)
		}
		before := o.StatesLen()
		out, err := o.Insert(batch)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: Insert: %v", procs, err)
		}
		if o.StatesLen() != before {
			t.Fatalf("GOMAXPROCS %d: the batch added keywords; it must only advance existing ones", procs)
		}
		ob, err := o.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return result{out, ob}
	}
	serial, fanned := run(1), run(2)

	if !slices.Equal(indexEntryList(serial.out.Index), indexEntryList(fanned.out.Index)) {
		t.Error("index entries differ")
	}
	if !equalPrimes(serial.out.Primes, fanned.out.Primes) {
		t.Error("primes differ")
	}
	if serial.out.Ac.Cmp(fanned.out.Ac) != 0 {
		t.Error("Ac differs")
	}
	if !bytes.Equal(serial.out.Witnesses, fanned.out.Witnesses) {
		t.Error("witnesses differ")
	}
	if !bytes.Equal(serial.owner, fanned.owner) {
		t.Error("owner states differ")
	}
}

// indexEntryList returns an index's entries, label then payload, in sorted
// order: Marshal emits them in map order.
func indexEntryList(ix *store.Index) []string {
	raw := ix.Marshal()[8:]
	var entries []string
	for ; len(raw) > 0; raw = raw[2*store.EntrySize:] {
		entries = append(entries, string(raw[:2*store.EntrySize]))
	}
	slices.Sort(entries)
	return entries
}

func equalPrimes(a, b []*big.Int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			return false
		}
	}
	return true
}
