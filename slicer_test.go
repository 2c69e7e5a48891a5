package slicer

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"slicer/internal/workload"
)

func testParams(bits int) Params {
	return Params{Bits: bits, TrapdoorBits: 256, AccumulatorBits: 256}
}

func TestSchemeMatchesGroundTruth(t *testing.T) {
	db := workload.Generate(workload.Config{N: 120, Bits: 8, Seed: 21})
	scheme, err := NewScheme(testParams(8), db)
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	queries := workload.Queries(workload.Config{N: 120, Bits: 8, Seed: 21}, workload.Mixed, 25)
	for _, q := range queries {
		got, err := scheme.Search(q)
		if err != nil {
			t.Fatalf("Search(%+v): %v", q, err)
		}
		want := workload.Answer(db, q)
		sortU64(want)
		if !equalU64(got, want) {
			t.Fatalf("Search(%v %d): got %d ids, want %d", q.Op, q.Value, len(got), len(want))
		}
	}
}

func TestSchemeInsertThenSearch(t *testing.T) {
	db := workload.Generate(workload.Config{N: 50, Bits: 8, Seed: 5})
	scheme, err := NewScheme(testParams(8), db)
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	extra := workload.Generate(workload.Config{N: 30, Bits: 8, Seed: 6, FirstID: 51})
	if err := scheme.Insert(extra); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	all := append(append([]Record(nil), db...), extra...)
	for _, q := range []Query{Equal(extra[0].Attrs[0].Value), Less(128), Greater(200)} {
		got, err := scheme.Search(q)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		want := workload.Answer(all, q)
		sortU64(want)
		if !equalU64(got, want) {
			t.Fatalf("post-insert Search(%v %d) mismatch", q.Op, q.Value)
		}
	}

	// A value that is already indexed advances the epochs of its keywords
	// and adds none: StatesLen counts keywords, not writes.
	before := scheme.StatesLen()
	if err := scheme.Insert([]Record{NewRecord(1000, extra[0].Attrs[0].Value)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := scheme.StatesLen(); got != before || got == 0 {
		t.Fatalf("StatesLen = %d after re-inserting an indexed value, was %d", got, before)
	}
}

func TestRangeSearch(t *testing.T) {
	db := workload.Generate(workload.Config{N: 150, Bits: 8, Seed: 9})
	scheme, err := NewScheme(testParams(8), db)
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	ranges := []struct{ lo, hi uint64 }{
		{10, 200}, {0, 50}, {200, 255}, {0, 255}, {7, 7}, {0, 0}, {255, 255},
	}
	for _, r := range ranges {
		got, err := scheme.RangeSearch("", r.lo, r.hi)
		if err != nil {
			t.Fatalf("RangeSearch(%d,%d): %v", r.lo, r.hi, err)
		}
		var want []uint64
		for _, rec := range db {
			v := rec.Attrs[0].Value
			if v >= r.lo && v <= r.hi {
				want = append(want, rec.ID)
			}
		}
		sortU64(want)
		if !equalU64(got, want) {
			t.Fatalf("RangeSearch(%d,%d): got %d ids, want %d", r.lo, r.hi, len(got), len(want))
		}
	}

	if _, err := scheme.RangeSearch("", 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := scheme.RangeSearch("", 0, 256); err == nil {
		t.Error("out-of-domain range accepted")
	}
}

func TestConjunctiveSearch(t *testing.T) {
	db := []Record{
		{ID: 1, Attrs: []AttrValue{{Name: "age", Value: 34}, {Name: "hr", Value: 72}}},
		{ID: 2, Attrs: []AttrValue{{Name: "age", Value: 61}, {Name: "hr", Value: 88}}},
		{ID: 3, Attrs: []AttrValue{{Name: "age", Value: 45}, {Name: "hr", Value: 110}}},
		{ID: 4, Attrs: []AttrValue{{Name: "age", Value: 52}, {Name: "hr", Value: 130}}},
		{ID: 5, Attrs: []AttrValue{{Name: "age", Value: 29}, {Name: "hr", Value: 120}}},
	}
	s, err := NewScheme(testParams(8), db)
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	maxV := s.MaxValue()
	if maxV != 255 {
		t.Fatalf("MaxValue = %d", maxV)
	}

	got, err := s.ConjunctiveSearch([]Condition{
		{Attr: "age", Lo: 30, Hi: 60},
		{Attr: "hr", Lo: 101, Hi: maxV},
	})
	if err != nil {
		t.Fatalf("ConjunctiveSearch: %v", err)
	}
	if !equalU64(got, []uint64{3, 4}) {
		t.Fatalf("age in [30,60] AND hr > 100 = %v, want [3 4]", got)
	}

	// Single condition degenerates to a range search.
	got, err = s.ConjunctiveSearch([]Condition{{Attr: "age", Lo: 0, Hi: 40}})
	if err != nil {
		t.Fatalf("ConjunctiveSearch: %v", err)
	}
	if !equalU64(got, []uint64{1, 5}) {
		t.Fatalf("age <= 40 = %v, want [1 5]", got)
	}

	// Contradictory conditions yield the empty set.
	got, err = s.ConjunctiveSearch([]Condition{
		{Attr: "age", Lo: 0, Hi: 30},
		{Attr: "age", Lo: 60, Hi: maxV},
	})
	if err != nil {
		t.Fatalf("ConjunctiveSearch: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("contradiction = %v, want empty", got)
	}

	if _, err := s.ConjunctiveSearch(nil); err == nil {
		t.Error("empty condition list accepted")
	}

	// Conditions run concurrently; the lowest failing one is reported.
	_, err = s.ConjunctiveSearch([]Condition{
		{Attr: "age", Lo: 0, Hi: 40},
		{Attr: "age", Lo: 50, Hi: 40},
		{Attr: "hr", Lo: 9, Hi: 1},
	})
	if err == nil || !strings.HasPrefix(err.Error(), "condition 1 ") {
		t.Errorf("two invalid conditions: err = %v, want condition 1's", err)
	}
}

func TestSetHelpers(t *testing.T) {
	type pair struct{ a, b []uint64 }
	cases := []struct {
		in            pair
		inter, united []uint64
	}{
		{pair{nil, nil}, []uint64{}, []uint64{}},
		{pair{[]uint64{1, 2, 3}, nil}, []uint64{}, []uint64{1, 2, 3}},
		{pair{[]uint64{1, 3, 5}, []uint64{2, 3, 4, 5}}, []uint64{3, 5}, []uint64{1, 2, 3, 4, 5}},
		{pair{[]uint64{1, 2}, []uint64{1, 2}}, []uint64{1, 2}, []uint64{1, 2}},
	}
	for i, tc := range cases {
		if got := intersectSorted(tc.in.a, tc.in.b); !equalU64(got, tc.inter) {
			t.Errorf("case %d intersect = %v, want %v", i, got, tc.inter)
		}
		if got := unionSorted(tc.in.a, tc.in.b); !equalU64(got, tc.united) {
			t.Errorf("case %d union = %v, want %v", i, got, tc.united)
		}
	}

	// Property: against map-based reference implementations.
	f := func(a, b []uint16) bool {
		sa, sb := dedupSorted(a), dedupSorted(b)
		wantI := map[uint64]bool{}
		present := map[uint64]bool{}
		for _, v := range sa {
			present[v] = true
		}
		for _, v := range sb {
			if present[v] {
				wantI[v] = true
			}
		}
		gotI := intersectSorted(sa, sb)
		if len(gotI) != len(wantI) {
			return false
		}
		for _, v := range gotI {
			if !wantI[v] {
				return false
			}
		}
		gotU := unionSorted(sa, sb)
		wantU := map[uint64]bool{}
		for _, v := range sa {
			wantU[v] = true
		}
		for _, v := range sb {
			wantU[v] = true
		}
		if len(gotU) != len(wantU) {
			return false
		}
		for _, v := range gotU {
			if !wantU[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(in []uint16) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, v := range in {
		if !seen[uint64(v)] {
			seen[uint64(v)] = true
			out = append(out, uint64(v))
		}
	}
	sortU64(out)
	return out
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestDeploymentFairExchange(t *testing.T) {
	db := []Record{NewRecord(1, 10), NewRecord(2, 200), NewRecord(3, 10), NewRecord(4, 90)}
	d, err := NewDeployment(DeploymentConfig{Params: testParams(8)}, db)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	const fee = 777
	userStart := d.Balance(d.UserAddr)
	cloudStart := d.Balance(d.CloudAddr)

	// Honest round settles.
	out, err := d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch: %v", err)
	}
	if !out.Settled {
		t.Fatal("honest search did not settle")
	}
	if !equalU64(out.IDs, []uint64{1, 3}) {
		t.Fatalf("IDs = %v, want [1 3]", out.IDs)
	}
	if d.Balance(d.CloudAddr) != cloudStart+fee {
		t.Errorf("cloud balance %d, want %d", d.Balance(d.CloudAddr), cloudStart+fee)
	}

	// Tampered round refunds.
	d.SetCloudTamper(func(resp *SearchResponse) {
		resp.Results[0].ER[0][0] ^= 1
	})
	out, err = d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch (tampered): %v", err)
	}
	if out.Settled {
		t.Fatal("tampered search settled")
	}
	if out.IDs != nil {
		t.Error("tampered search returned IDs")
	}
	if d.Balance(d.UserAddr) != userStart-fee {
		t.Errorf("user balance %d, want %d (one fee paid, one refunded)",
			d.Balance(d.UserAddr), userStart-fee)
	}

	// Insert + honest round settles against the refreshed digest.
	d.SetCloudTamper(nil)
	if _, err := d.Insert([]Record{NewRecord(5, 10)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	out, err = d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch (post-insert): %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{1, 3, 5}) {
		t.Fatalf("post-insert outcome: settled=%v ids=%v", out.Settled, out.IDs)
	}
	if d.DeployGas() == 0 {
		t.Error("deployment gas not recorded")
	}
}

func TestDeploymentRejectsZeroPayment(t *testing.T) {
	db := []Record{NewRecord(1, 1)}
	d, err := NewDeployment(DeploymentConfig{Params: testParams(8)}, db)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	if _, err := d.VerifiedSearch(Equal(1), 0); err == nil {
		t.Error("zero-payment search accepted")
	}
}

func TestSchemeErrors(t *testing.T) {
	if _, err := NewScheme(Params{Bits: 0}, nil); err == nil {
		t.Error("invalid params accepted")
	}
	db := []Record{NewRecord(1, 300)}
	if _, err := NewScheme(testParams(8), db); err == nil {
		t.Error("out-of-range record accepted")
	}
	scheme, err := NewScheme(testParams(8), []Record{NewRecord(1, 1)})
	if err != nil {
		t.Fatalf("NewScheme: %v", err)
	}
	if err := scheme.Insert([]Record{NewRecord(1, 2)}); err == nil {
		t.Error("duplicate insert accepted")
	}
}
