package core

import (
	"testing"
)

// testParams keeps moduli small so the full protocol round-trips fast in
// unit tests. Security-parameter-sensitive behaviour is covered by the
// crypto packages' own tests.
func testParams(bits int) Params {
	return Params{Bits: bits, TrapdoorBits: 256, AccumulatorBits: 256}
}

type deployment struct {
	owner *Owner
	user  *User
	cloud *Cloud
}

func deploy(t *testing.T, bits int, db []Record, mode WitnessMode) *deployment {
	t.Helper()
	owner, err := NewOwner(testParams(bits))
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	out, err := owner.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cloud, err := NewCloud(owner.CloudInit(out.Index), mode)
	if err != nil {
		t.Fatalf("NewCloud: %v", err)
	}
	user, err := NewUser(owner.ClientState())
	if err != nil {
		t.Fatalf("NewUser: %v", err)
	}
	return &deployment{owner: owner, user: user, cloud: cloud}
}

// search runs token generation, cloud search, public verification and
// decryption in sequence, failing the test on any error.
func (d *deployment) search(t *testing.T, q Query) []uint64 {
	t.Helper()
	req, err := d.user.Token(q)
	if err != nil {
		t.Fatalf("Token(%+v): %v", q, err)
	}
	resp, err := d.cloud.Search(req)
	if err != nil {
		t.Fatalf("Search(%+v): %v", q, err)
	}
	if err := VerifyResponse(d.owner.AccumulatorPub(), d.owner.Ac(), req, resp); err != nil {
		t.Fatalf("VerifyResponse(%+v): %v", q, err)
	}
	ids, err := d.user.Decrypt(resp)
	if err != nil {
		t.Fatalf("Decrypt(%+v): %v", q, err)
	}
	return ids
}

func wantIDs(db []Record, pred func(Record) bool) []uint64 {
	var out []uint64
	for _, r := range db {
		if pred(r) {
			out = append(out, r.ID)
		}
	}
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEndToEndSearch(t *testing.T) {
	db := []Record{
		NewRecord(1, 5), NewRecord(2, 8), NewRecord(3, 5),
		NewRecord(4, 0), NewRecord(5, 255), NewRecord(6, 100),
	}
	for _, mode := range []WitnessMode{WitnessCached, WitnessOnDemand} {
		d := deploy(t, 8, db, mode)
		tests := []struct {
			name string
			q    Query
			pred func(Record) bool
		}{
			{"equal-5", Equal(5), func(r Record) bool { return r.Attrs[0].Value == 5 }},
			{"equal-missing", Equal(7), func(r Record) bool { return false }},
			{"less-8", Less(8), func(r Record) bool { return r.Attrs[0].Value < 8 }},
			{"less-1", Less(1), func(r Record) bool { return r.Attrs[0].Value < 1 }},
			{"greater-5", Greater(5), func(r Record) bool { return r.Attrs[0].Value > 5 }},
			{"greater-254", Greater(254), func(r Record) bool { return r.Attrs[0].Value > 254 }},
			{"greater-255", Greater(255), func(r Record) bool { return false }},
		}
		for _, tc := range tests {
			got := d.search(t, tc.q)
			want := wantIDs(db, tc.pred)
			if !equalIDs(got, want) {
				t.Errorf("mode %v query %s: got %v, want %v", mode, tc.name, got, want)
			}
		}
	}
}

func TestInsertThenSearch(t *testing.T) {
	db := []Record{NewRecord(1, 10), NewRecord(2, 20)}
	d := deploy(t, 8, db, WitnessCached)

	// Search once so the inserted keyword epochs genuinely advance past a
	// searched state.
	if got := d.search(t, Less(15)); !equalIDs(got, []uint64{1}) {
		t.Fatalf("pre-insert Less(15): got %v, want [1]", got)
	}

	more := []Record{NewRecord(3, 10), NewRecord(4, 12), NewRecord(5, 200)}
	out, err := d.owner.Insert(more)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())

	all := append(append([]Record(nil), db...), more...)
	checks := []struct {
		q    Query
		pred func(Record) bool
	}{
		{Equal(10), func(r Record) bool { return r.Attrs[0].Value == 10 }},
		{Less(15), func(r Record) bool { return r.Attrs[0].Value < 15 }},
		{Greater(19), func(r Record) bool { return r.Attrs[0].Value > 19 }},
	}
	for _, tc := range checks {
		got := d.search(t, tc.q)
		want := wantIDs(all, tc.pred)
		if !equalIDs(got, want) {
			t.Errorf("post-insert %v %d: got %v, want %v", tc.q.Op, tc.q.Value, got, want)
		}
	}
}

func TestMultiAttribute(t *testing.T) {
	db := []Record{
		{ID: 1, Attrs: []AttrValue{{Name: "age", Value: 30}, {Name: "weight", Value: 70}}},
		{ID: 2, Attrs: []AttrValue{{Name: "age", Value: 45}, {Name: "weight", Value: 80}}},
		{ID: 3, Attrs: []AttrValue{{Name: "age", Value: 30}, {Name: "weight", Value: 90}}},
	}
	d := deploy(t, 8, db, WitnessCached)

	if got := d.search(t, Query{Attr: "age", Op: OpEqual, Value: 30}); !equalIDs(got, []uint64{1, 3}) {
		t.Errorf("age=30: got %v, want [1 3]", got)
	}
	if got := d.search(t, Query{Attr: "weight", Op: OpGreater, Value: 75}); !equalIDs(got, []uint64{2, 3}) {
		t.Errorf("weight>75: got %v, want [2 3]", got)
	}
	// Attribute isolation: the value 70 exists under weight but not age.
	if got := d.search(t, Query{Attr: "age", Op: OpEqual, Value: 70}); len(got) != 0 {
		t.Errorf("age=70: got %v, want empty", got)
	}
}

func TestMaliciousCloudDetected(t *testing.T) {
	db := []Record{NewRecord(1, 5), NewRecord(2, 8), NewRecord(3, 5), NewRecord(4, 200)}
	d := deploy(t, 8, db, WitnessCached)
	pp, ac := d.owner.AccumulatorPub(), d.owner.Ac()

	req, err := d.user.Token(Equal(5))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	honest, err := d.cloud.Search(req)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if err := VerifyResponse(pp, ac, req, honest); err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}

	tamper := []struct {
		name   string
		mutate func(*SearchResponse)
	}{
		{"drop-result", func(r *SearchResponse) {
			r.Results[0].ER = r.Results[0].ER[:len(r.Results[0].ER)-1]
		}},
		{"inject-result", func(r *SearchResponse) {
			fake := make([]byte, len(r.Results[0].ER[0]))
			copy(fake, r.Results[0].ER[0])
			fake[0] ^= 0xff
			r.Results[0].ER = append(r.Results[0].ER, fake)
		}},
		{"flip-byte", func(r *SearchResponse) {
			r.Results[0].ER[0][3] ^= 0x01
		}},
		{"duplicate-result", func(r *SearchResponse) {
			r.Results[0].ER = append(r.Results[0].ER, r.Results[0].ER[0])
		}},
		{"corrupt-witness", func(r *SearchResponse) {
			r.Results[0].Witness[len(r.Results[0].Witness)-1] ^= 0x01
		}},
		{"drop-token-result", func(r *SearchResponse) {
			r.Results = r.Results[:0]
		}},
	}
	for _, tc := range tamper {
		resp, err := d.cloud.Search(req)
		if err != nil {
			t.Fatalf("%s: re-search: %v", tc.name, err)
		}
		tc.mutate(resp)
		if err := VerifyResponse(pp, ac, req, resp); err == nil {
			t.Errorf("%s: tampered response passed verification", tc.name)
		}
	}
}

func TestStaleAcRejected(t *testing.T) {
	db := []Record{NewRecord(1, 5), NewRecord(2, 9)}
	d := deploy(t, 8, db, WitnessCached)
	staleAc := d.owner.Ac()

	out, err := d.owner.Insert([]Record{NewRecord(3, 5)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())

	req, err := d.user.Token(Equal(5))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	resp, err := d.cloud.Search(req)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	// Fresh Ac accepts; the pre-insert Ac must reject (freshness).
	if err := VerifyResponse(d.owner.AccumulatorPub(), d.owner.Ac(), req, resp); err != nil {
		t.Fatalf("fresh Ac rejected valid response: %v", err)
	}
	if err := VerifyResponse(d.owner.AccumulatorPub(), staleAc, req, resp); err == nil {
		t.Error("stale Ac accepted a post-insert response")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	owner, err := NewOwner(testParams(8))
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	if _, err := owner.Build([]Record{NewRecord(1, 5), NewRecord(1, 6)}); err == nil {
		t.Fatal("Build accepted duplicate IDs in one batch")
	}
	owner, err = NewOwner(testParams(8))
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	if _, err := owner.Build([]Record{NewRecord(1, 5)}); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := owner.Insert([]Record{NewRecord(1, 9)}); err == nil {
		t.Fatal("Insert accepted an already-used record ID")
	}
}

// TestApplyUpdateCollisionLeavesCloudUnchanged replays lost owner state: an
// owner restored from before an applied insert re-derives that insert's
// labels for the keywords it touched. Its delta — one record sharing the
// applied insert's keywords beside 24 fresh values — must be rejected whole:
// index length, prime count and Ac stay as they were.
func TestApplyUpdateCollisionLeavesCloudUnchanged(t *testing.T) {
	d := deploy(t, 8, []Record{NewRecord(1, 10), NewRecord(2, 200)}, WitnessCached)
	saved, err := d.owner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	upd, err := d.owner.Insert([]Record{NewRecord(3, 77)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cloud.ApplyUpdate(upd); err != nil {
		t.Fatal(err)
	}
	wantLen, wantPrimes, wantAc := d.cloud.IndexLen(), d.cloud.PrimeCount(), d.cloud.Ac()
	for trial := 0; trial < 3; trial++ {
		stale, err := UnmarshalOwner(saved)
		if err != nil {
			t.Fatal(err)
		}
		batch := []Record{NewRecord(100, 77)} // the applied insert's keywords
		for i := uint64(0); i < 24; i++ {
			batch = append(batch, NewRecord(101+i, 120+3*i))
		}
		delta, err := stale.Insert(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.cloud.ApplyUpdate(delta); err == nil {
			t.Fatalf("trial %d: colliding delta applied", trial)
		}
		if got := d.cloud.IndexLen(); got != wantLen {
			t.Fatalf("trial %d: index length %d after a rejected delta, want %d", trial, got, wantLen)
		}
		if got := d.cloud.PrimeCount(); got != wantPrimes {
			t.Fatalf("trial %d: prime count %d after a rejected delta, want %d", trial, got, wantPrimes)
		}
		if d.cloud.Ac().Cmp(wantAc) != 0 {
			t.Fatalf("trial %d: Ac changed by a rejected delta", trial)
		}
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	d.search(t, Equal(77))
}

func TestTwinDeleteAndUpdate(t *testing.T) {
	db := []Record{NewRecord(1, 5), NewRecord(2, 8), NewRecord(3, 5), NewRecord(4, 100)}
	owner, err := NewTwinOwner(testParams(8))
	if err != nil {
		t.Fatalf("NewTwinOwner: %v", err)
	}
	built, err := owner.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cloud, err := NewTwinCloud(
		owner.Add.CloudInit(built.Add.Index),
		owner.Del.CloudInit(built.Del.Index),
		WitnessCached,
	)
	if err != nil {
		t.Fatalf("NewTwinCloud: %v", err)
	}
	user, err := NewTwinUser(owner.ClientState())
	if err != nil {
		t.Fatalf("NewTwinUser: %v", err)
	}

	run := func(q Query) []uint64 {
		t.Helper()
		req, err := user.Token(q)
		if err != nil {
			t.Fatalf("Token: %v", err)
		}
		resp, err := cloud.Search(req)
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if err := VerifyTwinResponse(
			owner.Add.AccumulatorPub(), owner.Del.AccumulatorPub(),
			owner.Add.Ac(), owner.Del.Ac(), req, resp); err != nil {
			t.Fatalf("VerifyTwinResponse: %v", err)
		}
		ids, err := user.Decrypt(resp)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		return ids
	}
	sync := func(up *TwinUpdate) {
		t.Helper()
		if err := cloud.ApplyUpdate(up); err != nil {
			t.Fatalf("ApplyUpdate: %v", err)
		}
		user.Add.UpdateStates(owner.Add.StatesSnapshot())
		user.Del.UpdateStates(owner.Del.StatesSnapshot())
	}

	if got := run(Equal(5)); !equalIDs(got, []uint64{1, 3}) {
		t.Fatalf("Equal(5) before delete: got %v, want [1 3]", got)
	}

	up, err := owner.Delete([]Record{NewRecord(3, 5)})
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	sync(up)
	if got := run(Equal(5)); !equalIDs(got, []uint64{1}) {
		t.Errorf("Equal(5) after delete: got %v, want [1]", got)
	}
	if got := run(Less(9)); !equalIDs(got, []uint64{1, 2}) {
		t.Errorf("Less(9) after delete: got %v, want [1 2]", got)
	}

	// Update record 2 (value 8) to value 50 under a fresh ID 5.
	up, err = owner.Update(NewRecord(2, 8), NewRecord(5, 50))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	sync(up)
	if got := run(Equal(8)); len(got) != 0 {
		t.Errorf("Equal(8) after update: got %v, want empty", got)
	}
	if got := run(Equal(50)); !equalIDs(got, []uint64{5}) {
		t.Errorf("Equal(50) after update: got %v, want [5]", got)
	}

	// Guard rails.
	if _, err := owner.Delete([]Record{NewRecord(3, 5)}); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := owner.Delete([]Record{NewRecord(99, 1)}); err == nil {
		t.Error("delete of never-inserted record accepted")
	}
}

// TestForwardSecurity checks the unlinkability mechanism behind forward
// security: after an insert touches a previously searched keyword, the old
// search token no longer reaches the new entries (the new trapdoor is not
// derivable from the old one without the secret key), while a fresh token
// covers both epochs.
func TestForwardSecurity(t *testing.T) {
	db := []Record{NewRecord(1, 7)}
	d := deploy(t, 8, db, WitnessCached)

	oldReq, err := d.user.Token(Equal(7))
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	out, err := d.owner.Insert([]Record{NewRecord(2, 7)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		t.Fatalf("ApplyUpdate: %v", err)
	}

	// The cloud replays the OLD token against the updated index: it must
	// see only the pre-insert entries.
	oldResp, err := d.cloud.SearchResults(oldReq)
	if err != nil {
		t.Fatalf("SearchResults(old token): %v", err)
	}
	total := 0
	for _, r := range oldResp.Results {
		total += len(r.ER)
	}
	if total != 1 {
		t.Errorf("old token reached %d entries after insert, want 1 (forward security broken)", total)
	}

	// A fresh token must retrieve both records.
	d.user.UpdateStates(d.owner.StatesSnapshot())
	if got := d.search(t, Equal(7)); !equalIDs(got, []uint64{1, 2}) {
		t.Errorf("fresh token: got %v, want [1 2]", got)
	}
}
