package slicer

import (
	"strings"
	"testing"

	"slicer/internal/audit"
	"slicer/internal/durable"
)

func TestTwinDeploymentFairExchange(t *testing.T) {
	db := []Record{
		NewRecord(1, 10), NewRecord(2, 20), NewRecord(3, 10), NewRecord(4, 90),
	}
	d, err := NewTwinDeployment(DeploymentConfig{Params: testParams(8)}, db)
	if err != nil {
		t.Fatalf("NewTwinDeployment: %v", err)
	}
	const fee = 1000
	cloudStart := d.Balance(d.CloudAddr)

	out, err := d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{1, 3}) {
		t.Fatalf("outcome = %+v, want settled [1 3]", out)
	}
	if got := d.Balance(d.CloudAddr); got != cloudStart+2*(fee/2) {
		t.Errorf("cloud balance %d, want %d", got, cloudStart+2*(fee/2))
	}

	// Delete on chain, then search again: the deleted record disappears
	// and both halves still verify.
	if err := d.Delete([]Record{NewRecord(1, 10)}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	out, err = d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch after delete: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{3}) {
		t.Fatalf("post-delete outcome = %+v, want settled [3]", out)
	}

	// Update on chain.
	if err := d.Update(NewRecord(2, 20), NewRecord(5, 11)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	out, err = d.VerifiedSearch(Less(15), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch after update: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{3, 5}) {
		t.Fatalf("post-update outcome = %+v, want settled [3 5]", out)
	}

	// Insert on chain.
	if err := d.Insert([]Record{NewRecord(6, 10)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	out, err = d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch after insert: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{3, 6}) {
		t.Fatalf("post-insert outcome = %+v, want settled [3 6]", out)
	}

	if _, err := d.VerifiedSearch(Equal(10), 1); err == nil {
		t.Error("sub-minimum fee accepted")
	}
}

// TestTwinRefundOneHalf cheats on the delete instance only: that half's fee
// returns to the user, the honest insert half still settles, no IDs are
// reported, and the refund leaves one attributed evidence bundle that names
// the rejected transaction.
func TestTwinRefundOneHalf(t *testing.T) {
	db := []Record{NewRecord(1, 10), NewRecord(2, 20), NewRecord(3, 10)}
	d, err := NewTwinDeployment(DeploymentConfig{Params: testParams(8)}, db)
	if err != nil {
		t.Fatalf("NewTwinDeployment: %v", err)
	}
	// Put a record in the delete instance so its half has a result to drop.
	if err := d.Delete([]Record{NewRecord(1, 10)}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	led, err := audit.Open(audit.Options{FS: durable.NewMemFS(), Dir: "audit"})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	d.AttachAudit(led, "twin")
	d.tamper[1] = func(resp *SearchResponse) { resp.Results[0].ER[0][0] ^= 1 }

	const fee = 1000
	userStart, cloudStart := d.Balance(d.UserAddr), d.Balance(d.CloudAddr)
	out, err := d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch: %v", err)
	}
	if out.Settled || out.IDs != nil || out.GasUsed == 0 {
		t.Fatalf("outcome = %+v, want unsettled, no IDs, gas of both halves", out)
	}
	if got := d.Balance(d.UserAddr); got != userStart-fee/2 {
		t.Errorf("user balance %d, want %d (insert half paid, delete half refunded)", got, userStart-fee/2)
	}
	if got := d.Balance(d.CloudAddr); got != cloudStart+fee/2 {
		t.Errorf("cloud balance %d, want %d", got, cloudStart+fee/2)
	}

	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	var refund *audit.Record
	records := led.Recent(0) // newest first
	for i := len(records) - 1; i >= 0; i-- {
		kinds = append(kinds, records[i].Kind)
		if records[i].Kind == audit.KindRefund {
			refund = records[i]
		}
	}
	if got, want := strings.Join(kinds, " "), "search settle search refund"; got != want {
		t.Fatalf("audit kinds = %q, want %q", got, want)
	}
	ev := refund.Evidence
	if ev == nil || len(ev.TxHash) != len(TxHash{}) || ev.Phase == "" || ev.TokenIndex < 0 {
		t.Fatalf("refund evidence = %+v, want tx hash, phase and token index", ev)
	}
	if !strings.HasPrefix(refund.Detail, "twin delete half, request ") || refund.Tenant != "twin" {
		t.Errorf("refund record detail %q tenant %q", refund.Detail, refund.Tenant)
	}
	var h TxHash
	copy(h[:], ev.TxHash)
	if r, ok := d.network.Leader().Receipt(h); !ok || !r.Status || len(r.ReturnData) != 1 || r.ReturnData[0] != 0 {
		t.Errorf("evidence tx hash does not name the rejected submission: %+v (found %v)", r, ok)
	}
}
