package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"slicer"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// deadLedger is a chain that cannot be reached: every mine fails, with no
// receipt to look at.
type deadLedger struct{}

func (deadLedger) Nonce(chain.Address) (uint64, error) { return 0, nil }
func (deadLedger) MineTraced(*chain.Transaction, *obs.Trace) (*wire.ReceiptMsg, error) {
	return nil, errors.New("chain unreachable")
}

// TestVerifiedSearchDiscardsRefundedResponse pins the example's two repaired
// divergences: a response the contract refunded is never decrypted, and a
// mining error is reported as an error instead of reading a nil receipt.
func TestVerifiedSearchDiscardsRefundedResponse(t *testing.T) {
	owner, err := core.NewOwner(core.Params{Bits: 16, TrapdoorBits: 256, AccumulatorBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]slicer.Record{slicer.NewRecord(1, 120), slicer.NewRecord(2, 7340), slicer.NewRecord(3, 512)})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	req, err := user.Token(slicer.Less(1000))
	if err != nil {
		t.Fatal(err)
	}

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		t.Fatal(err)
	}
	ownerAcct, userAcct, cloudAcct := chain.AddressFromString("owner"), chain.AddressFromString("user"), chain.AddressFromString("cloud")
	network, err := chain.NewNetwork(registry, []chain.Address{chain.AddressFromString("v0")},
		map[chain.Address]uint64{ownerAcct: 1 << 30, userAcct: 1 << 30, cloudAcct: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	ledger := exchange.Local{Network: network}
	rc, err := ledger.MineTraced(contract.DeployTx(ownerAcct, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 50_000_000), nil)
	if err != nil || !rc.Status {
		t.Fatalf("deploy: %v %+v", err, rc)
	}

	round := &exchange.Round{
		Cloud: wire.ObserveCloud(cloud, nil), Ledger: ledger,
		Contract: rc.ContractAddress, User: userAcct, CloudAcct: cloudAcct,
		AccPub: owner.AccumulatorPub(), Ac: owner.Ac(),
	}
	var honest bytes.Buffer
	if err := verifiedSearch(&honest, round, user, req, 2500, nil); err != nil {
		t.Fatalf("honest search: %v", err)
	}
	if out := honest.String(); !strings.Contains(out, "settled=true") || !strings.Contains(out, "decrypted matching record IDs: [1 3]") {
		t.Fatalf("honest search printed:\n%s", out)
	}

	round.Tamper = func(resp *core.SearchResponse) {
		for i := range resp.Results {
			if n := len(resp.Results[i].ER); n > 0 {
				resp.Results[i].ER = resp.Results[i].ER[:n-1]
				return
			}
		}
	}
	userBefore := network.Leader().Balance(userAcct)
	var cheated bytes.Buffer
	if err := verifiedSearch(&cheated, round, user, req, 2500, nil); err != nil {
		t.Fatalf("tampered search: %v", err)
	}
	out := cheated.String()
	if !strings.Contains(out, "settled=false") || !strings.Contains(out, "payment refunded") || strings.Contains(out, "decrypted") {
		t.Fatalf("tampered search printed:\n%s", out)
	}
	if got := network.Leader().Balance(userAcct); got != userBefore {
		t.Fatalf("user balance %d -> %d, want the escrow refunded", userBefore, got)
	}

	round.Tamper, round.Ledger = nil, deadLedger{}
	if err := verifiedSearch(&bytes.Buffer{}, round, user, req, 2500, nil); err == nil || !strings.Contains(err.Error(), "chain unreachable") {
		t.Fatalf("unreachable chain: err = %v", err)
	}
}
