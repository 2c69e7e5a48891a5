package contract

import (
	"testing"

	"slicer/internal/chain"
	"slicer/internal/core"
)

// TestSubmitRestrictedToAssignedCloud: only the cloud named in the escrow
// may submit results for it.
func TestSubmitRestrictedToAssignedCloud(t *testing.T) {
	f := newFixture(t, testDB)
	req, err := f.user.Token(core.Equal(5))
	if err != nil {
		t.Fatal(err)
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	reqID := chain.HashBytes([]byte("assigned"))
	if r := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		Value: 100, GasLimit: 1_000_000, Data: RequestData(reqID, f.cloudAddr, th),
	}); !r.Status {
		t.Fatalf("request reverted: %s", r.Err)
	}
	resp, err := f.cloud.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	// An interloper (the user itself) submits: must revert, escrow intact.
	if r := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		GasLimit: 10_000_000, Data: data,
	}); r.Status {
		t.Fatal("unassigned sender's submission accepted")
	}
	if got := f.requestStatus(reqID); got != StatusPending {
		t.Fatalf("request status = %d, want pending", got)
	}
	// The assigned cloud still settles afterwards.
	if r := f.mine(&chain.Transaction{
		From: f.cloudAddr, To: f.contractAddr, Nonce: f.nonce(f.cloudAddr),
		GasLimit: 10_000_000, Data: data,
	}); !r.Status {
		t.Fatalf("assigned cloud's submission reverted: %s", r.Err)
	}
}

// TestRequestValidation covers escrow preconditions.
func TestRequestValidation(t *testing.T) {
	f := newFixture(t, testDB)
	req, err := f.user.Token(core.Equal(5))
	if err != nil {
		t.Fatal(err)
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	reqID := chain.HashBytes([]byte("dup"))
	mk := func(value uint64) *chain.Receipt {
		return f.mine(&chain.Transaction{
			From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
			Value: value, GasLimit: 1_000_000, Data: RequestData(reqID, f.cloudAddr, th),
		})
	}
	// Zero payment rejected.
	if r := mk(0); r.Status {
		t.Fatal("zero-payment request accepted")
	}
	if r := mk(100); !r.Status {
		t.Fatalf("request reverted: %s", r.Err)
	}
	// Duplicate request ID rejected (no escrow overwrite).
	if r := mk(999); r.Status {
		t.Fatal("duplicate request ID accepted")
	}
	// Malformed calldata reverts.
	if r := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		Value: 5, GasLimit: 1_000_000, Data: []byte{MethodRequest, 1, 2, 3},
	}); r.Status {
		t.Fatal("malformed request accepted")
	}
	// Unknown method reverts.
	if r := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		GasLimit: 1_000_000, Data: []byte{0x7f},
	}); r.Status {
		t.Fatal("unknown method accepted")
	}
}

// TestOutOfGasReverts: a correct submission under a too-small gas limit
// reverts with the escrow intact and can be retried with enough gas.
func TestOutOfGasReverts(t *testing.T) {
	f := newFixture(t, testDB)
	req, err := f.user.Token(core.Equal(5))
	if err != nil {
		t.Fatal(err)
	}
	th, err := TokensHash(req.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	reqID := chain.HashBytes([]byte("oog"))
	if r := f.mine(&chain.Transaction{
		From: f.userAddr, To: f.contractAddr, Nonce: f.nonce(f.userAddr),
		Value: 100, GasLimit: 1_000_000, Data: RequestData(reqID, f.cloudAddr, th),
	}); !r.Status {
		t.Fatalf("request reverted: %s", r.Err)
	}
	resp, err := f.cloud.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := SubmitData(reqID, f.owner.AccumulatorPub().Marshal(), f.owner.Ac(), resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	r := f.mine(&chain.Transaction{
		From: f.cloudAddr, To: f.contractAddr, Nonce: f.nonce(f.cloudAddr),
		GasLimit: 30_000, Data: data, // above the intrinsic cost, below the execution
	})
	if r.Status {
		t.Fatal("under-gassed submission succeeded")
	}
	if got := f.requestStatus(reqID); got != StatusPending {
		t.Fatalf("status after out-of-gas = %d, want pending", got)
	}
	if r := f.mine(&chain.Transaction{
		From: f.cloudAddr, To: f.contractAddr, Nonce: f.nonce(f.cloudAddr),
		GasLimit: 10_000_000, Data: data,
	}); !r.Status {
		t.Fatalf("retry reverted: %s", r.Err)
	}
	if got := f.requestStatus(reqID); got != StatusSettled {
		t.Fatalf("status after retry = %d, want settled", got)
	}
}

// TestUnknownRuntimeCreateReverts: deploying code with an unregistered
// runtime ID fails cleanly.
func TestUnknownRuntimeCreateReverts(t *testing.T) {
	f := newFixture(t, testDB)
	r := f.mine(&chain.Transaction{
		From: f.ownerAddr, To: chain.ZeroAddress, Nonce: f.nonce(f.ownerAddr),
		GasLimit: 10_000_000,
		Data:     chain.CreationCode("nosuchvm", []byte{1, 2, 3}, nil),
	})
	if r.Status {
		t.Fatal("unknown runtime deployed")
	}
}
