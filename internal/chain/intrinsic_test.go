package chain

import (
	"errors"
	"testing"
)

// TestBelowIntrinsicGasRefused replays a result submission's calldata
// shape, 7,905 bytes of which 488 are zero (intrinsic gas 141,624), under a
// gas limit of 1. The pool refuses it with ErrIntrinsicGas and the nonce
// stays put; a block that the proposer seals with it anyway fails import on
// a peer, whose height and state root stay put.
func TestBelowIntrinsicGasRefused(t *testing.T) {
	vals := []Address{AddressFromString("v0"), AddressFromString("v1")}
	alice := AddressFromString("alice")
	net, err := NewNetwork(NewRegistry(), vals, map[Address]uint64{alice: 1000})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 7905)
	for i := range data {
		if i%16 != 0 || i >= 16*488 {
			data[i] = byte(i%255) + 1
		}
	}
	tx := &Transaction{From: alice, To: AddressFromString("contract"), GasLimit: 1, Data: data}
	if got := IntrinsicGas(data, false); got != 141_624 {
		t.Fatalf("intrinsic gas %d, want 141,624", got)
	}

	proposer, peer := net.Node(vals[0]), net.Node(vals[1])
	if err := proposer.SubmitTx(tx); !errors.Is(err, ErrIntrinsicGas) {
		t.Fatalf("SubmitTx: err = %v, want ErrIntrinsicGas", err)
	}
	if proposer.PendingCount() != 0 || proposer.NextNonce(alice) != 0 {
		t.Fatal("a refused transaction reached the pool")
	}

	proposer.pending = append(proposer.pending, tx) // around the pool's check
	block, err := proposer.SealBlock()
	if err != nil {
		t.Fatal(err)
	}
	root := peer.state.Root()
	if err := peer.ImportBlock(block); !errors.Is(err, ErrIntrinsicGas) {
		t.Fatalf("ImportBlock: err = %v, want ErrIntrinsicGas", err)
	}
	if peer.Height() != 0 || peer.state.Root() != root {
		t.Fatal("a rejected block moved the peer")
	}
}
