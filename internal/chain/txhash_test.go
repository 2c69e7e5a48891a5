package chain

import (
	"bytes"
	"testing"
)

// TestTransactionHashKnownAnswers pins Transaction.Hash to digests written
// by the implementation that buffered every field into one message: the
// transaction root, receipts and the pool's mined set are all keyed by it,
// so a faster encoding must hash the same bytes.
func TestTransactionHashKnownAnswers(t *testing.T) {
	calldata := bytes.Repeat([]byte{0xa5, 0x00, 0x3c}, 2731) // 8,193 bytes
	for _, c := range []struct {
		name string
		tx   Transaction
		want string
	}{
		{"zero", Transaction{}, "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"},
		{"create", Transaction{From: AddressFromString("owner"), Nonce: 7, Value: 1, GasLimit: 5_000_000,
			Data: []byte("slicerV1")}, "6698057ce07e6ce591b9c24c4ef552beb2ce449eb4c87157bd92872784a59829"},
		{"call", Transaction{From: AddressFromString("cloud"), To: AddressFromString("contract"),
			Nonce: 1<<64 - 1, Value: 1 << 40, GasLimit: 10_000_000, Data: []byte{0x03}}, "ae4e2e99483232e425085f0787668f087b1646b91defaccfbb97976df82870b8"},
		{"calldata", Transaction{From: AddressFromString("user"), To: AddressFromString("contract"),
			Nonce: 258, GasLimit: 30_000_000, Data: calldata}, "442a71d5be9ef8f557b81316538220ce39e6f62b2259d9677fa53dbec0114caa"},
	} {
		if got := c.tx.Hash().String(); got != c.want {
			t.Errorf("%s: Hash() = %s, want %s", c.name, got, c.want)
		}
	}
}
