// Package chain implements the blockchain substrate Slicer delegates public
// verification to: hash-linked blocks with Merkle transaction roots, an
// account/state model with metered contract storage, an EVM-style gas
// schedule (including EIP-2565 modexp pricing), native smart contracts, a
// transaction pool and a round-robin proof-of-authority consensus engine
// with an in-process broadcast network.
//
// Substitution note (documented in DESIGN.md): the paper deploys a Solidity
// contract to the Rinkeby testnet; this package reproduces the trusted
// storage + metered execution environment locally. SHA-256 stands in for
// Keccak-256 as the chain hash.
package chain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
)

// Hash is a 32-byte chain hash.
type Hash [32]byte

// Address is a 20-byte account address.
type Address [20]byte

// ZeroAddress is the empty address; a transaction sent to it creates a
// contract.
var ZeroAddress Address

// String renders a hash in hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// String renders an address in hex.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// HashBytes computes the chain hash of a byte string.
func HashBytes(data ...[]byte) Hash {
	h := sha256.New()
	for _, d := range data {
		h.Write(d)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// AddressFromString derives a deterministic address from a human-readable
// name (used to mint test/demo accounts).
func AddressFromString(name string) Address {
	h := HashBytes([]byte("slicer/address/"), []byte(name))
	var a Address
	copy(a[:], h[:20])
	return a
}

// Transaction is a state transition request.
type Transaction struct {
	From     Address
	To       Address // ZeroAddress creates a contract
	Nonce    uint64
	Value    uint64 // native token amount transferred/escrowed
	GasLimit uint64
	Data     []byte // contract calldata or creation code
}

// Hash returns the transaction hash: the chain hash of From, To, the
// nonce, value and gas limit (big endian) and the calldata, streamed
// through one digest so the calldata is never copied.
func (tx *Transaction) Hash() Hash {
	var u [24]byte
	binary.BigEndian.PutUint64(u[:8], tx.Nonce)
	binary.BigEndian.PutUint64(u[8:16], tx.Value)
	binary.BigEndian.PutUint64(u[16:], tx.GasLimit)
	return HashBytes(tx.From[:], tx.To[:], u[:], tx.Data)
}

// IsCreate reports whether the transaction deploys a contract.
func (tx *Transaction) IsCreate() bool { return tx.To == ZeroAddress }

// Log is an event emitted by a contract.
type Log struct {
	Address Address
	Topics  []Hash
	Data    []byte
}

// Receipt records the outcome of one executed transaction.
type Receipt struct {
	TxHash          Hash
	Status          bool // true = success, false = reverted
	GasUsed         uint64
	ContractAddress Address // set on creation
	ReturnData      []byte
	Err             string // revert reason if Status is false
	Logs            []Log
}

func (r *Receipt) hash() Hash {
	var buf bytes.Buffer
	buf.Write(r.TxHash[:])
	if r.Status {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], r.GasUsed)
	buf.Write(u[:])
	buf.Write(r.ContractAddress[:])
	buf.Write(r.ReturnData)
	buf.WriteString(r.Err)
	for _, l := range r.Logs {
		buf.Write(l.Address[:])
		for _, t := range l.Topics {
			buf.Write(t[:])
		}
		buf.Write(l.Data)
	}
	return HashBytes(buf.Bytes())
}

// Header is a block header.
type Header struct {
	ParentHash  Hash
	Number      uint64
	Time        time.Time
	Proposer    Address
	TxRoot      Hash
	ReceiptRoot Hash
	StateRoot   Hash
	GasUsed     uint64
}

// Block is a sealed batch of transactions.
type Block struct {
	Header   Header
	Txs      []*Transaction
	Receipts []*Receipt
}

// Hash returns the block hash (hash of the header fields).
func (b *Block) Hash() Hash {
	var buf bytes.Buffer
	buf.Write(b.Header.ParentHash[:])
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], b.Header.Number)
	buf.Write(u[:])
	binary.BigEndian.PutUint64(u[:], uint64(b.Header.Time.UnixNano()))
	buf.Write(u[:])
	buf.Write(b.Header.Proposer[:])
	buf.Write(b.Header.TxRoot[:])
	buf.Write(b.Header.ReceiptRoot[:])
	buf.Write(b.Header.StateRoot[:])
	binary.BigEndian.PutUint64(u[:], b.Header.GasUsed)
	buf.Write(u[:])
	return HashBytes(buf.Bytes())
}

// MerkleRoot computes a binary Merkle root over leaf hashes. Odd layers
// duplicate the last node; the empty set hashes to the hash of nothing.
func MerkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return HashBytes(nil)
	}
	layer := make([]Hash, len(leaves))
	copy(layer, leaves)
	for len(layer) > 1 {
		if len(layer)%2 == 1 {
			layer = append(layer, layer[len(layer)-1])
		}
		next := make([]Hash, len(layer)/2)
		for i := range next {
			next[i] = HashBytes(layer[2*i][:], layer[2*i+1][:])
		}
		layer = next
	}
	return layer[0]
}

// TxRoot computes the Merkle root of a transaction list.
func TxRoot(txs []*Transaction) Hash { return MerkleRoot(txHashes(txs)) }

// txHashes hashes each transaction once, for the root, the receipts and
// the pool's mined set alike.
func txHashes(txs []*Transaction) []Hash {
	hashes := make([]Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	return hashes
}

// ReceiptRoot computes the Merkle root of a receipt list.
func ReceiptRoot(receipts []*Receipt) Hash {
	leaves := make([]Hash, len(receipts))
	for i, r := range receipts {
		leaves[i] = r.hash()
	}
	return MerkleRoot(leaves)
}

// MerkleProof is an inclusion proof for one leaf in a Merkle root.
type MerkleProof struct {
	Index    int
	Siblings []Hash
}

// ProveLeaf builds an inclusion proof for leaves[index].
func ProveLeaf(leaves []Hash, index int) (*MerkleProof, error) {
	if index < 0 || index >= len(leaves) {
		return nil, fmt.Errorf("chain: proof index %d out of range [0,%d)", index, len(leaves))
	}
	proof := &MerkleProof{Index: index}
	layer := make([]Hash, len(leaves))
	copy(layer, leaves)
	pos := index
	for len(layer) > 1 {
		if len(layer)%2 == 1 {
			layer = append(layer, layer[len(layer)-1])
		}
		sib := pos ^ 1
		proof.Siblings = append(proof.Siblings, layer[sib])
		next := make([]Hash, len(layer)/2)
		for i := range next {
			next[i] = HashBytes(layer[2*i][:], layer[2*i+1][:])
		}
		layer = next
		pos /= 2
	}
	return proof, nil
}

// VerifyLeaf checks a Merkle inclusion proof.
func VerifyLeaf(root Hash, leaf Hash, proof *MerkleProof) bool {
	if proof == nil {
		return false
	}
	cur := leaf
	pos := proof.Index
	for _, sib := range proof.Siblings {
		if pos%2 == 0 {
			cur = HashBytes(cur[:], sib[:])
		} else {
			cur = HashBytes(sib[:], cur[:])
		}
		pos /= 2
	}
	return cur == root
}
