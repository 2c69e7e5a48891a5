package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// Contract is the execution interface of a native smart contract. A
// contract's persistent data must live entirely in the metered storage
// exposed by CallCtx; Go-side fields would escape both consensus and gas
// accounting.
type Contract interface {
	// Init runs once at deployment with the constructor arguments.
	Init(ctx *CallCtx, initData []byte) error
	// Call dispatches a method invocation.
	Call(ctx *CallCtx, input []byte) ([]byte, error)
}

// ContractFactory instantiates a contract runtime.
type ContractFactory func() Contract

// runtimeIDLen is the length of the runtime identifier prefixed to creation
// code.
const runtimeIDLen = 8

// Registry maps runtime identifiers (the first 8 bytes of deployed code) to
// contract implementations. Every node in a network must share the same
// registry — it plays the role of the EVM's instruction semantics.
type Registry struct {
	factories map[string]ContractFactory
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]ContractFactory)}
}

// Register binds a runtime ID (at most 8 bytes, padded) to a factory.
func (r *Registry) Register(id string, f ContractFactory) error {
	if len(id) == 0 || len(id) > runtimeIDLen {
		return fmt.Errorf("chain: runtime id must be 1..%d bytes", runtimeIDLen)
	}
	key := paddedID(id)
	if _, dup := r.factories[key]; dup {
		return fmt.Errorf("chain: runtime id %q already registered", id)
	}
	r.factories[key] = f
	return nil
}

func paddedID(id string) string {
	b := make([]byte, runtimeIDLen)
	copy(b, id)
	return string(b)
}

// CreationCode assembles deployable code: runtime ID || body || initData
// boundary. body stands in for compiled bytecode and is charged per byte at
// deployment, so its size should reflect a realistic compiled contract.
func CreationCode(id string, body, initData []byte) []byte {
	out := make([]byte, 0, runtimeIDLen+8+len(body)+len(initData))
	out = append(out, paddedID(id)...)
	var l [8]byte
	binary.BigEndian.PutUint64(l[:], uint64(len(body)))
	out = append(out, l[:]...)
	out = append(out, body...)
	return append(out, initData...)
}

func splitCreationCode(code []byte) (id string, body, initData []byte, err error) {
	if len(code) < runtimeIDLen+8 {
		return "", nil, nil, errors.New("chain: creation code too short")
	}
	id = string(code[:runtimeIDLen])
	n := binary.BigEndian.Uint64(code[runtimeIDLen : runtimeIDLen+8])
	rest := code[runtimeIDLen+8:]
	if uint64(len(rest)) < n {
		return "", nil, nil, errors.New("chain: creation code body truncated")
	}
	return id, rest[:n], rest[n:], nil
}

// CallCtx is the execution context handed to a contract: metered access to
// storage, hashing, big-number arithmetic, event logs and value transfers.
// Every operation charges the gas meter; exhausting it aborts the call and
// reverts the transaction.
type CallCtx struct {
	Self   Address // the contract's own address
	Caller Address // transaction sender
	Value  uint64  // native tokens sent along

	state *State
	meter *Meter
	logs  []Log
}

// GasUsed reports gas consumed so far in this call.
func (c *CallCtx) GasUsed() uint64 { return c.meter.Used() }

// GasLeft reports the gas this call can still use.
func (c *CallCtx) GasLeft() uint64 { return c.meter.Remaining() }

// SLoad reads a storage slot, charging SloadGas.
func (c *CallCtx) SLoad(k Slot) (Slot, bool, error) {
	if err := c.meter.Use(SloadGas); err != nil {
		return Slot{}, false, err
	}
	v, ok := c.state.GetStorage(c.Self, k)
	return v, ok, nil
}

// SStore writes a storage slot, charging set or reset pricing.
func (c *CallCtx) SStore(k, v Slot) error {
	// Peek to price before mutating.
	_, existed := c.state.GetStorage(c.Self, k)
	cost := SstoreSetGas
	if existed {
		cost = SstoreResetGas
	}
	if err := c.meter.Use(cost); err != nil {
		return err
	}
	c.state.SetStorage(c.Self, k, v)
	return nil
}

// Hash hashes data, charging the KECCAK schedule.
func (c *CallCtx) Hash(data ...[]byte) (Hash, error) {
	total := 0
	for _, d := range data {
		total += len(d)
	}
	if err := c.ChargeHash(total); err != nil {
		return Hash{}, err
	}
	return HashBytes(data...), nil
}

// ChargeHash, ChargeFieldMul and ChargeModExp charge the call the Meter's
// prices of the verifier's work.
func (c *CallCtx) ChargeHash(n int) error { return c.meter.ChargeHash(n) }
func (c *CallCtx) ChargeFieldMul() error  { return c.meter.ChargeFieldMul() }
func (c *CallCtx) ChargeModExp(baseLen, modLen int, exp *big.Int) error {
	return c.meter.ChargeModExp(baseLen, modLen, exp)
}

// EmitLog records an event.
func (c *CallCtx) EmitLog(topics []Hash, data []byte) error {
	if err := c.meter.Use(LogCost(len(topics), len(data))); err != nil {
		return err
	}
	c.logs = append(c.logs, Log{Address: c.Self, Topics: topics, Data: data})
	return nil
}

// Transfer moves native tokens out of the contract's balance.
func (c *CallCtx) Transfer(to Address, amount uint64) error {
	if err := c.meter.Use(CallValueTransferGas); err != nil {
		return err
	}
	if err := c.state.Debit(c.Self, amount); err != nil {
		return err
	}
	c.state.Credit(to, amount)
	return nil
}

// SlotOf derives a storage slot key from a label and parts (the analogue of
// Solidity's keccak-based mapping slots). Unmetered: slot derivation is
// address arithmetic, not a chargeable hash of contract data.
func SlotOf(label string, parts ...[]byte) Slot {
	data := [][]byte{[]byte("slot/"), []byte(label)}
	data = append(data, parts...)
	h := HashBytes(data...)
	return Slot(h)
}

// U64Slot encodes a uint64 into a slot value.
func U64Slot(v uint64) Slot {
	var s Slot
	binary.BigEndian.PutUint64(s[24:], v)
	return s
}

// SlotU64 decodes a slot value as uint64.
func SlotU64(s Slot) uint64 { return binary.BigEndian.Uint64(s[24:]) }
