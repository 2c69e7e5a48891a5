package chain

import (
	"bytes"
	"errors"
	"math/big"
)

// Gas schedule. Constants follow the Ethereum yellow paper / EIP-2028 /
// EIP-2565 values so that metered costs are comparable with the paper's
// Rinkeby measurements.
const (
	// TxGas is the base cost of any transaction.
	TxGas uint64 = 21000
	// TxCreateGas is the additional base cost of contract creation.
	TxCreateGas uint64 = 32000
	// TxDataZeroGas / TxDataNonZeroGas price calldata bytes (EIP-2028).
	TxDataZeroGas    uint64 = 4
	TxDataNonZeroGas uint64 = 16
	// CreateDataGas prices each byte of deployed contract code.
	CreateDataGas uint64 = 200
	// SloadGas prices a storage read.
	SloadGas uint64 = 800
	// SstoreSetGas prices writing a zero slot to non-zero.
	SstoreSetGas uint64 = 20000
	// SstoreResetGas prices overwriting a non-zero slot.
	SstoreResetGas uint64 = 5000
	// HashBaseGas / HashWordGas price hashing (KECCAK256 schedule).
	HashBaseGas uint64 = 30
	HashWordGas uint64 = 6
	// LogGas / LogTopicGas / LogDataGas price event emission.
	LogGas      uint64 = 375
	LogTopicGas uint64 = 375
	LogDataGas  uint64 = 8
	// CallValueTransferGas prices a value transfer out of a contract.
	CallValueTransferGas uint64 = 9000
	// FieldMulGas prices one 256-bit modular multiplication (MULMOD).
	FieldMulGas uint64 = 8
	// ModExpMinGas is the EIP-2565 floor for the modexp precompile.
	ModExpMinGas uint64 = 200
)

// ErrOutOfGas is returned when a transaction exhausts its gas limit. The
// whole transaction reverts.
var ErrOutOfGas = errors.New("chain: out of gas")

// IntrinsicGas computes the gas charged before execution starts: the base
// cost plus calldata pricing (and the creation surcharge). Every node
// prices each transaction at admission, import and execution, so the zero
// bytes are counted with bytes.Count rather than byte by byte.
func IntrinsicGas(data []byte, create bool) uint64 {
	gas := TxGas
	if create {
		gas += TxCreateGas
	}
	zeros := uint64(bytes.Count(data, []byte{0}))
	return gas + TxDataZeroGas*zeros + TxDataNonZeroGas*(uint64(len(data))-zeros)
}

// HashGas prices hashing n bytes.
func HashGas(n int) uint64 {
	words := uint64((n + 31) / 32)
	return HashBaseGas + HashWordGas*words
}

// LogCost prices an event with the given topic count and payload size.
func LogCost(topics, dataLen int) uint64 {
	return LogGas + LogTopicGas*uint64(topics) + LogDataGas*uint64(dataLen)
}

// ModExpGas prices a modular exponentiation per EIP-2565:
//
//	mult_complexity = ceil(max(len(base), len(mod))/8)^2
//	iterations      = max(bitlen(exp)-1, 1)        (exponents <= 32 bytes)
//	gas             = max(200, mult_complexity * iterations / 3)
//
// Exponents longer than 32 bytes get the EIP's extended iteration count.
func ModExpGas(baseLen, modLen int, exp *big.Int) uint64 {
	maxLen := baseLen
	if modLen > maxLen {
		maxLen = modLen
	}
	words := uint64((maxLen + 7) / 8)
	mult := words * words

	expLen := (exp.BitLen() + 7) / 8
	var iters uint64
	if expLen <= 32 {
		if exp.BitLen() > 1 {
			iters = uint64(exp.BitLen() - 1)
		} else {
			iters = 1
		}
	} else {
		head := new(big.Int).Rsh(exp, uint(8*(expLen-32)))
		iters = 8*uint64(expLen-32) + uint64(max(head.BitLen()-1, 1))
	}
	gas := mult * iters / 3
	if gas < ModExpMinGas {
		return ModExpMinGas
	}
	return gas
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Meter tracks gas consumption against a limit.
type Meter struct {
	limit uint64
	used  uint64
}

// NewMeter creates a meter with the given limit.
func NewMeter(limit uint64) *Meter {
	return &Meter{limit: limit}
}

// Use consumes gas, returning ErrOutOfGas if the limit is exceeded.
func (m *Meter) Use(gas uint64) error {
	if m.used+gas > m.limit || m.used+gas < m.used {
		m.used = m.limit
		return ErrOutOfGas
	}
	m.used += gas
	return nil
}

// Used reports gas consumed so far.
func (m *Meter) Used() uint64 { return m.used }

// Remaining reports gas left.
func (m *Meter) Remaining() uint64 { return m.limit - m.used }
