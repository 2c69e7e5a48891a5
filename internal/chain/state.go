package chain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"

	"slicer/internal/mhash"
)

// Slot is a 32-byte contract storage word.
type Slot [32]byte

// State is the world state: balances, nonces, contract code and per-contract
// key-value storage. Mutations are journaled so a reverting transaction can
// be rolled back without copying the whole state.
type State struct {
	balances map[Address]uint64
	nonces   map[Address]uint64
	code     map[Address][]byte
	storage  map[Address]map[Slot]Slot

	// num/den is the multiset hash of the committed tuples (see Root):
	// every write multiplies the tuple it replaces into den and the tuple
	// it installs into num, so no write pays a modular inverse.
	num, den mhash.Hash

	journal []journalEntry
}

type journalEntry struct {
	kind    byte // 'b' balance, 'n' nonce, 'c' code, 's' storage
	addr    Address
	slot    Slot
	prevU64 uint64
	prevBuf []byte
	prevVal Slot
	existed bool
}

// NewState creates an empty world state.
func NewState() *State {
	return &State{
		balances: make(map[Address]uint64),
		nonces:   make(map[Address]uint64),
		code:     make(map[Address][]byte),
		storage:  make(map[Address]map[Slot]Slot),
		num:      mhash.Empty(),
		den:      mhash.Empty(),
	}
}

// tuple encodes one committed tuple: domain tag, address, storage slot (for
// 's' only) and value. A zero or empty value has no tuple (nil), so "never
// written" and "written back to zero" are the same state.
func tuple(kind byte, a Address, slot, val []byte) []byte {
	if len(bytes.TrimLeft(val, "\x00")) == 0 {
		return nil
	}
	t := append(make([]byte, 0, 1+len(a)+len(slot)+len(val)), kind)
	return append(append(append(t, a[:]...), slot...), val...)
}

func be64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// swap replaces one committed tuple by another in num/den.
func (s *State) swap(old, new []byte) {
	if old != nil {
		s.den = s.den.Add(old)
	}
	if new != nil {
		s.num = s.num.Add(new)
	}
}

// The put* setters are the only code that writes the maps. They keep num/den
// in step and do not journal: the public setters journal and call them,
// Revert calls them with the journaled previous values.

func (s *State) putU64(kind byte, m map[Address]uint64, a Address, v uint64) {
	prev := m[a]
	if prev == v {
		return
	}
	s.swap(tuple(kind, a, nil, be64(prev)), tuple(kind, a, nil, be64(v)))
	if v == 0 {
		delete(m, a)
	} else {
		m[a] = v
	}
}

// codeHash is the value of a 'c' tuple; empty code has none.
func codeHash(code []byte) []byte {
	if len(code) == 0 {
		return nil
	}
	h := HashBytes(code)
	return h[:]
}

func (s *State) putCode(a Address, code []byte) {
	s.swap(tuple('c', a, nil, codeHash(s.code[a])), tuple('c', a, nil, codeHash(code)))
	if len(code) == 0 {
		delete(s.code, a)
	} else {
		s.code[a] = code
	}
}

// putStorage keeps a zero word in the map while present is set. That a slot
// holds an explicit zero is not committed; it only selects SSTORE set-vs-reset
// pricing, so validators that differed there would still part ways on the
// header's GasUsed and ReceiptRoot.
func (s *State) putStorage(a Address, k, v Slot, present bool) {
	m := s.storage[a]
	if prev := m[k]; prev != v {
		s.swap(tuple('s', a, k[:], prev[:]), tuple('s', a, k[:], v[:]))
	}
	if !present {
		delete(m, k)
		return
	}
	if m == nil {
		m = make(map[Slot]Slot)
		s.storage[a] = m
	}
	m[k] = v
}

// Balance returns an account balance.
func (s *State) Balance(a Address) uint64 { return s.balances[a] }

// SetBalance sets a balance (journaled).
func (s *State) SetBalance(a Address, v uint64) {
	s.journal = append(s.journal, journalEntry{kind: 'b', addr: a, prevU64: s.balances[a]})
	s.putU64('b', s.balances, a, v)
}

// Credit adds funds to an account.
func (s *State) Credit(a Address, v uint64) { s.SetBalance(a, s.balances[a]+v) }

// Debit removes funds, failing on insufficient balance.
func (s *State) Debit(a Address, v uint64) error {
	if s.balances[a] < v {
		return fmt.Errorf("chain: insufficient balance at %s: have %d, need %d", a, s.balances[a], v)
	}
	s.SetBalance(a, s.balances[a]-v)
	return nil
}

// Nonce returns an account nonce.
func (s *State) Nonce(a Address) uint64 { return s.nonces[a] }

// BumpNonce increments an account nonce (journaled).
func (s *State) BumpNonce(a Address) {
	s.journal = append(s.journal, journalEntry{kind: 'n', addr: a, prevU64: s.nonces[a]})
	s.putU64('n', s.nonces, a, s.nonces[a]+1)
}

// Code returns a contract's deployed code (nil for non-contracts).
func (s *State) Code(a Address) []byte { return s.code[a] }

// SetCode deploys code at an address (journaled).
func (s *State) SetCode(a Address, code []byte) {
	s.journal = append(s.journal, journalEntry{kind: 'c', addr: a, prevBuf: s.code[a]})
	s.putCode(a, append([]byte(nil), code...))
}

// GetStorage reads one storage slot.
func (s *State) GetStorage(a Address, k Slot) (Slot, bool) {
	v, ok := s.storage[a][k]
	return v, ok
}

// SetStorage writes one storage slot (journaled). Returns whether the slot
// previously held a value, which drives SSTORE set-vs-reset pricing.
func (s *State) SetStorage(a Address, k Slot, v Slot) (existed bool) {
	prev, existed := s.storage[a][k]
	s.journal = append(s.journal, journalEntry{
		kind: 's', addr: a, slot: k, prevVal: prev, existed: existed,
	})
	s.putStorage(a, k, v, true)
	return existed
}

// Checkpoint marks the current journal position; Revert(cp) undoes every
// mutation after it.
func (s *State) Checkpoint() int { return len(s.journal) }

// Revert rolls the state back to a checkpoint.
func (s *State) Revert(cp int) {
	for i := len(s.journal) - 1; i >= cp; i-- {
		e := s.journal[i]
		switch e.kind {
		case 'b':
			s.putU64('b', s.balances, e.addr, e.prevU64)
		case 'n':
			s.putU64('n', s.nonces, e.addr, e.prevU64)
		case 'c':
			s.putCode(e.addr, e.prevBuf)
		case 's':
			s.putStorage(e.addr, e.slot, e.prevVal, e.existed)
		}
	}
	s.journal = s.journal[:cp]
}

// DiscardJournal drops rollback history after a block commits.
func (s *State) DiscardJournal() { s.journal = s.journal[:0] }

// Root returns the commitment to the state that a block header carries:
// the MSet-Mu-Hash (internal/mhash, the hash the verification contract
// already trusts for result sets) of the set of tuples
//
//	'b' addr balance   'n' addr nonce   'c' addr H(code)   's' addr slot value
//
// with no tuple for a zero balance or nonce, empty code or a zero storage
// word. It is a function of the state's contents alone — not of the order
// of writes, nor of writes that were reverted or zeroed again — and two
// states with different tuple sets collide only by breaking discrete log in
// GF(q)*. Writes maintain it (two field multiplications each), so sealing
// costs one modular inverse however large the state is. A multiset hash
// admits no inclusion proofs: light clients prove receipts (light.go), not
// state.
func (s *State) Root() Hash {
	return Hash(s.num.Div(s.den).Marshal()) // den is a product of units
}

// Clone deep-copies the state (used when a validator re-executes a proposed
// block without disturbing its own tip).
func (s *State) Clone() *State {
	out := &State{
		balances: maps.Clone(s.balances),
		nonces:   maps.Clone(s.nonces),
		code:     make(map[Address][]byte, len(s.code)),
		storage:  make(map[Address]map[Slot]Slot, len(s.storage)),
		num:      s.num, // mhash values are immutable
		den:      s.den,
	}
	for a, c := range s.code {
		out.code[a] = bytes.Clone(c)
	}
	for a, m := range s.storage {
		out.storage[a] = maps.Clone(m)
	}
	return out
}
