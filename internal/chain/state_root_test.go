package chain

import (
	"bytes"
	"fmt"
	"testing"

	"slicer/internal/mhash"
)

// scratchRoot is the reference the incremental root is held against: it
// rebuilds the multiset hash from nothing by walking the state's maps.
func scratchRoot(s *State) Hash {
	var tuples [][]byte
	add := func(t []byte) {
		if t != nil {
			tuples = append(tuples, t)
		}
	}
	for a, v := range s.balances {
		add(tuple('b', a, nil, be64(v)))
	}
	for a, v := range s.nonces {
		add(tuple('n', a, nil, be64(v)))
	}
	for a, c := range s.code {
		add(tuple('c', a, nil, codeHash(c)))
	}
	for a, m := range s.storage {
		for k, v := range m {
			add(tuple('s', a, k[:], v[:]))
		}
	}
	return Hash(mhash.OfMultiset(tuples).Marshal())
}

// TestStateRootIsContentNotHistory: a state that was never touched, one
// that was touched and reverted, and one that was written and then zeroed
// again are the same state and must have the same root. (The flat sorted
// hash this replaces enumerated map keys, so a reverted Credit to a fresh
// address left a zero entry behind and moved the root.)
func TestStateRootIsContentNotHistory(t *testing.T) {
	a, c := AddressFromString("fresh"), AddressFromString("contract")
	base := func() *State {
		st := NewState()
		st.SetBalance(AddressFromString("x"), 5)
		st.SetStorage(c, Slot{9}, Slot{9})
		st.DiscardJournal()
		return st
	}
	want := base().Root()

	histories := map[string]func(*State){
		"reverted": func(s *State) {
			cp := s.Checkpoint()
			s.Credit(a, 7)
			s.BumpNonce(a)
			s.SetCode(a, []byte{0xaa})
			s.SetStorage(a, Slot{1}, Slot{2})
			s.SetStorage(c, Slot{9}, Slot{3})
			s.Revert(cp)
		},
		"zeroed": func(s *State) {
			s.Credit(a, 7)
			if err := s.Debit(a, 7); err != nil {
				t.Fatal(err)
			}
			s.SetCode(a, []byte{0xaa})
			s.SetCode(a, nil)
			s.SetStorage(a, Slot{1}, Slot{2})
			s.SetStorage(a, Slot{1}, Slot{})
		},
		"rewritten": func(s *State) {
			s.SetBalance(AddressFromString("x"), 6)
			s.SetStorage(c, Slot{9}, Slot{1})
			s.SetBalance(AddressFromString("x"), 5)
			s.SetStorage(c, Slot{9}, Slot{9})
		},
	}
	for name, history := range histories {
		st := base()
		history(st)
		if got := st.Root(); got != want {
			t.Errorf("%s: root %s, want the untouched state's %s", name, got, want)
		}
		if got := scratchRoot(st); got != want {
			t.Errorf("%s: from-scratch root %s, want %s", name, got, want)
		}
	}
	if NewState().Root() != Hash(mhash.Empty().Marshal()) {
		t.Error("the empty state's root is not H(∅)")
	}
}

// TestStateRootTupleEncoding pins the committed encoding (PROTOCOL.md §11)
// with tuples spelled out by hand rather than by the code under test.
func TestStateRootTupleEncoding(t *testing.T) {
	a := AddressFromString("acct")
	code := []byte{0xaa, 0xbb}
	codeSum := HashBytes(code)
	k, v := Slot{1}, Slot{31: 2}

	st := NewState()
	st.SetBalance(a, 5)
	st.BumpNonce(a)
	st.SetCode(a, code)
	st.SetStorage(a, k, v)
	st.SetStorage(a, Slot{7}, Slot{}) // a zero word: no tuple

	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	want := mhash.OfMultiset([][]byte{
		cat([]byte{'b'}, a[:], []byte{0, 0, 0, 0, 0, 0, 0, 5}),
		cat([]byte{'n'}, a[:], []byte{0, 0, 0, 0, 0, 0, 0, 1}),
		cat([]byte{'c'}, a[:], codeSum[:]),
		cat([]byte{'s'}, a[:], k[:], v[:]),
	})
	if got := st.Root(); got != Hash(want.Marshal()) {
		t.Fatalf("root %s, want %x", got, want.Marshal())
	}
}

// TestConsensusSurvivesRejectedBlock: a validator that executed and then
// rejected a block touching an address nobody else ever saw must still
// agree with its peers on every later block.
func TestConsensusSurvivesRejectedBlock(t *testing.T) {
	vals := []Address{AddressFromString("v0"), AddressFromString("v1"), AddressFromString("v2")}
	alice := AddressFromString("alice")
	net, err := NewNetwork(NewRegistry(), vals, map[Address]uint64{alice: 1000})
	if err != nil {
		t.Fatal(err)
	}
	victim := net.Node(vals[1])

	// The scheduled proposer equivocates towards v1 only: a well-formed
	// block paying a fresh address, under a state root that is not its
	// outcome.
	bogusTxs := []*Transaction{{From: alice, To: AddressFromString("ghost"), Nonce: 0, Value: 7, GasLimit: 100000}}
	bogus := &Block{
		Header: Header{
			ParentHash: victim.Head().Hash(),
			Number:     1,
			Proposer:   vals[0],
			TxRoot:     TxRoot(bogusTxs),
			StateRoot:  HashBytes([]byte("bogus")),
		},
		Txs: bogusTxs,
	}
	if err := victim.ImportBlock(bogus); err == nil {
		t.Fatal("block with a bogus state root imported")
	}
	if victim.state.Root() != net.Leader().state.Root() {
		t.Fatal("a rejected block moved the validator's state root")
	}

	// Honest blocks follow, one per proposer; Step fails if any
	// validator rejects any of them.
	for i := 0; i < 3; i++ {
		tx := &Transaction{From: alice, To: AddressFromString("bob"), Nonce: uint64(i), Value: 10, GasLimit: 100000}
		if err := net.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Step(); err != nil {
			t.Fatalf("honest block %d after the rejected one: %v", i+1, err)
		}
	}
	head := net.Leader().Head()
	for _, node := range net.Nodes() {
		if node.Head().Hash() != head.Hash() || node.state.Root() != head.Header.StateRoot {
			t.Errorf("node %s left consensus", node.identity)
		}
	}
}

// FuzzStateRootIncremental drives a state through random journaled writes,
// checkpoints, reverts, journal discards and clones. After every step the
// incrementally maintained root must equal the one rebuilt from scratch,
// and every Revert must land on the root its Checkpoint saw.
func FuzzStateRootIncremental(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 6, 0, 0, 1, 9, 7, 0, 0}) // set, checkpoint, set, revert
	f.Add([]byte{5, 2, 1, 3, 5, 2, 1, 0, 6, 0, 0, 5, 2, 1, 4, 7, 0, 0, 8, 0, 0})
	f.Add([]byte{1, 0, 200, 2, 0, 200, 3, 0, 0, 4, 1, 2, 4, 1, 0, 9, 0, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type mark struct {
			cp   int
			root Hash
		}
		s := NewState()
		var marks []mark
		for ; len(ops) >= 3; ops = ops[3:] {
			op, x, y := ops[0]%10, ops[1], ops[2]
			a := Address{x % 4}
			switch op {
			case 0:
				s.SetBalance(a, uint64(y))
			case 1:
				s.Credit(a, uint64(y))
			case 2:
				_ = s.Debit(a, uint64(y)) // an overdraft changes nothing
			case 3:
				s.BumpNonce(a)
			case 4:
				s.SetCode(a, make([]byte, y%3, 3)) // empty, or one of two codes
			case 5:
				s.SetStorage(a, Slot{x / 4 % 4}, Slot{31: y % 4})
			case 6:
				marks = append(marks, mark{s.Checkpoint(), s.Root()})
			case 7:
				if len(marks) == 0 {
					continue
				}
				i := int(x) % len(marks)
				m := marks[i]
				marks = marks[:i]
				s.Revert(m.cp)
				if got := s.Root(); got != m.root {
					t.Fatalf("Revert landed on root %s, Checkpoint saw %s", got, m.root)
				}
			case 8:
				s.DiscardJournal()
				marks = nil
			case 9:
				before := s.Root()
				clone := s.Clone()
				s.Credit(a, 1) // the original moves on; the clone must not
				if clone.Root() != before {
					t.Fatal("clone's root follows the original")
				}
				s, marks = clone, nil
			}
			if got, want := s.Root(), scratchRoot(s); got != want {
				t.Fatalf("after op %d: incremental root %s, from scratch %s", op, got, want)
			}
		}
	})
}

// escrowShaped stands in for the search contract's request path: five
// storage words per call and the call's value kept as escrow.
type escrowShaped struct{}

func (escrowShaped) Init(*CallCtx, []byte) error { return nil }

func (escrowShaped) Call(ctx *CallCtx, input []byte) ([]byte, error) {
	for _, field := range []string{"status", "cloud", "payment", "payer", "tokens"} {
		if err := ctx.SStore(SlotOf(field, input), U64Slot(1)); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// BenchmarkSealBlock mines one escrow-shaped transaction per iteration on
// three validators (one seals, two import) over contract storage that
// already holds the given number of slots. The state root is maintained by
// the writes, so ns/op should not depend on slots.
func BenchmarkSealBlock(b *testing.B) {
	for _, slots := range []int{0, 10_000, 100_000} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			vals := []Address{AddressFromString("v0"), AddressFromString("v1"), AddressFromString("v2")}
			alice := AddressFromString("alice")
			registry := NewRegistry()
			if err := registry.Register("escrow", func() Contract { return escrowShaped{} }); err != nil {
				b.Fatal(err)
			}
			net, err := NewNetwork(registry, vals, map[Address]uint64{alice: 1 << 40})
			if err != nil {
				b.Fatal(err)
			}
			if err := net.SubmitTx(&Transaction{From: alice, GasLimit: 10_000_000, Data: CreationCode("escrow", []byte{0xfe}, nil)}); err != nil {
				b.Fatal(err)
			}
			if _, err := net.Step(); err != nil {
				b.Fatal(err)
			}
			contract := contractAddress(alice, 0)
			for _, node := range net.Nodes() {
				for i := 0; i < slots; i++ {
					node.state.SetStorage(contract, SlotOf("old", be64(uint64(i))), U64Slot(1))
				}
				node.state.DiscardJournal()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := &Transaction{
					From: alice, To: contract, Nonce: uint64(i + 1), Value: 1, GasLimit: 1_000_000,
					Data: be64(uint64(i)),
				}
				if err := net.SubmitTx(tx); err != nil {
					b.Fatal(err)
				}
				block, err := net.Step()
				if err != nil {
					b.Fatal(err)
				}
				if r := block.Receipts[0]; !r.Status {
					b.Fatalf("escrow transaction reverted: %s", r.Err)
				}
			}
		})
	}
}
