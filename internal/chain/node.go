package chain

import (
	"errors"
	"fmt"
	"time"
)

// Node is one blockchain participant: it maintains the canonical chain, the
// world state, a transaction pool, and executes/validates blocks under the
// round-robin proof-of-authority rules.
type Node struct {
	identity   Address
	registry   *Registry
	validators []Address

	state    *State
	blocks   []*Block
	pending  []*Transaction
	receipts map[Hash]*Receipt

	// now supplies block timestamps when this node proposes. Validation
	// never consults it: imported blocks adopt the proposer's header
	// time, so clock skew cannot fork consensus.
	now func() time.Time
}

// Config configures a node.
type Config struct {
	// Identity is the node's own (validator) address.
	Identity Address
	// Registry supplies contract runtimes; must be identical on all nodes.
	Registry *Registry
	// Validators is the PoA validator set; the proposer of block N is
	// Validators[(N-1) % len(Validators)].
	Validators []Address
	// GenesisAlloc pre-funds accounts.
	GenesisAlloc map[Address]uint64
	// Now supplies block timestamps when this node seals; nil defaults
	// to the wall clock. Deterministic tests inject a fixed clock so two
	// identically-configured nodes seal byte-identical blocks.
	Now func() time.Time
}

// NewNode creates a node at genesis.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Registry == nil {
		return nil, errors.New("chain: registry required")
	}
	if len(cfg.Validators) == 0 {
		return nil, errors.New("chain: at least one validator required")
	}
	st := NewState()
	for a, v := range cfg.GenesisAlloc {
		st.SetBalance(a, v)
	}
	st.DiscardJournal()
	genesis := &Block{Header: Header{
		Number:    0,
		Time:      time.Unix(0, 0),
		StateRoot: st.Root(),
		TxRoot:    MerkleRoot(nil),
	}}
	vals := make([]Address, len(cfg.Validators))
	copy(vals, cfg.Validators)
	now := cfg.Now
	if now == nil {
		now = time.Now //slicer:allow wallclock -- injected default clock; deterministic callers supply Config.Now
	}
	return &Node{
		identity:   cfg.Identity,
		registry:   cfg.Registry,
		validators: vals,
		state:      st,
		blocks:     []*Block{genesis},
		receipts:   make(map[Hash]*Receipt),
		now:        now,
	}, nil
}

// Identity returns the node's own validator address.
func (n *Node) Identity() Address { return n.identity }

// Height returns the latest block number.
func (n *Node) Height() uint64 { return n.blocks[len(n.blocks)-1].Header.Number }

// Head returns the latest block.
func (n *Node) Head() *Block { return n.blocks[len(n.blocks)-1] }

// BlockByNumber returns a block, or nil if out of range.
func (n *Node) BlockByNumber(num uint64) *Block {
	if num >= uint64(len(n.blocks)) {
		return nil
	}
	return n.blocks[num]
}

// Receipt returns the receipt for a mined transaction.
func (n *Node) Receipt(txHash Hash) (*Receipt, bool) {
	r, ok := n.receipts[txHash]
	return r, ok
}

// Balance reads an account balance from the node's state.
func (n *Node) Balance(a Address) uint64 { return n.state.Balance(a) }

// Nonce reads an account's mined nonce (excluding pooled transactions).
func (n *Node) Nonce(a Address) uint64 { return n.state.Nonce(a) }

// NextNonce returns the nonce the account's next transaction must carry,
// accounting for transactions already queued in the pool.
func (n *Node) NextNonce(a Address) uint64 {
	nonce := n.state.Nonce(a)
	for _, tx := range n.pending {
		if tx.From == a && tx.Nonce >= nonce {
			nonce = tx.Nonce + 1
		}
	}
	return nonce
}

// SubmitTx queues a transaction for inclusion in the next block.
func (n *Node) SubmitTx(tx *Transaction) error {
	if tx.GasLimit == 0 {
		return errors.New("chain: zero gas limit")
	}
	if tx.Nonce != n.NextNonce(tx.From) {
		return fmt.Errorf("chain: bad nonce %d for %s (want %d)", tx.Nonce, tx.From, n.NextNonce(tx.From))
	}
	n.pending = append(n.pending, tx)
	return nil
}

// PendingCount reports queued transactions.
func (n *Node) PendingCount() int { return len(n.pending) }

// expectedProposer returns the PoA proposer for a block number.
func (n *Node) expectedProposer(number uint64) Address {
	return n.validators[(number-1)%uint64(len(n.validators))]
}

// IsProposer reports whether this node proposes the next block.
func (n *Node) IsProposer() bool {
	return n.identity == n.expectedProposer(n.Height()+1)
}

// contractAddress derives a created contract's address.
func contractAddress(from Address, nonce uint64) Address {
	var u [8]byte
	for i := 0; i < 8; i++ {
		u[i] = byte(nonce >> (56 - 8*i))
	}
	h := HashBytes([]byte("create/"), from[:], u[:])
	var a Address
	copy(a[:], h[:20])
	return a
}

// applyTx executes one transaction, whose hash is txHash, against the
// state, returning its receipt. Failed transactions revert all their
// effects except the nonce bump; gas consumed is recorded on the receipt.
func (n *Node) applyTx(tx *Transaction, txHash Hash) *Receipt {
	receipt := &Receipt{TxHash: txHash}
	cp := n.state.Checkpoint()
	meter := NewMeter(tx.GasLimit)

	fail := func(err error) *Receipt {
		n.state.Revert(cp)
		n.state.BumpNonce(tx.From)
		receipt.Status = false
		receipt.Err = err.Error()
		receipt.GasUsed = meter.Used()
		return receipt
	}

	if err := meter.Use(IntrinsicGas(tx.Data, tx.IsCreate())); err != nil {
		return fail(err)
	}
	n.state.BumpNonce(tx.From)
	if err := n.state.Debit(tx.From, tx.Value); err != nil {
		return fail(err)
	}

	ctx := &CallCtx{Caller: tx.From, Value: tx.Value, state: n.state, meter: meter}
	var ret []byte
	if tx.IsCreate() {
		id, body, initData, err := splitCreationCode(tx.Data)
		if err != nil {
			return fail(err)
		}
		factory, ok := n.registry.factories[id]
		if !ok {
			return fail(fmt.Errorf("chain: unknown contract runtime %q", id))
		}
		if err := meter.Use(CreateDataGas * uint64(runtimeIDLen+8+len(body))); err != nil {
			return fail(err)
		}
		addr := contractAddress(tx.From, tx.Nonce)
		if n.state.Code(addr) != nil {
			return fail(fmt.Errorf("chain: address collision at %s", addr))
		}
		n.state.SetCode(addr, tx.Data[:runtimeIDLen+8+len(body)])
		n.state.Credit(addr, tx.Value)
		ctx.Self = addr
		if err := factory().Init(ctx, initData); err != nil {
			return fail(fmt.Errorf("constructor: %w", err))
		}
		receipt.ContractAddress = addr
	} else {
		n.state.Credit(tx.To, tx.Value)
		code := n.state.Code(tx.To)
		if code != nil {
			id, _, _, err := splitCreationCode(code)
			if err != nil {
				return fail(err)
			}
			factory, ok := n.registry.factories[id]
			if !ok {
				return fail(fmt.Errorf("chain: unknown contract runtime %q", id))
			}
			ctx.Self = tx.To
			ret, err = factory().Call(ctx, tx.Data)
			if err != nil {
				return fail(fmt.Errorf("execution reverted: %w", err))
			}
		}
	}

	receipt.Status = true
	receipt.GasUsed = meter.Used()
	receipt.ReturnData = ret
	receipt.Logs = ctx.logs
	return receipt
}

// SealBlock executes all pending transactions and seals them into a new
// block. Only the expected proposer may seal.
func (n *Node) SealBlock() (*Block, error) {
	number := n.Height() + 1
	if n.identity != n.expectedProposer(number) {
		return nil, fmt.Errorf("chain: node %s is not the proposer of block %d", n.identity, number)
	}
	txs := n.pending
	n.pending = nil

	hashes := txHashes(txs)
	receipts := make([]*Receipt, len(txs))
	gasUsed := uint64(0)
	for i, tx := range txs {
		receipts[i] = n.applyTx(tx, hashes[i])
		gasUsed += receipts[i].GasUsed
	}
	n.state.DiscardJournal()

	block := &Block{
		Header: Header{
			ParentHash:  n.Head().Hash(),
			Number:      number,
			Time:        n.now(),
			Proposer:    n.identity,
			TxRoot:      MerkleRoot(hashes),
			ReceiptRoot: ReceiptRoot(receipts),
			StateRoot:   n.state.Root(),
			GasUsed:     gasUsed,
		},
		Txs:      txs,
		Receipts: receipts,
	}
	n.commit(block)
	return block, nil
}

// ImportBlock validates a block proposed by a peer and, if valid,
// re-executes it and appends it to the chain. Validation covers the PoA
// proposer schedule, the hash link, both Merkle roots and the resulting
// state root.
func (n *Node) ImportBlock(b *Block) error {
	head := n.Head()
	if b.Header.Number != head.Header.Number+1 {
		return fmt.Errorf("chain: block %d does not extend height %d", b.Header.Number, head.Header.Number)
	}
	if b.Header.ParentHash != head.Hash() {
		return errors.New("chain: parent hash mismatch")
	}
	if b.Header.Proposer != n.expectedProposer(b.Header.Number) {
		return fmt.Errorf("chain: %s is not the scheduled proposer of block %d", b.Header.Proposer, b.Header.Number)
	}
	hashes := txHashes(b.Txs)
	if MerkleRoot(hashes) != b.Header.TxRoot {
		return errors.New("chain: transaction root mismatch")
	}

	cp := n.state.Checkpoint()
	receipts := make([]*Receipt, len(b.Txs))
	gasUsed := uint64(0)
	for i, tx := range b.Txs {
		receipts[i] = n.applyTx(tx, hashes[i])
		gasUsed += receipts[i].GasUsed
	}
	if ReceiptRoot(receipts) != b.Header.ReceiptRoot ||
		n.state.Root() != b.Header.StateRoot ||
		gasUsed != b.Header.GasUsed {
		n.state.Revert(cp)
		return errors.New("chain: execution outcome diverges from proposed block")
	}
	n.state.DiscardJournal()

	// Adopt the proposer's receipts (identical by the root check).
	local := &Block{Header: b.Header, Txs: b.Txs, Receipts: receipts}
	n.commit(local)
	// Drop pool entries that were just mined.
	mined := make(map[Hash]struct{}, len(hashes))
	for _, h := range hashes {
		mined[h] = struct{}{}
	}
	kept := n.pending[:0]
	for _, tx := range n.pending {
		if _, ok := mined[tx.Hash()]; !ok {
			kept = append(kept, tx)
		}
	}
	n.pending = kept
	return nil
}

func (n *Node) commit(b *Block) {
	n.blocks = append(n.blocks, b)
	for _, r := range b.Receipts {
		n.receipts[r.TxHash] = r
	}
}

// CallStatic executes a read-only contract call against the current state.
// All state changes are reverted; the return data and gas used are
// reported.
func (n *Node) CallStatic(from, to Address, input []byte, gasLimit uint64) ([]byte, uint64, error) {
	code := n.state.Code(to)
	if code == nil {
		return nil, 0, fmt.Errorf("chain: no contract at %s", to)
	}
	id, _, _, err := splitCreationCode(code)
	if err != nil {
		return nil, 0, err
	}
	factory, ok := n.registry.factories[id]
	if !ok {
		return nil, 0, fmt.Errorf("chain: unknown contract runtime %q", id)
	}
	cp := n.state.Checkpoint()
	defer n.state.Revert(cp)
	meter := NewMeter(gasLimit)
	ctx := &CallCtx{Self: to, Caller: from, state: n.state, meter: meter}
	ret, err := factory().Call(ctx, input)
	return ret, meter.Used(), err
}
