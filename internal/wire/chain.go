package wire

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/obs"
)

// Chain RPC methods.
const (
	MethodChainMine    = "chain.mine"
	MethodChainBalance = "chain.balance"
	MethodChainNonce   = "chain.nonce"
	MethodChainCall    = "chain.call"
	MethodChainHeight  = "chain.height"
)

// ReceiptMsg is the wire form of a receipt.
type ReceiptMsg struct {
	Found           bool          `json:"found"`
	Status          bool          `json:"status"`
	GasUsed         uint64        `json:"gasUsed"`
	ContractAddress chain.Address `json:"contractAddress"`
	ReturnData      []byte        `json:"returnData"`
	Err             string        `json:"err"`
}

// CallMsg is a static-call request.
type CallMsg struct {
	From     chain.Address `json:"from"`
	To       chain.Address `json:"to"`
	Input    []byte        `json:"input"`
	GasLimit uint64        `json:"gasLimit"`
}

// CallResult is a static-call response.
type CallResult struct {
	Return  []byte `json:"return"`
	GasUsed uint64 `json:"gasUsed"`
}

// ChainServer exposes one blockchain node over RPC. In a real deployment
// every validator runs one; clients may talk to any of them. For the
// in-process network behind a single server, MethodChainMine admits a
// transaction, seals the block that carries it on the scheduled proposer,
// propagates it to all nodes and answers with the transaction's receipt.
type ChainServer struct {
	mu      sync.Mutex
	network *chain.Network
	jour    *journal      // nil until EnableDurability
	aud     *audit.Ledger // nil until EnableAudit
	srv     *Server
	started time.Time

	// Chain-side settlement instrumentation (nil when not observed).
	submitDur *obs.Histogram // tx admission into the pool
	sealDur   *obs.Histogram // block sealing = tx execution incl. on-chain verification
	blocks    *obs.Counter
	txs       *obs.Counter
	gasUsed   *obs.Counter
	reverted  *obs.Counter
}

// NewChainServer wraps a network. A bounded trace store is attached by
// default so propagated traces are inspectable at /debug/traces.
func NewChainServer(network *chain.Network) *ChainServer {
	cs := &ChainServer{network: network, srv: NewServer(), started: time.Now()}
	cs.srv.SetTraceStore(obs.NewTraceStore())
	cs.srv.HandleTraced(MethodChainMine, cs.handleMine)
	cs.srv.Handle(MethodChainBalance, cs.handleBalance)
	cs.srv.Handle(MethodChainNonce, cs.handleNonce)
	cs.srv.Handle(MethodChainCall, cs.handleCall)
	cs.srv.Handle(MethodChainHeight, cs.handleHeight)
	return cs
}

// Traces exposes the server's trace store (for /debug/traces and tuning).
func (cs *ChainServer) Traces() *obs.TraceStore { return cs.srv.TraceStore() }

// SetObservability attaches a metrics registry and/or structured logger:
// the RPC layer gains per-method series (server="chain") and sealing
// exposes verification/settlement cost — per-block execution latency
// (which includes the contract's on-chain result verification), blocks and
// transactions sealed, gas burned and reverted transactions. Either
// argument may be nil.
func (cs *ChainServer) SetObservability(reg *obs.Registry, logger *slog.Logger) {
	cs.srv.SetLogger(logger)
	if reg == nil {
		return
	}
	cs.srv.SetMetrics(reg, "chain")
	reg.GaugeFunc("slicer_chain_uptime_seconds",
		"Seconds since the chain server started.",
		func() float64 { return time.Since(cs.started).Seconds() })
	// Windowed phase vector: cumulative buckets plus live quantile gauges.
	phases := reg.HistogramVecOpts("slicer_chain_phase_seconds",
		"Latency of one chain settlement phase, by phase.",
		[]string{"phase"}, obs.VecOpts{Window: &obs.WindowOptions{}})
	cs.mu.Lock()
	cs.submitDur = phases.WithLabelValues("submit")
	cs.sealDur = phases.WithLabelValues("seal")
	cs.blocks = reg.Counter("slicer_chain_blocks_total", "Blocks sealed.")
	cs.txs = reg.Counter("slicer_chain_txs_total", "Transactions executed in sealed blocks.")
	cs.gasUsed = reg.Counter("slicer_chain_gas_used_total",
		"Gas consumed by executed transactions (on-chain verification dominates).")
	cs.reverted = reg.Counter("slicer_chain_txs_reverted_total", "Transactions that reverted.")
	cs.mu.Unlock()
}

// EnableAudit journals every sealed block — receipts, reverted count, gas —
// into led as KindSeal records. The chain cannot see contract semantics
// (which receipts settle a search versus refund one: that attribution is the
// client's, who holds the request), so its ledger anchors the settlement
// history a client-side ledger's settle/refund records are checked against.
func (cs *ChainServer) EnableAudit(led *audit.Ledger) {
	cs.mu.Lock()
	cs.aud = led
	cs.mu.Unlock()
}

// Audit returns the attached audit ledger (nil when auditing is off).
func (cs *ChainServer) Audit() *audit.Ledger {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.aud
}

// Server exposes the underlying RPC server for transport-level tuning.
func (cs *ChainServer) Server() *Server { return cs.srv }

// Listen binds the server and returns its address.
func (cs *ChainServer) Listen(addr string) (string, error) { return cs.srv.Listen(addr) }

// Close shuts the server down, syncing and closing the journal if
// durability is enabled.
func (cs *ChainServer) Close() error {
	err := cs.srv.Close()
	cs.mu.Lock()
	jour := cs.jour
	cs.mu.Unlock()
	if jerr := jour.close(); err == nil {
		err = jerr
	}
	return err
}

// handleMine admits one transaction, seals the block that carries it and
// returns its receipt, all under one hold of cs.mu, so concurrent miners
// never seal each other's transactions or empty blocks. Admission and
// sealing record the chain.submit and chain.seal phases into the
// propagated trace (nil for context-free callers). A failed admission
// seals nothing.
func (cs *ChainServer) handleMine(params json.RawMessage, tr *obs.Trace) (any, error) {
	var tx chain.Transaction
	if err := json.Unmarshal(params, &tx); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	end := obs.StartPhase(cs.submitDur, tr, "chain.submit")
	if err := cs.network.SubmitTx(&tx); err != nil {
		return nil, err
	}
	end()
	if err := cs.stepLocked(tr); err != nil {
		return nil, err
	}
	r, ok := cs.network.Leader().Receipt(tx.Hash())
	if !ok {
		return nil, fmt.Errorf("wire: transaction %s missing from its sealed block", tx.Hash())
	}
	return &ReceiptMsg{
		Found:           true,
		Status:          r.Status,
		GasUsed:         r.GasUsed,
		ContractAddress: r.ContractAddress,
		ReturnData:      r.ReturnData,
		Err:             r.Err,
	}, nil
}

// stepLocked seals the next block and records the block-sealing phase —
// which includes the contract's on-chain result verification — into tr.
// The caller holds cs.mu.
func (cs *ChainServer) stepLocked(tr *obs.Trace) error {
	end := obs.StartPhase(cs.sealDur, tr, "chain.seal")
	block, err := cs.network.Step()
	if err != nil {
		return err
	}
	end()
	// Journal the sealed block before acknowledging the mine: a restart
	// replays it through full validation back to the same state and
	// receipt roots. On journal failure the block exists only in memory,
	// so the mine is reported failed and the journal is fail-stop from
	// here on.
	enc := func() ([]byte, error) { return chain.EncodeBlock(block) }
	if err := cs.jour.commit(enc, func() error { return nil }, cs.chainSnapshotStateLocked); err != nil {
		return fmt.Errorf("wire: block %d sealed but not journaled: %w", block.Header.Number, err)
	}
	cs.blocks.Inc()
	cs.txs.Add(uint64(len(block.Receipts)))
	reverted := 0
	for _, r := range block.Receipts {
		cs.gasUsed.Add(r.GasUsed)
		if !r.Status {
			cs.reverted.Inc()
			reverted++
		}
	}
	if cs.aud != nil && len(block.Receipts) > 0 {
		// Empty blocks are heartbeat noise; sealed transactions are the
		// settlement history worth anchoring.
		cs.aud.Log(audit.Event{
			Kind: audit.KindSeal,
			Detail: fmt.Sprintf("block %d: %d txs, %d reverted",
				block.Header.Number, len(block.Receipts), reverted),
		})
	}
	return nil
}

func (cs *ChainServer) handleBalance(params json.RawMessage) (any, error) {
	var a chain.Address
	if err := json.Unmarshal(params, &a); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.network.Leader().Balance(a), nil
}

func (cs *ChainServer) handleNonce(params json.RawMessage) (any, error) {
	var a chain.Address
	if err := json.Unmarshal(params, &a); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.network.Leader().NextNonce(a), nil
}

func (cs *ChainServer) handleCall(params json.RawMessage) (any, error) {
	var msg CallMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ret, gas, err := cs.network.Leader().CallStatic(msg.From, msg.To, msg.Input, msg.GasLimit)
	if err != nil {
		return nil, err
	}
	return &CallResult{Return: ret, GasUsed: gas}, nil
}

func (cs *ChainServer) handleHeight(json.RawMessage) (any, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.network.Leader().Height(), nil
}

// ChainClient is a typed client for a remote chain node.
type ChainClient struct {
	c *Client
}

// DialChain connects to a chain server with the default timeouts.
func DialChain(addr string) (*ChainClient, error) {
	return DialChainOpts(addr, ClientOptions{})
}

// DialChainOpts connects to a chain server with explicit transport options.
func DialChainOpts(addr string, opts ClientOptions) (*ChainClient, error) {
	c, err := DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &ChainClient{c: c}, nil
}

// Client exposes the underlying RPC client for transport tuning.
func (cc *ChainClient) Client() *Client { return cc.c }

// Mine submits a transaction, seals the block that carries it and returns
// the transaction's receipt, in one round trip.
func (cc *ChainClient) Mine(tx *chain.Transaction) (*ReceiptMsg, error) {
	return cc.MineTraced(tx, nil)
}

// MineTraced is Mine with the chain's submit and seal phases — and the wire
// time of the round trip — spliced into tr (party "chain"); a nil trace
// makes it exactly Mine.
func (cc *ChainClient) MineTraced(tx *chain.Transaction, tr *obs.Trace) (*ReceiptMsg, error) {
	var r ReceiptMsg
	if err := cc.c.CallTraced(MethodChainMine, tx, &r, tr, "chain"); err != nil {
		return nil, err
	}
	return &r, nil
}

// Balance reads an account balance.
func (cc *ChainClient) Balance(a chain.Address) (uint64, error) {
	var v uint64
	err := cc.c.Call(MethodChainBalance, a, &v)
	return v, err
}

// Nonce reads an account's next nonce.
func (cc *ChainClient) Nonce(a chain.Address) (uint64, error) {
	var v uint64
	err := cc.c.Call(MethodChainNonce, a, &v)
	return v, err
}

// CallStatic executes a read-only contract call.
func (cc *ChainClient) CallStatic(msg *CallMsg) (*CallResult, error) {
	var out CallResult
	if err := cc.c.Call(MethodChainCall, msg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Height reads the chain height.
func (cc *ChainClient) Height() (uint64, error) {
	var v uint64
	err := cc.c.Call(MethodChainHeight, nil, &v)
	return v, err
}

// Close closes the connection.
func (cc *ChainClient) Close() error { return cc.c.Close() }
