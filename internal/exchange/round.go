// Package exchange holds the fair-exchange round of Fig. 1 / Algorithm 5
// once: the user escrows the fee with the token digest, the cloud searches
// and submits (er, π), the contract settles or refunds. Every caller plugs in
// its Cloud and Ledger and keeps decryption (the twin must hold both halves
// first). benchmark/round.go is the one other copy: the measuring instrument.
package exchange

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"math/big"

	"slicer/internal/accumulator"
	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// Cloud is the searching party: *wire.ObservedCloud or *wire.CloudClient.
type Cloud interface {
	SearchTraced(req *core.SearchRequest, tr *obs.Trace) (*core.SearchResponse, error)
}

// Ledger is the chain as a round sees it: *wire.ChainClient or Local.
type Ledger interface {
	Nonce(a chain.Address) (uint64, error)
	MineTraced(tx *chain.Transaction, tr *obs.Trace) (*wire.ReceiptMsg, error)
}

// Local is the in-process Ledger over a chain.Network.
type Local struct{ Network *chain.Network }

// Nonce reads the leader's next nonce for a.
func (l Local) Nonce(a chain.Address) (uint64, error) {
	return l.Network.Leader().NextNonce(a), nil
}

// MineTraced submits tx to every node, seals the next block and returns the
// leader's receipt, under the span names a remote chain server reports, so
// in-process and distributed traces read alike.
func (l Local) MineTraced(tx *chain.Transaction, tr *obs.Trace) (*wire.ReceiptMsg, error) {
	endSubmit := tr.Span("chain.submit")
	if err := l.Network.SubmitTx(tx); err != nil {
		return nil, err
	}
	endSubmit()
	endSeal := tr.Span("chain.seal")
	if _, err := l.Network.Step(); err != nil {
		return nil, err
	}
	endSeal()
	r, ok := l.Network.Leader().Receipt(tx.Hash())
	if !ok {
		return nil, fmt.Errorf("exchange: receipt missing for %s", tx.Hash())
	}
	return &wire.ReceiptMsg{Found: true, Status: r.Status, GasUsed: r.GasUsed,
		ContractAddress: r.ContractAddress, ReturnData: r.ReturnData, Err: r.Err}, nil
}

// mine stamps tx with its sender's next nonce, mines it and requires a
// receipt that did not revert; what names the transaction in the error.
func mine(l Ledger, tx *chain.Transaction, tr *obs.Trace, what string) (*wire.ReceiptMsg, error) {
	nonce, err := l.Nonce(tx.From)
	if err != nil {
		return nil, fmt.Errorf("exchange: %s nonce: %w", what, err)
	}
	tx.Nonce = nonce
	rc, err := l.MineTraced(tx, tr)
	if err != nil {
		return nil, fmt.Errorf("exchange: mine %s: %w", what, err)
	}
	if !rc.Found {
		return nil, fmt.Errorf("exchange: receipt missing for %s", tx.Hash())
	}
	if !rc.Status {
		return nil, fmt.Errorf("exchange: %s reverted: %s", what, rc.Err)
	}
	return rc, nil
}

// PostAc refreshes the contract's accumulator digest with one SetAc
// transaction, returning its hash and receipt (Table II's "data insertion").
func PostAc(l Ledger, from, contractAddr chain.Address, ac *big.Int) (chain.Hash, *wire.ReceiptMsg, error) {
	tx := &chain.Transaction{From: from, To: contractAddr, GasLimit: 1_000_000, Data: contract.SetAcData(ac)}
	rc, err := mine(l, tx, nil, "SetAc")
	return tx.Hash(), rc, err
}

// Round is everything one round needs; zero Metrics and nil Audit are off.
type Round struct {
	Cloud  Cloud
	Ledger Ledger

	Contract  chain.Address // the deployed verification/escrow contract
	User      chain.Address // pays the escrow
	CloudAcct chain.Address // submits the results, is paid on success

	// AccPub and Ac are what the contract verifies against.
	AccPub *accumulator.PublicParams
	Ac     *big.Int

	// Audit journals search / settle / refund events stamped with Tenant;
	// Label prefixes each detail line (the twin names its half there).
	Audit  *audit.Ledger
	Tenant string
	Label  string

	// Tamper, when set, mutates the response before submission: the hook
	// that demonstrates the malicious-cloud refund path.
	Tamper func(*core.SearchResponse)

	Metrics Metrics
}

// Result reports one round; the caller decrypts Response only when Settled.
type Result struct {
	ReqID     chain.Hash
	Settled   bool
	GasUsed   uint64 // of the submission, i.e. of the on-chain verification
	Response  *core.SearchResponse
	VerifyErr error // why the response fails Algorithm 5; set exactly when refunded
}

// Run executes escrow → search → submit → settle-or-refund for req, with the
// "escrow", "cloud_search" and "settle" phases recorded into tr (nil is fine).
// A refund is a completed round with Settled false, not an error. A refund of
// a response that passes core.VerifyResponse, the check the contract runs, is
// an error: the chain endpoint lied or the verifiers diverged.
func (r *Round) Run(req *core.SearchRequest, fee uint64, tr *obs.Trace) (*Result, error) {
	r.Metrics.searches.Inc()
	th, err := contract.TokensHash(req.Tokens)
	if err != nil {
		return nil, err
	}
	var reqID chain.Hash
	if _, err := rand.Read(reqID[:]); err != nil {
		return nil, fmt.Errorf("exchange: sample request id: %w", err)
	}

	endEscrow := obs.StartPhase(r.Metrics.escrow, tr, "escrow")
	escrowTx := &chain.Transaction{From: r.User, To: r.Contract, Value: fee, GasLimit: 1_000_000,
		Data: contract.RequestData(reqID, r.CloudAcct, th)}
	if _, err := mine(r.Ledger, escrowTx, tr, "escrow request"); err != nil {
		return nil, err
	}
	endEscrow()
	r.log(audit.Event{Kind: audit.KindSearch,
		Detail: fmt.Sprintf("request %x…, %d tokens, %d escrowed", reqID[:8], len(req.Tokens), fee)})

	endSearch := obs.StartPhase(r.Metrics.search, tr, "cloud_search")
	resp, err := r.Cloud.SearchTraced(req, tr)
	if err != nil {
		return nil, fmt.Errorf("exchange: cloud search: %w", err)
	}
	endSearch()
	if r.Tamper != nil {
		r.Tamper(resp)
	}

	data, err := contract.SubmitData(reqID, r.AccPub.Marshal(), r.Ac, resp.Results)
	if err != nil {
		return nil, err
	}
	endSettle := obs.StartPhase(r.Metrics.settle, tr, "settle")
	subTx := &chain.Transaction{From: r.CloudAcct, To: r.Contract, GasLimit: 50_000_000, Data: data}
	rc, err := mine(r.Ledger, subTx, tr, "result submission")
	if err != nil {
		return nil, err
	}
	endSettle()
	r.Metrics.gas.Add(rc.GasUsed)

	res := &Result{ReqID: reqID, GasUsed: rc.GasUsed, Response: resp}
	if len(rc.ReturnData) == 1 && rc.ReturnData[0] == 1 {
		res.Settled = true
		r.Metrics.settled.Inc()
		r.log(audit.Event{Kind: audit.KindSettle,
			Detail: fmt.Sprintf("request %x… settled, gas %d", reqID[:8], rc.GasUsed)})
		return res, nil
	}
	r.Metrics.refunded.Inc()
	if res.VerifyErr = core.VerifyResponse(r.AccPub, r.Ac, req, resp); res.VerifyErr == nil {
		return nil, fmt.Errorf("exchange: request %x refunded by transaction %s, but its response verifies", reqID, subTx.Hash())
	}
	r.logRefund(res, subTx.Hash(), req, rc)
	return res, nil
}

func (r *Round) log(ev audit.Event) {
	ev.Tenant = r.Tenant
	ev.Detail = r.Label + ev.Detail
	r.Audit.Log(ev)
}

// logRefund journals a refund with its evidence bundle: the tokens judged
// against, the raw response as submitted, Ac and the public parameters (so the
// check is replayable from the bundle alone) and the receipt, attributed to
// the phase and token index verification failed at. Evidence is durable
// before Log returns.
func (r *Round) logRefund(res *Result, txHash chain.Hash, req *core.SearchRequest, rc *wire.ReceiptMsg) {
	if r.Audit == nil {
		return
	}
	ev := &audit.Evidence{
		Ac:         r.Ac.Bytes(),
		AccPub:     r.AccPub.Marshal(),
		TokenIndex: -1,
		RequestID:  res.ReqID[:],
		TxHash:     txHash[:],
		GasUsed:    rc.GasUsed,
		ReturnData: rc.ReturnData,
	}
	if b, err := json.Marshal(req); err == nil {
		ev.Tokens = b
	}
	if b, err := json.Marshal(res.Response); err == nil {
		ev.Response = b
	}
	if ve, ok := core.AsVerificationError(res.VerifyErr); ok {
		ev.Phase, ev.TokenIndex = ve.Phase, ve.TokenIndex
	}
	detail := fmt.Sprintf("request %x… refunded: %v", res.ReqID[:8], res.VerifyErr)
	r.log(audit.Event{Kind: audit.KindRefund, Outcome: audit.OutcomeFail, Detail: detail, Evidence: ev})
}

// Metrics are the fair-exchange instruments; the zero value is disabled.
type Metrics struct {
	searches, settled, refunded, gas *obs.Counter
	escrow, search, settle, decrypt  *obs.Histogram
}

// NewMetrics registers the slicer_fairexchange_* series in reg: per-phase
// latency, settlement outcomes and verification gas. A nil registry yields
// the disabled zero value.
func NewMetrics(reg *obs.Registry) Metrics {
	phase := func(name string) *obs.Histogram {
		return reg.Histogram(obs.Label("slicer_fairexchange_seconds", "phase", name),
			"Latency of one fair-exchange phase, by phase.")
	}
	return Metrics{
		searches: reg.Counter("slicer_fairexchange_searches_total", "Fair-exchange searches run."),
		settled:  reg.Counter("slicer_fairexchange_settled_total", "Searches whose payment settled to the cloud."),
		refunded: reg.Counter("slicer_fairexchange_refunded_total", "Searches refunded after failed on-chain verification."),
		gas:      reg.Counter("slicer_fairexchange_gas_total", "Gas consumed by result-submission transactions (on-chain verification)."),
		escrow:   phase("escrow"),
		search:   phase("cloud_search"),
		settle:   phase("settle"),
		decrypt:  phase("decrypt"),
	}
}

// StartDecrypt opens "decrypt", the one phase that runs in the caller.
func (m Metrics) StartDecrypt(tr *obs.Trace) func() {
	return obs.StartPhase(m.decrypt, tr, "decrypt")
}
