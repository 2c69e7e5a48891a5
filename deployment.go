package slicer

import (
	"errors"
	"fmt"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// Re-exported chain types used by the on-chain API.
type (
	// Address is a blockchain account address.
	Address = chain.Address
	// TxHash is a chain hash.
	TxHash = chain.Hash
	// Receipt records a mined transaction's outcome (incl. gas used).
	Receipt = chain.Receipt
)

// AddressFromString derives a deterministic demo account address.
var AddressFromString = chain.AddressFromString

// DeploymentConfig configures an on-chain deployment.
type DeploymentConfig struct {
	// Params are the scheme parameters.
	Params Params
	// Validators is the PoA validator set (names are fine; addresses are
	// derived). Defaults to three validators.
	Validators []string
	// InitialBalance pre-funds the owner, user and cloud accounts.
	// Defaults to 1e12.
	InitialBalance uint64
}

// SearchOutcome reports a fair-exchange search: the verified record IDs (nil
// when verification failed and the payment was refunded), whether the
// payment settled, and the gas the verification consumed.
type SearchOutcome struct {
	IDs       []uint64
	Settled   bool
	GasUsed   uint64
	RequestID TxHash
}

// Deployment is a full Slicer system: owner, user, cloud, a PoA blockchain
// network and the deployed verification/escrow contract.
type Deployment struct {
	owner *core.Owner
	user  *core.User
	cloud *wire.ObservedCloud

	network      *chain.Network
	contractAddr Address
	deployGas    uint64
	validators   []Address
	lastAcTx     TxHash // latest SetAc (or deployment) transaction

	// Demo accounts.
	OwnerAddr Address
	UserAddr  Address
	CloudAddr Address

	// tamper, when set, mutates cloud responses before submission —
	// used by examples and tests to demonstrate the refund path.
	tamper func(*SearchResponse)

	met exchange.Metrics

	// aud, when set, journals every fair-exchange event; on a refund the
	// full evidence bundle (tokens, raw response, accumulation value,
	// receipt) is captured atomically with the record.
	aud       *audit.Ledger
	audTenant string
}

// SetObservability attaches a metrics registry to the deployment: the
// fair-exchange flow records per-phase latency histograms (escrow mining,
// cloud search, on-chain settlement, decryption), settlement outcomes and
// verification gas; the in-process cloud records its own series into the
// same registry. A nil registry detaches. Observability never changes any
// protocol output.
func (d *Deployment) SetObservability(reg *obs.Registry) {
	d.cloud = wire.ObserveCloud(d.cloud.Cloud, reg)
	d.met = exchange.NewMetrics(reg)
}

// AttachAudit journals the deployment's fair-exchange events — searches
// issued, settlements, refunds with evidence, index updates — into led,
// stamped with tenant. A nil ledger detaches. Auditing never changes any
// protocol output: appends on the search path are best-effort, but a refund's
// evidence bundle is forced durable before the outcome returns.
func (d *Deployment) AttachAudit(led *audit.Ledger, tenant string) {
	d.aud = led
	d.audTenant = tenant
}

// Audit returns the attached audit ledger (nil when auditing is off).
func (d *Deployment) Audit() *audit.Ledger { return d.aud }

// NewDeployment builds the database, boots the blockchain network and
// deploys the contract.
func NewDeployment(cfg DeploymentConfig, db []Record) (*Deployment, error) {
	owner, err := core.NewOwner(cfg.Params)
	if err != nil {
		return nil, err
	}
	out, err := owner.Build(db)
	if err != nil {
		return nil, err
	}
	cloud, err := core.NewCloud(owner.CloudInit(out.Index), core.WitnessCached)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		return nil, err
	}

	d := &Deployment{
		owner:     owner,
		user:      user,
		cloud:     wire.ObserveCloud(cloud, nil),
		OwnerAddr: chain.AddressFromString("slicer-owner"),
		UserAddr:  chain.AddressFromString("slicer-user"),
		CloudAddr: chain.AddressFromString("slicer-cloud"),
	}

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return nil, err
	}
	names := cfg.Validators
	if len(names) == 0 {
		names = []string{"validator-0", "validator-1", "validator-2"}
	}
	validators := make([]Address, len(names))
	for i, n := range names {
		validators[i] = chain.AddressFromString(n)
	}
	d.validators = validators
	balance := cfg.InitialBalance
	if balance == 0 {
		balance = 1_000_000_000_000
	}
	d.network, err = chain.NewNetwork(registry, validators, map[Address]uint64{
		d.OwnerAddr: balance,
		d.UserAddr:  balance,
		d.CloudAddr: balance,
	})
	if err != nil {
		return nil, err
	}

	deployTx := contract.DeployTx(d.OwnerAddr, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 10_000_000)
	r, err := d.ledger().MineTraced(deployTx, nil)
	if err != nil {
		return nil, err
	}
	if !r.Status {
		return nil, fmt.Errorf("slicer: contract deployment reverted: %s", r.Err)
	}
	d.contractAddr = r.ContractAddress
	d.deployGas = r.GasUsed
	return d, nil
}

// Owner / User / Cloud / ContractAddress expose deployment internals.
func (d *Deployment) Owner() *core.Owner       { return d.owner }
func (d *Deployment) User() *core.User         { return d.user }
func (d *Deployment) Cloud() *core.Cloud       { return d.cloud.Cloud }
func (d *Deployment) ContractAddress() Address { return d.contractAddr }
func (d *Deployment) Network() *chain.Network  { return d.network }
func (d *Deployment) Balance(a Address) uint64 { return d.network.Leader().Balance(a) }
func (d *Deployment) BlockHeight() uint64      { return d.network.Leader().Height() }

// DeployGas reports the gas the contract deployment consumed (Table II row 1).
func (d *Deployment) DeployGas() uint64 { return d.deployGas }

// ledger is the in-process chain as the fair-exchange round drives it.
func (d *Deployment) ledger() exchange.Local { return exchange.Local{Network: d.network} }

// Insert adds records and refreshes the on-chain Ac digest, returning the
// receipt of the SetAc transaction (its gas is Table II's "data insertion").
func (d *Deployment) Insert(records []Record) (*Receipt, error) {
	out, err := d.owner.Insert(records)
	if err != nil {
		return nil, err
	}
	if err := d.cloud.ApplyUpdate(out); err != nil {
		return nil, err
	}
	d.user.UpdateStates(d.owner.StatesSnapshot())
	txh, rc, err := exchange.PostAc(d.ledger(), d.OwnerAddr, d.contractAddr, d.owner.Ac())
	if err != nil {
		return nil, err
	}
	d.lastAcTx = txh
	d.aud.Log(audit.Event{
		Kind:   audit.KindUpdate,
		Tenant: d.audTenant,
		Detail: fmt.Sprintf("+%d records, SetAc tx %x… gas %d", len(records), txh[:8], rc.GasUsed),
	})
	r, _ := d.network.Leader().Receipt(txh) // PostAc mined it: the leader holds it, logs included
	return r, nil
}

// AcUpdateCount reads the contract's monotone AcUpdated counter. A data
// user records the count it last synchronized its trapdoor states against;
// a larger on-chain value means newer data exists and T must be refreshed —
// the user-side half of the freshness story (no owner participation
// needed).
func (d *Deployment) AcUpdateCount() (uint64, error) {
	ret, _, err := d.network.Leader().CallStatic(d.UserAddr, d.contractAddr,
		[]byte{contract.MethodGetAcDigest}, 1_000_000)
	if err != nil {
		return 0, fmt.Errorf("slicer: read Ac update count: %w", err)
	}
	if len(ret) != 40 {
		return 0, fmt.Errorf("slicer: malformed GetAcDigest return (%d bytes)", len(ret))
	}
	var count uint64
	for _, b := range ret[32:] {
		count = count<<8 | uint64(b)
	}
	return count, nil
}

// VerifyFreshness establishes data freshness the way a mutually distrusting
// data user would: it follows the header chain as a light client (verifying
// hash links and the PoA proposer schedule), checks the Merkle inclusion
// proof of the latest AcUpdated event, and compares the event's digest to
// the digest of the owner's current Ac. A nil return means the chain
// provably carries the newest accumulation value. Before any Insert the
// digest committed at deployment is checked via contract state instead.
func (d *Deployment) VerifyFreshness() error {
	node := d.network.Leader()
	wantDigest := chain.HashBytes(d.owner.Ac().Bytes())

	if d.lastAcTx == (TxHash{}) {
		// No SetAc yet: the digest lives in the constructor-initialized
		// storage; read it through a static call.
		ret, _, err := node.CallStatic(d.UserAddr, d.contractAddr,
			[]byte{contract.MethodGetAcDigest}, 1_000_000)
		if err != nil {
			return fmt.Errorf("slicer: read Ac digest: %w", err)
		}
		if len(ret) < 32 || chain.Hash(ret[:32]) != wantDigest {
			return fmt.Errorf("slicer: on-chain Ac digest is stale")
		}
		return nil
	}

	lc, err := chain.NewLightClient(node.BlockByNumber(0).Header, d.validators)
	if err != nil {
		return err
	}
	if err := lc.Sync(node); err != nil {
		return fmt.Errorf("slicer: light sync: %w", err)
	}
	proof, err := node.ProveReceiptByTx(d.lastAcTx)
	if err != nil {
		return fmt.Errorf("slicer: prove AcUpdated receipt: %w", err)
	}
	if err := lc.VerifyReceipt(proof); err != nil {
		return fmt.Errorf("slicer: receipt proof: %w", err)
	}
	log, ok := chain.FindLog(proof.Receipt, contract.TopicAcUpdated)
	if !ok {
		return fmt.Errorf("slicer: verified receipt lacks an AcUpdated event")
	}
	if len(log.Data) != 32 || chain.Hash(log.Data) != wantDigest {
		return fmt.Errorf("slicer: on-chain Ac digest is stale")
	}
	return nil
}

// SetCloudTamper installs (or clears, with nil) a response mutation applied
// before the cloud submits results — a hook for demonstrating the
// malicious-cloud refund path.
func (d *Deployment) SetCloudTamper(f func(*SearchResponse)) { d.tamper = f }

// VerifiedSearch runs the full fair-exchange flow of Fig. 1: the user
// escrows payment with the token list on chain, the cloud searches and
// submits results with proofs, the contract verifies and settles or
// refunds, and the user decrypts accepted results.
func (d *Deployment) VerifiedSearch(q Query, payment uint64) (*SearchOutcome, error) {
	req, err := d.user.Token(q)
	if err != nil {
		return nil, err
	}
	return d.runRound(req, payment, nil)
}

// VerifiedSearchTraced runs VerifiedSearch while recording a per-request
// span trace of every fair-exchange phase — token generation, escrow
// mining, the cloud's collect/witness work, on-chain settlement (the
// "chain.seal" span is the block execution that includes the contract's
// verification) and decryption. The trace is returned even when the search
// fails, so partial latency is still attributable.
func (d *Deployment) VerifiedSearchTraced(q Query, payment uint64) (*SearchOutcome, *SearchTrace, error) {
	tr := obs.NewTrace("fair-exchange search")
	endToken := tr.Span("token")
	req, err := d.user.Token(q)
	if err != nil {
		return nil, tr, err
	}
	endToken()
	out, err := d.runRound(req, payment, tr)
	return out, tr, err
}

// VerifiedRangeSearch runs the fair-exchange flow for an inclusive range
// via the prefix-cover index (requires Params.PrefixIndex): the whole range
// settles as one escrowed request.
func (d *Deployment) VerifiedRangeSearch(attr string, lo, hi uint64, payment uint64) (*SearchOutcome, error) {
	req, err := d.user.RangeTokens(attr, lo, hi)
	if err != nil {
		return nil, err
	}
	return d.runRound(req, payment, nil)
}

// runRound runs the one fair-exchange round (internal/exchange) over the
// deployment's in-process cloud and chain, then decrypts a settled response.
func (d *Deployment) runRound(req *SearchRequest, payment uint64, tr *obs.Trace) (*SearchOutcome, error) {
	round := exchange.Round{
		Cloud:     d.cloud,
		Ledger:    d.ledger(),
		Contract:  d.contractAddr,
		User:      d.UserAddr,
		CloudAcct: d.CloudAddr,
		AccPub:    d.owner.AccumulatorPub(),
		Ac:        d.owner.Ac(),
		Audit:     d.aud,
		Tenant:    d.audTenant,
		Tamper:    d.tamper,
		Metrics:   d.met,
	}
	res, err := round.Run(req, payment, tr)
	if err != nil {
		return nil, err
	}
	outcome := &SearchOutcome{RequestID: res.ReqID, Settled: res.Settled, GasUsed: res.GasUsed}
	if res.Settled {
		endDecrypt := d.met.StartDecrypt(tr)
		if outcome.IDs, err = d.user.Decrypt(res.Response); err != nil {
			return nil, err
		}
		endDecrypt()
	}
	return outcome, nil
}

// ProbeFunc returns an audit.ProbeFunc running one synthetic fair-exchange
// search for q — the continuous-verification canary. A refund is a probe
// failure (the refund's evidence bundle is journaled by the search itself,
// so the probe record carries only the verdict).
func (d *Deployment) ProbeFunc(q Query, payment uint64) audit.ProbeFunc {
	return func() (string, *audit.Evidence, error) {
		out, err := d.VerifiedSearch(q, payment)
		if err != nil {
			return "", nil, err
		}
		detail := fmt.Sprintf("%d ids, gas %d", len(out.IDs), out.GasUsed)
		if !out.Settled {
			return detail, nil, errors.New("on-chain verification failed: payment refunded")
		}
		return detail, nil, nil
	}
}

// RunProber starts a background prober issuing the synthetic search q every
// opts.Interval, journaling each outcome into the attached audit ledger.
// The returned stop function halts it.
func (d *Deployment) RunProber(q Query, payment uint64, opts audit.ProberOptions) (stop func()) {
	if opts.Tenant == "" {
		opts.Tenant = d.audTenant
	}
	return audit.NewProber(d.aud, d.ProbeFunc(q, payment), opts).Run()
}
