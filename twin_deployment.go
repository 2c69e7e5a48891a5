package slicer

import (
	"fmt"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/exchange"
	"slicer/internal/wire"
)

// TwinDeployment combines the deletion/update extension with the on-chain
// fair-exchange flow: one blockchain network hosts two Slicer contract
// instances (one per twin instance), each committing its own accumulator
// digest. A verified search escrows a fee per instance and both halves are
// verified on chain; the effective result is the set difference of the two
// settled halves.
type TwinDeployment struct {
	owner *core.TwinOwner
	user  *core.TwinUser
	cloud *core.TwinCloud

	network    *chain.Network
	addrs      [2]Address // contract addresses: [0]=insert instance, [1]=delete instance
	validators []Address

	OwnerAddr Address
	UserAddr  Address
	CloudAddr Address

	aud       *audit.Ledger
	audTenant string

	// tamper[i], when set, mutates instance i's response before submission
	// (the per-half refund path, exercised by the in-package tests).
	tamper [2]func(*SearchResponse)
}

// AttachAudit journals the twin deployment's per-half settle/refund events
// into led, stamped with tenant. A nil ledger detaches.
func (d *TwinDeployment) AttachAudit(led *audit.Ledger, tenant string) {
	d.aud = led
	d.audTenant = tenant
}

// TwinOutcome reports a twin fair-exchange search.
type TwinOutcome struct {
	IDs     []uint64 // nil unless both halves settled
	Settled bool
	GasUsed uint64 // total verification gas across both instances
}

// NewTwinDeployment boots the chain, deploys both contract instances and
// builds the twin scheme.
func NewTwinDeployment(cfg DeploymentConfig, db []Record) (*TwinDeployment, error) {
	owner, err := core.NewTwinOwner(cfg.Params)
	if err != nil {
		return nil, err
	}
	built, err := owner.Build(db)
	if err != nil {
		return nil, err
	}
	cloud, err := core.NewTwinCloud(
		owner.Add.CloudInit(built.Add.Index),
		owner.Del.CloudInit(built.Del.Index),
		core.WitnessCached,
	)
	if err != nil {
		return nil, err
	}
	user, err := core.NewTwinUser(owner.ClientState())
	if err != nil {
		return nil, err
	}

	d := &TwinDeployment{
		owner:     owner,
		user:      user,
		cloud:     cloud,
		OwnerAddr: chain.AddressFromString("twin-owner"),
		UserAddr:  chain.AddressFromString("twin-user"),
		CloudAddr: chain.AddressFromString("twin-cloud"),
	}
	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return nil, err
	}
	names := cfg.Validators
	if len(names) == 0 {
		names = []string{"validator-0", "validator-1", "validator-2"}
	}
	d.validators = make([]Address, len(names))
	for i, n := range names {
		d.validators[i] = chain.AddressFromString(n)
	}
	balance := cfg.InitialBalance
	if balance == 0 {
		balance = 1_000_000_000_000
	}
	d.network, err = chain.NewNetwork(registry, d.validators, map[Address]uint64{
		d.OwnerAddr: balance, d.UserAddr: balance, d.CloudAddr: balance,
	})
	if err != nil {
		return nil, err
	}

	for i, inst := range d.owners() {
		tx := contract.DeployTx(d.OwnerAddr, d.network.Leader().NextNonce(d.OwnerAddr),
			inst.AccumulatorPub().Marshal(), inst.Ac(), 10_000_000)
		r, err := d.ledger().MineTraced(tx, nil)
		if err != nil {
			return nil, err
		}
		if !r.Status {
			return nil, fmt.Errorf("slicer: twin contract %d deployment reverted: %s", i, r.Err)
		}
		d.addrs[i] = r.ContractAddress
	}
	return d, nil
}

func (d *TwinDeployment) owners() [2]*core.Owner {
	return [2]*core.Owner{d.owner.Add, d.owner.Del}
}

// Balance reads an account balance.
func (d *TwinDeployment) Balance(a Address) uint64 { return d.network.Leader().Balance(a) }

func (d *TwinDeployment) ledger() exchange.Local { return exchange.Local{Network: d.network} }

// refreshDigests posts both instances' current digests after a mutation.
func (d *TwinDeployment) refreshDigests() error {
	for i, inst := range d.owners() {
		if _, _, err := exchange.PostAc(d.ledger(), d.OwnerAddr, d.addrs[i], inst.Ac()); err != nil {
			return fmt.Errorf("slicer: twin instance %d: %w", i, err)
		}
	}
	return nil
}

func (d *TwinDeployment) applyAndRefresh(up *core.TwinUpdate) error {
	if err := d.cloud.ApplyUpdate(up); err != nil {
		return err
	}
	d.user.Add.UpdateStates(d.owner.Add.StatesSnapshot())
	d.user.Del.UpdateStates(d.owner.Del.StatesSnapshot())
	return d.refreshDigests()
}

// Insert adds new records and refreshes the on-chain digests.
func (d *TwinDeployment) Insert(records []Record) error {
	up, err := d.owner.Insert(records)
	if err != nil {
		return err
	}
	return d.applyAndRefresh(up)
}

// Delete removes records (with their exact original attribute values).
func (d *TwinDeployment) Delete(records []Record) error {
	up, err := d.owner.Delete(records)
	if err != nil {
		return err
	}
	return d.applyAndRefresh(up)
}

// Update replaces a record under a fresh ID.
func (d *TwinDeployment) Update(old, newRecord Record) error {
	up, err := d.owner.Update(old, newRecord)
	if err != nil {
		return err
	}
	return d.applyAndRefresh(up)
}

// VerifiedSearch runs the fair-exchange flow against both instances. The
// fee is escrowed per instance (half each, minimum 1); the outcome settles
// only if both halves verify. Fairness is per instance: a cloud that cheats
// on either half forfeits that half's fee.
func (d *TwinDeployment) VerifiedSearch(q Query, fee uint64) (*TwinOutcome, error) {
	if fee < 2 {
		return nil, fmt.Errorf("slicer: twin search fee must be at least 2")
	}
	req, err := d.user.Token(q)
	if err != nil {
		return nil, err
	}
	halves := [2]*core.SearchRequest{req.Add, req.Del}
	clouds := [2]exchange.Cloud{wire.ObserveCloud(d.cloud.Add, nil), wire.ObserveCloud(d.cloud.Del, nil)}
	var resps [2]*core.SearchResponse
	outcome := &TwinOutcome{Settled: true}

	// One round per instance; the delete instance may legitimately have no
	// matching slices.
	for i, inst := range d.owners() {
		instName := [2]string{"insert", "delete"}[i]
		round := exchange.Round{
			Cloud:     clouds[i],
			Ledger:    d.ledger(),
			Contract:  d.addrs[i],
			User:      d.UserAddr,
			CloudAcct: d.CloudAddr,
			AccPub:    inst.AccumulatorPub(),
			Ac:        inst.Ac(),
			Audit:     d.aud,
			Tenant:    d.audTenant,
			Label:     "twin " + instName + " half, ",
			Tamper:    d.tamper[i],
		}
		res, err := round.Run(halves[i], fee/2, nil)
		if err != nil {
			return nil, fmt.Errorf("slicer: twin %s half: %w", instName, err)
		}
		resps[i] = res.Response
		outcome.GasUsed += res.GasUsed
		outcome.Settled = outcome.Settled && res.Settled
	}
	if outcome.Settled {
		ids, err := d.user.Decrypt(&core.TwinResponse{Add: resps[0], Del: resps[1]})
		if err != nil {
			return nil, err
		}
		outcome.IDs = ids
	}
	return outcome, nil
}
