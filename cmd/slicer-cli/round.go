package main

import (
	"log/slog"

	"slicer/internal/audit"
	"slicer/internal/core"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// fairExchangeEnv is what `search` and the continuous `probe` share: the one
// fair-exchange round (internal/exchange) over the dialed cloud and chain,
// journaling into the optional client-side ledger, and the user who decrypts.
type fairExchangeEnv struct {
	round  exchange.Round
	user   *core.User
	logger *slog.Logger
}

func newFairExchangeEnv(st *cliState, owner *core.Owner, user *core.User, cloud *wire.CloudClient,
	chainCli *wire.ChainClient, logger *slog.Logger, led *audit.Ledger, tenant string) *fairExchangeEnv {
	return &fairExchangeEnv{user: user, logger: logger, round: exchange.Round{
		Cloud:     cloud,
		Ledger:    chainCli,
		Contract:  st.ContractAddr,
		User:      st.UserAcct,
		CloudAcct: st.CloudAcct,
		AccPub:    owner.AccumulatorPub(),
		Ac:        owner.Ac(),
		Audit:     led, // nil: no client-side journaling
		Tenant:    tenant,
	}}
}

// run executes one round — search/settle/refund events, and on a refund the
// full evidence bundle, land in the ledger — and decrypts a settled response.
func (env *fairExchangeEnv) run(req *core.SearchRequest, pay uint64, tr *obs.Trace) (*exchange.Result, []uint64, error) {
	res, err := env.round.Run(req, pay, tr)
	if err != nil {
		return nil, nil, err
	}
	env.logger.Debug("round finished", "fee", pay, "tokens", len(res.Response.Results),
		"settled", res.Settled, "gas", res.GasUsed)
	if !res.Settled {
		return res, nil, nil
	}
	endDecrypt := tr.Span("decrypt")
	ids, err := env.user.Decrypt(res.Response)
	if err != nil {
		return nil, nil, err
	}
	endDecrypt()
	return res, ids, nil
}
