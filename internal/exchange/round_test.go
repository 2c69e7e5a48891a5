package exchange

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/store"
	"slicer/internal/wire"
)

// fixture is one small built database with its in-process cloud and an
// authorized user — enough to produce real, verifiable responses.
type fixture struct {
	owner *core.Owner
	index *store.Index
	user  *core.User
	cloud *core.Cloud
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 256, AccumulatorBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]core.Record{
		core.NewRecord(1, 10), core.NewRecord(2, 200), core.NewRecord(3, 30), core.NewRecord(4, 55),
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{owner: owner, index: built.Index, user: user, cloud: cloud}
}

// dropOneResult hides one matching record: what a cheating cloud does.
func dropOneResult(resp *core.SearchResponse) {
	for i := range resp.Results {
		if n := len(resp.Results[i].ER); n > 0 {
			resp.Results[i].ER = resp.Results[i].ER[:n-1]
			return
		}
	}
}

// mined is one scripted MineTraced outcome.
type mined struct {
	rc  *wire.ReceiptMsg
	err error
}

func receipt(status bool, gas uint64, ret ...byte) mined {
	return mined{rc: &wire.ReceiptMsg{Found: true, Status: status, GasUsed: gas, ReturnData: ret, Err: "scripted revert"}}
}

// fakeLedger replays a script: the i-th MineTraced call gets script[i], the
// nonceErrAt-th Nonce call (0-based; -1 never) fails. It records what it saw.
type fakeLedger struct {
	script     []mined
	nonceErrAt int
	nonces     int
	txs        []*chain.Transaction
}

var errScripted = errors.New("scripted failure")

func (l *fakeLedger) Nonce(chain.Address) (uint64, error) {
	l.nonces++
	if l.nonces-1 == l.nonceErrAt {
		return 0, errScripted
	}
	return uint64(40 + l.nonces), nil
}

func (l *fakeLedger) MineTraced(tx *chain.Transaction, _ *obs.Trace) (*wire.ReceiptMsg, error) {
	l.txs = append(l.txs, tx)
	if len(l.txs) > len(l.script) {
		return nil, fmt.Errorf("fakeLedger: unscripted transaction %d", len(l.txs))
	}
	m := l.script[len(l.txs)-1]
	return m.rc, m.err
}

// fakeCloud answers from the real cloud unless told to fail, counting calls.
type fakeCloud struct {
	real  *core.Cloud
	err   error
	calls int
}

func (c *fakeCloud) SearchTraced(req *core.SearchRequest, tr *obs.Trace) (*core.SearchResponse, error) {
	c.calls++
	if c.err != nil {
		return nil, c.err
	}
	return c.real.SearchTraced(req, tr)
}

func TestRoundTable(t *testing.T) {
	fx := newFixture(t)
	settle, refund := receipt(true, 777, 1), receipt(true, 555, 0)
	escrowed := receipt(true, 21)
	cases := []struct {
		name       string
		script     []mined
		nonceErrAt int
		cloudErr   error
		tamper     func(*core.SearchResponse)
		noAudit    bool

		wantErr     string // substring; "" means the round completes
		wantSettled bool
		wantGas     uint64
		wantVerify  bool // VerifyErr set
		wantKinds   []string
		wantTxs     int
		wantSearch  int
		wantMetrics map[string]float64
	}{
		{
			name: "settle", script: []mined{escrowed, settle}, nonceErrAt: -1,
			wantSettled: true, wantGas: 777, wantTxs: 2, wantSearch: 1,
			wantKinds: []string{audit.KindSearch, audit.KindSettle},
			wantMetrics: map[string]float64{
				"slicer_fairexchange_searches_total":                      1,
				"slicer_fairexchange_settled_total":                       1,
				"slicer_fairexchange_refunded_total":                      0,
				"slicer_fairexchange_gas_total":                           777,
				`slicer_fairexchange_seconds{phase="escrow"}/count`:       1,
				`slicer_fairexchange_seconds{phase="cloud_search"}/count`: 1,
				`slicer_fairexchange_seconds{phase="settle"}/count`:       1,
				`slicer_fairexchange_seconds{phase="decrypt"}/count`:      0,
			},
		},
		{
			name: "tampered response is refunded with evidence", script: []mined{escrowed, refund}, nonceErrAt: -1,
			tamper: dropOneResult, wantGas: 555, wantVerify: true, wantTxs: 2, wantSearch: 1,
			wantKinds: []string{audit.KindSearch, audit.KindRefund},
			wantMetrics: map[string]float64{
				"slicer_fairexchange_searches_total": 1,
				"slicer_fairexchange_settled_total":  0,
				"slicer_fairexchange_refunded_total": 1,
				"slicer_fairexchange_gas_total":      555,
			},
		},
		{
			// The user runs the contract's Algorithm 5: a refund it cannot
			// explain means the chain endpoint lied or the verifiers diverged.
			name: "refund of a response that verifies locally", script: []mined{escrowed, refund}, nonceErrAt: -1,
			wantErr: "refunded by transaction ", wantTxs: 2, wantSearch: 1,
			wantKinds: []string{audit.KindSearch},
		},
		{
			name: "settle without an audit ledger", script: []mined{escrowed, settle}, nonceErrAt: -1, noAudit: true,
			wantSettled: true, wantGas: 777, wantTxs: 2, wantSearch: 1,
		},
		{
			name: "refund without an audit ledger", script: []mined{escrowed, refund}, nonceErrAt: -1, noAudit: true,
			tamper: dropOneResult, wantGas: 555, wantVerify: true, wantTxs: 2, wantSearch: 1,
		},
		{
			name: "escrow reverts", script: []mined{receipt(false, 21)}, nonceErrAt: -1,
			wantErr: "escrow request reverted: scripted revert", wantTxs: 1,
			wantMetrics: map[string]float64{
				"slicer_fairexchange_searches_total": 1,
				"slicer_fairexchange_settled_total":  0,
				"slicer_fairexchange_refunded_total": 0,
				"slicer_fairexchange_gas_total":      0,
			},
		},
		{
			name: "escrow receipt missing", script: []mined{{rc: &wire.ReceiptMsg{}}}, nonceErrAt: -1,
			wantErr: "receipt missing for ", wantTxs: 1,
		},
		{
			name: "escrow mining fails", script: []mined{{err: errScripted}}, nonceErrAt: -1,
			wantErr: "mine escrow request: scripted failure", wantTxs: 1,
		},
		{
			name: "user nonce fails", nonceErrAt: 0,
			wantErr: "escrow request nonce: scripted failure",
		},
		{
			name: "search fails", script: []mined{escrowed}, nonceErrAt: -1, cloudErr: errScripted,
			wantErr: "cloud search: scripted failure", wantTxs: 1, wantSearch: 1,
			wantKinds: []string{audit.KindSearch},
		},
		{
			name: "cloud nonce fails", script: []mined{escrowed}, nonceErrAt: 1,
			wantErr: "result submission nonce: scripted failure", wantTxs: 1, wantSearch: 1,
			wantKinds: []string{audit.KindSearch},
		},
		{
			name: "submit reverts", script: []mined{escrowed, receipt(false, 9)}, nonceErrAt: -1,
			wantErr: "result submission reverted: scripted revert", wantTxs: 2, wantSearch: 1,
			wantKinds: []string{audit.KindSearch},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := fx.user.Token(core.Less(100))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			var led *audit.Ledger
			if !tc.noAudit {
				if led, err = audit.Open(audit.Options{FS: durable.NewMemFS(), Dir: "audit"}); err != nil {
					t.Fatal(err)
				}
				defer led.Close()
			}
			ledger := &fakeLedger{script: tc.script, nonceErrAt: tc.nonceErrAt}
			cloud := &fakeCloud{real: fx.cloud, err: tc.cloudErr}
			round := &Round{
				Cloud: cloud, Ledger: ledger,
				Contract:  chain.AddressFromString("contract"),
				User:      chain.AddressFromString("user"),
				CloudAcct: chain.AddressFromString("cloud"),
				AccPub:    fx.owner.AccumulatorPub(), Ac: fx.owner.Ac(),
				Audit: led, Tenant: "acme", Label: "half, ",
				Tamper: tc.tamper, Metrics: NewMetrics(reg),
			}
			const fee = 1000
			res, err := round.Run(req, fee, nil)

			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
				}
				if res != nil {
					t.Fatalf("failed round returned a result: %+v", res)
				}
			} else {
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if res.Settled != tc.wantSettled || res.GasUsed != tc.wantGas || (res.VerifyErr != nil) != tc.wantVerify {
					t.Fatalf("result = settled %v gas %d verifyErr %v, want %v %d %v",
						res.Settled, res.GasUsed, res.VerifyErr, tc.wantSettled, tc.wantGas, tc.wantVerify)
				}
				if res.ReqID == (chain.Hash{}) || res.Response == nil {
					t.Fatalf("result lacks request id or response: %+v", res)
				}
				// A settled response decrypts to the truth; a refunded one
				// is only ever handed back raw — Result has no IDs to report.
				if res.Settled {
					ids, err := fx.user.Decrypt(res.Response)
					if err != nil || fmt.Sprint(ids) != "[1 3 4]" {
						t.Fatalf("settled response decrypts to %v, %v", ids, err)
					}
				}
			}

			if len(ledger.txs) != tc.wantTxs || cloud.calls != tc.wantSearch {
				t.Fatalf("mined %d txs and searched %d times, want %d and %d",
					len(ledger.txs), cloud.calls, tc.wantTxs, tc.wantSearch)
			}
			if tc.wantTxs > 0 {
				escrow := ledger.txs[0]
				if escrow.From != round.User || escrow.To != round.Contract || escrow.Value != fee || escrow.Nonce != 41 {
					t.Errorf("escrow tx = %+v", escrow)
				}
			}
			if tc.wantTxs > 1 {
				submit := ledger.txs[1]
				if submit.From != round.CloudAcct || submit.To != round.Contract || submit.Value != 0 || submit.Nonce != 42 {
					t.Errorf("submit tx = %+v", submit)
				}
			}

			snap := reg.Snapshot()
			for series, want := range tc.wantMetrics {
				if got, ok := snap[series]; !ok || got != want {
					t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
				}
			}

			if tc.noAudit {
				return
			}
			if err := led.Sync(); err != nil {
				t.Fatal(err)
			}
			records := led.Recent(0) // newest first
			var kinds []string
			for i := len(records) - 1; i >= 0; i-- {
				rec := records[i]
				kinds = append(kinds, rec.Kind)
				if rec.Tenant != "acme" || !strings.HasPrefix(rec.Detail, "half, request ") {
					t.Errorf("record %s: tenant %q detail %q", rec.Kind, rec.Tenant, rec.Detail)
				}
				if (rec.Evidence != nil) != (rec.Kind == audit.KindRefund) {
					t.Errorf("record %s: evidence present = %v", rec.Kind, rec.Evidence != nil)
				}
			}
			if fmt.Sprint(kinds) != fmt.Sprint(tc.wantKinds) {
				t.Fatalf("audit kinds = %v, want %v", kinds, tc.wantKinds)
			}
			if n := len(kinds); n > 0 && kinds[n-1] == audit.KindRefund {
				checkEvidence(t, records[0], round, res, req, ledger.txs[1])
			}
		})
	}
}

// checkEvidence requires every field of a refund's bundle to be what the
// round held when the contract rejected the submission.
func checkEvidence(t *testing.T, rec *audit.Record, round *Round, res *Result, req *core.SearchRequest, submit *chain.Transaction) {
	t.Helper()
	ev := rec.Evidence
	if rec.Outcome != audit.OutcomeFail {
		t.Errorf("refund outcome = %q", rec.Outcome)
	}
	wantTokens, _ := json.Marshal(req)
	wantResp, _ := json.Marshal(res.Response)
	txh := submit.Hash()
	if !bytes.Equal(ev.Tokens, wantTokens) || !bytes.Equal(ev.Response, wantResp) {
		t.Error("evidence does not hold the request and the response as submitted")
	}
	if !bytes.Equal(ev.Ac, round.Ac.Bytes()) || !bytes.Equal(ev.AccPub, round.AccPub.Marshal()) {
		t.Error("evidence does not hold Ac and the accumulator's public parameters")
	}
	if !bytes.Equal(ev.RequestID, res.ReqID[:]) || !bytes.Equal(ev.TxHash, txh[:]) {
		t.Errorf("evidence request id %x / tx hash %x, want %x / %x", ev.RequestID, ev.TxHash, res.ReqID, txh)
	}
	if ev.GasUsed != res.GasUsed || !bytes.Equal(ev.ReturnData, []byte{0}) {
		t.Errorf("evidence gas %d return %v", ev.GasUsed, ev.ReturnData)
	}
	ve, ok := core.AsVerificationError(res.VerifyErr)
	if !ok || ev.Phase != ve.Phase || ev.TokenIndex != ve.TokenIndex || ev.Phase == "" || ev.TokenIndex < 0 {
		t.Errorf("evidence phase %q token %d, verification error %v", ev.Phase, ev.TokenIndex, res.VerifyErr)
	}
	if !strings.HasSuffix(rec.Detail, "refunded: "+res.VerifyErr.Error()) {
		t.Errorf("refund detail %q does not carry the verification error", rec.Detail)
	}
}

// TestRoundSameInProcessAndOverTheWire runs one database and one query
// through the two pairs of parties product code plugs in — (Local,
// *core.Cloud) and (*wire.ChainClient, *wire.CloudClient) against in-test
// servers — and requires the same verdict, gas, response bytes and phases.
func TestRoundSameInProcessAndOverTheWire(t *testing.T) {
	fx := newFixture(t)
	req, err := fx.user.Token(core.Less(100))
	if err != nil {
		t.Fatal(err)
	}
	ownerAcct := chain.AddressFromString("owner")
	userAcct := chain.AddressFromString("user")
	cloudAcct := chain.AddressFromString("cloud")
	newNetwork := func() *chain.Network {
		registry := chain.NewRegistry()
		if err := contract.Register(registry); err != nil {
			t.Fatal(err)
		}
		network, err := chain.NewNetwork(registry, []chain.Address{chain.AddressFromString("v0")},
			map[chain.Address]uint64{ownerAcct: 1 << 30, userAcct: 1 << 30, cloudAcct: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return network
	}
	// run deploys the contract through ledger and runs one traced round.
	run := func(cloud Cloud, ledger Ledger) (*Result, map[string]bool) {
		rc, err := ledger.MineTraced(contract.DeployTx(ownerAcct, 0, fx.owner.AccumulatorPub().Marshal(), fx.owner.Ac(), 50_000_000), nil)
		if err != nil || !rc.Status {
			t.Fatalf("deploy: %v %+v", err, rc)
		}
		round := &Round{
			Cloud: cloud, Ledger: ledger,
			Contract: rc.ContractAddress, User: userAcct, CloudAcct: cloudAcct,
			AccPub: fx.owner.AccumulatorPub(), Ac: fx.owner.Ac(),
		}
		tr := obs.NewTrace("equivalence")
		res, err := round.Run(req, 1000, tr)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		phases := make(map[string]bool)
		for _, sp := range tr.Spans() {
			// rpc:/wire:/handle: spans are the transport's, derived per RPC.
			if !strings.Contains(sp.Phase, ":") {
				phases[sp.Phase] = true
			}
		}
		return res, phases
	}

	local, localPhases := run(wire.ObserveCloud(fx.cloud, nil), Local{Network: newNetwork()})

	cloudSrv := wire.NewCloudServer()
	cloudAddr, err := cloudSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudSrv.Close()
	cloudCli, err := wire.DialCloud(cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cloudCli.Close()
	if err := cloudCli.Init(fx.owner.CloudInit(fx.index), true); err != nil {
		t.Fatalf("cloud init: %v", err)
	}
	chainSrv := wire.NewChainServer(newNetwork())
	chainAddr, err := chainSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer chainSrv.Close()
	chainCli, err := wire.DialChain(chainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer chainCli.Close()

	remote, remotePhases := run(cloudCli, chainCli)

	if !local.Settled || !remote.Settled {
		t.Fatalf("settled: in-process %v, wire %v; want both", local.Settled, remote.Settled)
	}
	// The request id is sampled per round and calldata is priced by byte
	// value, so the id's own intrinsic gas is taken out before comparing.
	gas := func(r *Result) uint64 { return r.GasUsed - chain.IntrinsicGas(r.ReqID[:], false) }
	if gas(local) != gas(remote) {
		t.Errorf("verification gas: in-process %d, wire %d", gas(local), gas(remote))
	}
	localBytes, _ := json.Marshal(local.Response)
	remoteBytes, _ := json.Marshal(remote.Response)
	if !bytes.Equal(localBytes, remoteBytes) {
		t.Error("response bytes differ between the in-process and the wire cloud")
	}
	want := "map[chain.seal:true chain.submit:true cloud.collect:true cloud.witness:true cloud_search:true escrow:true settle:true]"
	if fmt.Sprint(localPhases) != want || fmt.Sprint(remotePhases) != want {
		t.Errorf("phases:\n in-process %v\n wire       %v\n want       %s", localPhases, remotePhases, want)
	}
}
