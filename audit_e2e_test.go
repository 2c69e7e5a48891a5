package slicer

import (
	"bytes"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// tamperProxy sits between the user and the real cloud server at the wire
// level: it forwards request frames untouched and mutates the first
// cloud.search response that passes through — dropping one encrypted result
// from a token's posting, exactly what a cloud hiding a matching record
// looks like on the network. Every later frame is forwarded verbatim.
func tamperProxy(t *testing.T, backend string, tampered *atomic.Int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go proxyConn(conn, up, tampered)
		}
	}()
	return ln.Addr().String()
}

func proxyConn(client, server net.Conn, tampered *atomic.Int32) {
	defer client.Close()
	defer server.Close()
	for {
		var req wire.Request
		if err := wire.ReadMessage(client, &req); err != nil {
			return
		}
		if err := wire.WriteMessage(server, &req); err != nil {
			return
		}
		var resp wire.Response
		if err := wire.ReadMessage(server, &resp); err != nil {
			return
		}
		if req.Method == wire.MethodCloudSearch && tampered.CompareAndSwap(0, 1) {
			var sr core.SearchResponse
			if err := json.Unmarshal(resp.Result, &sr); err == nil {
				mutated := false
				for i := range sr.Results {
					if n := len(sr.Results[i].ER); n > 0 {
						sr.Results[i].ER = sr.Results[i].ER[:n-1]
						mutated = true
						break
					}
				}
				if b, err := json.Marshal(&sr); mutated && err == nil {
					resp.Result = b
				} else {
					tampered.Store(0)
				}
			} else {
				tampered.Store(0)
			}
		}
		if err := wire.WriteMessage(client, &resp); err != nil {
			return
		}
	}
}

// auditRound drives one fair-exchange search over the wire — the same
// exchange.Round slicer-cli runs, with cloudCli as the searching party —
// journaling into led: KindSettle on success, KindRefund with the full
// evidence bundle on a failed public verification.
func auditRound(t *testing.T, led *audit.Ledger, owner *core.Owner, user *core.User,
	cloudCli *wire.CloudClient, chainCli *wire.ChainClient,
	contractAddr chain.Address, userAcct, cloudAcct chain.Address,
	q Query, pay uint64) (settled bool, resp *core.SearchResponse) {
	t.Helper()
	req, err := user.Token(q)
	if err != nil {
		t.Fatal(err)
	}
	round := exchange.Round{
		Cloud: cloudCli, Ledger: chainCli,
		Contract: contractAddr, User: userAcct, CloudAcct: cloudAcct,
		AccPub: owner.AccumulatorPub(), Ac: owner.Ac(),
		Audit: led,
	}
	res, err := round.Run(req, pay, nil)
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	return res.Settled, res.Response
}

// TestTamperedResponseLeavesEvidence is the adversarial end-to-end check for
// the audit layer: with a wire-level tampering proxy between the user and an
// honest cloud, the public verification must fail on chain, the escrow must
// return to the user, and exactly one evidence bundle — holding the mutated
// bytes as the user received them — must land in the tamper-evident ledger,
// tripping the integrity SLO.
func TestTamperedResponseLeavesEvidence(t *testing.T) {
	cloudSrv := wire.NewCloudServer()
	cloudAddr, err := cloudSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	defer cloudSrv.Close()

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		t.Fatal(err)
	}
	ownerAcct := chain.AddressFromString("owner")
	userAcct := chain.AddressFromString("user")
	cloudAcct := chain.AddressFromString("cloud")
	validators := []chain.Address{chain.AddressFromString("v0"), chain.AddressFromString("v1")}
	network, err := chain.NewNetwork(registry, validators, map[chain.Address]uint64{
		ownerAcct: 1 << 30, userAcct: 1 << 30, cloudAcct: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	chainSrv := wire.NewChainServer(network)
	chainAddr, err := chainSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("chain listen: %v", err)
	}
	defer chainSrv.Close()

	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := []Record{NewRecord(1, 10), NewRecord(2, 200), NewRecord(3, 30), NewRecord(4, 55)}
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	honestCli, err := wire.DialCloud(cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer honestCli.Close()
	if err := honestCli.Init(owner.CloudInit(built.Index), true); err != nil {
		t.Fatalf("cloud init: %v", err)
	}
	chainCli, err := wire.DialChain(chainAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer chainCli.Close()
	deployRc, err := chainCli.Mine(contract.DeployTx(ownerAcct, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 50_000_000))
	if err != nil {
		t.Fatalf("contract deploy: %v", err)
	}
	if !deployRc.Status {
		t.Fatalf("contract deploy reverted: %s", deployRc.Err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}

	// Client-side ledger on real disk so the offline verifier runs against it.
	dir := t.TempDir()
	reg := obs.NewRegistry()
	led, err := audit.Open(audit.Options{Dir: dir, Fsync: durable.FsyncAlways, Registry: reg})
	if err != nil {
		t.Fatalf("audit open: %v", err)
	}
	led.SetTenant("e2e")

	const pay = 1000
	// Round 1, honest path straight to the cloud: settles.
	settled, _ := auditRound(t, led, owner, user, honestCli, chainCli,
		deployRc.ContractAddress, userAcct, cloudAcct, Less(100), pay)
	if !settled {
		t.Fatal("honest round did not settle")
	}

	// Round 2 through the tampering proxy: the mutated response must fail
	// the on-chain verification and refund the escrow.
	var tampered atomic.Int32
	proxyAddr := tamperProxy(t, cloudAddr, &tampered)
	proxyCli, err := wire.DialCloud(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxyCli.Close()
	userBefore, err := chainCli.Balance(userAcct)
	if err != nil {
		t.Fatal(err)
	}
	settled, tamperedResp := auditRound(t, led, owner, user, proxyCli, chainCli,
		deployRc.ContractAddress, userAcct, cloudAcct, Less(100), pay)
	if settled {
		t.Fatal("tampered round settled; the contract accepted a mutated response")
	}
	if tampered.Load() != 1 {
		t.Fatalf("proxy tampered %d responses, want 1", tampered.Load())
	}
	userAfter, err := chainCli.Balance(userAcct)
	if err != nil {
		t.Fatal(err)
	}
	if userAfter != userBefore {
		t.Fatalf("escrow not refunded: user balance %d -> %d", userBefore, userAfter)
	}

	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// The ledger must hold exactly one evidence bundle, carrying the mutated
	// response exactly as the user received it, attributed to a phase.
	records, res, err := audit.ReadDir(durable.OS, dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if res.Failures != 1 || res.Evidence != 1 {
		t.Fatalf("ledger has %d failures / %d evidence bundles, want 1 / 1", res.Failures, res.Evidence)
	}
	var bundle *audit.Evidence
	for _, rec := range records {
		if rec.Evidence != nil {
			if rec.Kind != audit.KindRefund || rec.Outcome != audit.OutcomeFail {
				t.Fatalf("evidence on %s/%s record, want refund/fail", rec.Kind, rec.Outcome)
			}
			if rec.Tenant != "e2e" {
				t.Fatalf("evidence record tenant %q, want e2e", rec.Tenant)
			}
			bundle = rec.Evidence
		}
	}
	wantResp, err := json.Marshal(tamperedResp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bundle.Response, wantResp) {
		t.Fatal("evidence bundle does not hold the mutated response bytes")
	}
	if bundle.Phase == "" || bundle.TokenIndex < 0 {
		t.Fatalf("evidence not attributed: phase %q token %d", bundle.Phase, bundle.TokenIndex)
	}

	// Offline verifier agrees the chain is intact.
	if vres, err := audit.Verify(durable.OS, dir); err != nil {
		t.Fatalf("audit verify: %v", err)
	} else if vres.HeadSeq != res.HeadSeq || vres.HeadHash != res.HeadHash {
		t.Fatal("verify head disagrees with read head")
	}

	// One settle(ok) + one refund(fail) over the integrity series: 50% good
	// against a 99% objective burns far past both thresholds — breach.
	engine := obs.NewEngine(reg, []obs.Objective{{
		Name:      "integrity",
		Metric:    audit.IntegritySeries,
		Target:    500 * time.Millisecond,
		GoodRatio: 0.99,
		Window:    time.Minute,
	}}, obs.EngineOptions{})
	statuses := engine.Evaluate()
	if len(statuses) != 1 || statuses[0].State != obs.SLOBreach.String() {
		t.Fatalf("integrity SLO = %+v, want breach", statuses)
	}
}
