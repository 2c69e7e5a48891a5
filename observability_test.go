package slicer

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// TestDistributedSearchMetrics is the end-to-end acceptance check for the
// observability layer: a full distributed fair-exchange search (remote
// cloud, remote chain, admin endpoint enabled) must leave non-zero phase
// histograms for the cloud's index walk and witness computation, the
// client's verification and the chain's settlement on /metrics — and the
// search output must be exactly what the un-instrumented pipeline returns.
func TestDistributedSearchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cloudSrv := wire.NewCloudServer()
	cloudSrv.SetObservability(reg, obs.Nop())
	cloudAddr, err := cloudSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	defer cloudSrv.Close()

	adm, err := obs.StartAdmin("127.0.0.1:0", reg, cloudSrv.Traces(), obs.Nop())
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	defer adm.Close()

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
	chainSrv.SetObservability(reg, obs.Nop())
	chainAddr, err := chainSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("chain listen: %v", err)
	}
	defer chainSrv.Close()

	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := []Record{NewRecord(1, 10), NewRecord(2, 200), NewRecord(3, 30)}
	built, err := owner.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	cloudCli, err := wire.DialCloud(cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cloudCli.Close()
	if err := cloudCli.Init(owner.CloudInit(built.Index), true); err != nil {
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

	// Fair-exchange search: escrow, remote search, submit, verify locally.
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	req, err := user.Token(Less(100))
	if err != nil {
		t.Fatal(err)
	}
	round := exchange.Round{
		Cloud: cloudCli, Ledger: chainCli,
		Contract: deployRc.ContractAddress, User: userAcct, CloudAcct: cloudAcct,
		AccPub: owner.AccumulatorPub(), Ac: owner.Ac(),
	}
	out, err := round.Run(req, 1000, nil)
	if err != nil {
		t.Fatalf("fair-exchange round: %v", err)
	}
	if !out.Settled {
		t.Fatal("on-chain verification did not settle")
	}
	resp := out.Response
	verifyDur := reg.Histogram(obs.Label("slicer_pipeline_seconds", "phase", "verify"), "")
	if err := VerifyResponseObserved(owner.AccumulatorPub(), owner.Ac(), req, resp, verifyDur, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ids, err := user.Decrypt(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(ids), fmt.Sprint([]uint64{1, 3}); got != want {
		t.Fatalf("search ids = %s, want %s", got, want)
	}

	// Scrape /metrics over HTTP and assert the phase histograms moved.
	res, err := http.Get("http://" + adm.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	for _, series := range []string{
		`slicer_cloud_phase_seconds_count{phase="collect"}`,
		`slicer_cloud_phase_seconds_count{phase="witness"}`,
		`slicer_pipeline_seconds_count{phase="verify"}`,
		`slicer_chain_phase_seconds_count{phase="seal"}`,
		`slicer_rpc_requests_total{method="cloud.search",outcome="ok",server="cloud"}`,
	} {
		val, ok := seriesValue(exposition, series)
		if !ok {
			t.Errorf("series %s missing from /metrics", series)
			continue
		}
		if val == "0" {
			t.Errorf("series %s is zero after a full search", series)
		}
	}
}

// TestSchemeObservability checks the single-process pipeline: SearchTraced
// returns the same IDs as Search, records every pipeline phase in the
// trace, and feeds the phase histograms of the attached registry. Results
// must be identical with observability on, off, and detached.
func TestSchemeObservability(t *testing.T) {
	s, err := NewScheme(Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512},
		[]Record{NewRecord(1, 5), NewRecord(2, 50), NewRecord(3, 7)})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Search(Less(10))
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	s.SetObservability(reg)
	ids, tr, err := s.SearchTraced(Less(10))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(ids), fmt.Sprint(plain); got != want {
		t.Fatalf("instrumented search ids = %s, want %s", got, want)
	}
	phases := make(map[string]bool)
	for _, sp := range tr.Spans() {
		phases[sp.Phase] = true
	}
	for _, want := range []string{"token", "cloud_search", "verify", "decrypt", "cloud.collect", "cloud.witness"} {
		if !phases[want] {
			t.Errorf("trace missing phase %q (got %v)", want, tr.Spans())
		}
	}
	if v := reg.Snapshot()["slicer_searches_total"]; v != 1 {
		t.Errorf("slicer_searches_total = %v, want 1", v)
	}
	if v := reg.Snapshot()[`slicer_pipeline_seconds{phase="verify"}/count`]; v != 1 {
		t.Errorf("verify histogram count = %v, want 1", v)
	}

	// Detaching restores the un-instrumented pipeline.
	s.SetObservability(nil)
	ids, err = s.Search(Less(10))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(ids), fmt.Sprint(plain); got != want {
		t.Fatalf("detached search ids = %s, want %s", got, want)
	}
}

// TestDistributedTracePropagation is the end-to-end acceptance check for
// cross-process tracing: one traced fair-exchange search over loopback RPC
// must yield a single merged trace holding the client's pipeline phases,
// the cloud's collect/witness spans (party "cloud", non-zero), the chain's
// seal span (party "chain", non-zero) and a derived wire-time span — and
// the same trace, keyed by the client's trace ID, must be retrievable from
// the cloud server's /debug/traces endpoint. A context-free peer on the
// same connection must keep getting PR-2-identical responses.
func TestDistributedTracePropagation(t *testing.T) {
	reg := obs.NewRegistry()
	cloudSrv := wire.NewCloudServer()
	cloudSrv.SetObservability(reg, obs.Nop())
	cloudAddr, err := cloudSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("cloud listen: %v", err)
	}
	defer cloudSrv.Close()
	adm, err := obs.StartAdmin("127.0.0.1:0", reg, cloudSrv.Traces(), obs.Nop())
	if err != nil {
		t.Fatalf("StartAdmin: %v", err)
	}
	defer adm.Close()

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		t.Fatal(err)
	}
	ownerAcct := chain.AddressFromString("owner")
	userAcct := chain.AddressFromString("user")
	cloudAcct := chain.AddressFromString("cloud")
	network, err := chain.NewNetwork(registry,
		[]chain.Address{chain.AddressFromString("v0")},
		map[chain.Address]uint64{ownerAcct: 1 << 30, userAcct: 1 << 30, cloudAcct: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	chainSrv := wire.NewChainServer(network)
	chainSrv.SetObservability(reg, obs.Nop())
	chainAddr, err := chainSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("chain listen: %v", err)
	}
	defer chainSrv.Close()

	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]Record{NewRecord(1, 10), NewRecord(2, 200), NewRecord(3, 30)})
	if err != nil {
		t.Fatal(err)
	}
	cloudCli, err := wire.DialCloud(cloudAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cloudCli.Close()
	if err := cloudCli.Init(owner.CloudInit(built.Index), true); err != nil {
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

	// The traced fair-exchange search: every RPC carries the trace context
	// and splices the remote span tree into tr.
	tr := obs.NewTrace("traced fair-exchange search")
	endToken := tr.Span("token")
	req, err := user.Token(Less(100))
	if err != nil {
		t.Fatal(err)
	}
	endToken()
	round := exchange.Round{
		Cloud: cloudCli, Ledger: chainCli,
		Contract: deployRc.ContractAddress, User: userAcct, CloudAcct: cloudAcct,
		AccPub: owner.AccumulatorPub(), Ac: owner.Ac(),
	}
	out, err := round.Run(req, 1000, tr)
	if err != nil {
		t.Fatalf("traced round: %v", err)
	}
	if !out.Settled {
		t.Fatal("traced round did not settle")
	}
	resp := out.Response
	endDecrypt := tr.Span("decrypt")
	ids, err := user.Decrypt(resp)
	if err != nil {
		t.Fatal(err)
	}
	endDecrypt()

	// One merged tree: local pipeline phases plus remote spans, attributed
	// to the party that measured them, with non-zero remote durations.
	byPhase := make(map[string]obs.SpanRecord)
	for _, sp := range tr.Spans() {
		byPhase[sp.Phase] = sp
	}
	for _, localPhase := range []string{"token", "escrow", "cloud_search", "settle", "decrypt"} {
		sp, ok := byPhase[localPhase]
		if !ok || sp.Party != "" {
			t.Errorf("local phase %q = %+v (present %v)", localPhase, sp, ok)
		}
	}
	for phase, party := range map[string]string{
		"cloud.collect": "cloud", "cloud.witness": "cloud",
		"chain.submit": "chain", "chain.seal": "chain",
	} {
		sp, ok := byPhase[phase]
		if !ok {
			t.Errorf("remote phase %q missing from merged trace (got %v)", phase, tr.Spans())
			continue
		}
		if sp.Party != party {
			t.Errorf("phase %q party = %q, want %q", phase, sp.Party, party)
		}
		if sp.Duration <= 0 {
			t.Errorf("phase %q duration = %v, want > 0", phase, sp.Duration)
		}
	}
	for _, derived := range []string{"rpc:cloud.search", "wire:cloud.search", "wire:chain.mine"} {
		if _, ok := byPhase[derived]; !ok {
			t.Errorf("derived span %q missing from merged trace", derived)
		}
	}
	if sp := byPhase["wire:cloud.search"]; sp.Duration < 0 {
		t.Errorf("wire time = %v, want >= 0", sp.Duration)
	}

	// The cloud kept its half of the trace under the client's trace ID,
	// retrievable over the admin endpoint.
	if got := cloudSrv.Traces().Seen(); got != 1 {
		t.Errorf("cloud trace store saw %d traces, want 1", got)
	}
	res, err := http.Get("http://" + adm.Addr() + "/debug/traces")
	if err != nil {
		t.Fatalf("scrape traces: %v", err)
	}
	listing, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(string(listing), tr.ID()) {
		t.Errorf("/debug/traces = %d, missing trace %s:\n%s", res.StatusCode, tr.ID(), listing)
	}
	res, err = http.Get("http://" + adm.Addr() + "/debug/traces?id=" + tr.ID())
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	rendered, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(string(rendered), "cloud.collect") {
		t.Errorf("/debug/traces?id = %d %q", res.StatusCode, rendered)
	}

	// A context-free search on the same connections still interoperates and
	// returns the same result — and records nothing server-side.
	plainResp, err := cloudCli.Search(req)
	if err != nil {
		t.Fatalf("context-free search: %v", err)
	}
	plainIDs, err := user.Decrypt(plainResp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(plainIDs), fmt.Sprint(ids); got != want {
		t.Fatalf("context-free ids = %s, want %s", got, want)
	}
	if got := cloudSrv.Traces().Seen(); got != 1 {
		t.Errorf("context-free search recorded a trace (seen = %d, want 1)", got)
	}
}

// seriesValue extracts one sample's value from a text exposition.
func seriesValue(exposition, series string) (string, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest, true
		}
	}
	return "", false
}
