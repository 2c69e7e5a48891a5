// Distributed deployment: the cloud and the blockchain run as TCP servers
// (the same servers cmd/slicer-cloud and cmd/slicer-chain expose) and the
// owner/user drive the full protocol over the wire — initialization, a
// remote verified search with on-chain settlement, and a forward-secure
// insert shipped as a delta.
//
//	go run ./examples/distributed
//	go run ./examples/distributed -admin 127.0.0.1:7499   # inspect /metrics live
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"slicer"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/exchange"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// verifiedSearch runs one fair-exchange round — escrow, remote search,
// on-chain verification — and decrypts the response only if the contract
// settled: a refunded response failed the public verification and is not to
// be trusted.
func verifiedSearch(w io.Writer, round *exchange.Round, user *core.User, req *core.SearchRequest, fee uint64, tr *obs.Trace) error {
	res, err := round.Run(req, fee, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "user escrowed %d for query 'value < 1000' (%d tokens)\n", fee, len(req.Tokens))
	fmt.Fprintf(w, "cloud submitted results; on-chain verification settled=%v (gas %d)\n", res.Settled, res.GasUsed)
	if !res.Settled {
		fmt.Fprintln(w, "payment refunded; response discarded:", res.VerifyErr)
		return nil
	}
	endDecrypt := tr.Span("decrypt")
	ids, err := user.Decrypt(res.Response)
	if err != nil {
		return err
	}
	endDecrypt()
	fmt.Fprintln(w, "decrypted matching record IDs:", ids)
	return nil
}

func run() error {
	admin := flag.String("admin", "", "optional admin HTTP address serving /metrics for both servers")
	tenant := flag.String("tenant", "acme", "tenant tag stamped on every RPC; servers label per-tenant metrics and audit records with it")
	flag.Parse()

	// Both servers and the client pipeline share one registry, so a single
	// /metrics scrape shows the whole deployment.
	reg := obs.NewRegistry()
	logger := obs.Nop()
	if *admin != "" {
		var err error
		if logger, err = obs.NewLogger(os.Stderr, "info", "text"); err != nil {
			return err
		}
	}
	verifyDur := reg.Histogram(obs.Label("slicer_pipeline_seconds", "phase", "verify"),
		"Latency of one client search-pipeline phase, by phase.")

	// --- Servers (in production: separate machines) ---
	cloudSrv := wire.NewCloudServer()
	cloudSrv.SetObservability(reg, logger)
	cloudAddr, err := cloudSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer cloudSrv.Close()

	// A latency objective over the cloud's search RPC: the engine reads the
	// sliding-window histogram the wire server already maintains, so there
	// is nothing extra to instrument.
	slos := []obs.Objective{{
		Name:      "search",
		Metric:    wire.RPCDurationSeries("cloud", wire.MethodCloudSearch),
		Target:    250 * time.Millisecond,
		GoodRatio: 0.99,
		Window:    2 * time.Minute,
	}}
	engine := obs.NewEngine(reg, slos, obs.EngineOptions{Logger: logger})
	cloudSrv.AttachSLO(engine)

	if *admin != "" {
		// The admin endpoint serves the cloud's trace store: propagated
		// traces land there as searches arrive (GET /debug/traces), and
		// /debug/slo reports the objective states.
		adm, err := obs.StartAdminOpts(*admin, obs.AdminOptions{
			Registry: reg, Traces: cloudSrv.Traces(), Logger: logger, SLO: engine,
		})
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Printf("admin endpoint: http://%s/metrics\n", adm.Addr())
	}

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return err
	}
	ownerAcct := chain.AddressFromString("owner")
	userAcct := chain.AddressFromString("user")
	cloudAcct := chain.AddressFromString("cloud")
	validators := []chain.Address{
		chain.AddressFromString("validator-a"),
		chain.AddressFromString("validator-b"),
		chain.AddressFromString("validator-c"),
	}
	network, err := chain.NewNetwork(registry, validators, map[chain.Address]uint64{
		ownerAcct: 1 << 40, userAcct: 1 << 40, cloudAcct: 1 << 40,
	})
	if err != nil {
		return err
	}
	chainSrv := wire.NewChainServer(network)
	chainSrv.SetObservability(reg, logger)
	chainAddr, err := chainSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer chainSrv.Close()
	fmt.Printf("cloud server: %s\nchain server: %s (3 validators)\n\n", cloudAddr, chainAddr)

	// --- Data owner: build locally, initialize the remote parties ---
	params := core.Params{Bits: 16, TrapdoorBits: 512, AccumulatorBits: 512}
	owner, err := core.NewOwner(params)
	if err != nil {
		return err
	}
	db := []slicer.Record{
		slicer.NewRecord(1, 120), slicer.NewRecord(2, 7340),
		slicer.NewRecord(3, 512), slicer.NewRecord(4, 60000),
		slicer.NewRecord(5, 512),
	}
	built, err := owner.Build(db)
	if err != nil {
		return err
	}

	cloudCli, err := wire.DialCloudOpts(cloudAddr, wire.ClientOptions{Tenant: *tenant})
	if err != nil {
		return err
	}
	defer cloudCli.Close()
	if err := cloudCli.Init(owner.CloudInit(built.Index), true); err != nil {
		return fmt.Errorf("remote cloud init: %w", err)
	}
	stats, err := cloudCli.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("owner shipped index (%d entries, %d bytes) and ADS (%d primes) to the cloud\n",
		stats.IndexEntries, stats.IndexBytes, stats.Primes)

	chainCli, err := wire.DialChainOpts(chainAddr, wire.ClientOptions{Tenant: *tenant})
	if err != nil {
		return err
	}
	defer chainCli.Close()
	deployRc, err := chainCli.Mine(contract.DeployTx(ownerAcct, 0, owner.AccumulatorPub().Marshal(), owner.Ac(), 50_000_000))
	if err != nil {
		return err
	}
	if !deployRc.Status {
		return fmt.Errorf("deployment reverted: %s", deployRc.Err)
	}
	contractAddr := deployRc.ContractAddress
	fmt.Printf("owner deployed contract at %s (gas %d)\n\n", contractAddr, deployRc.GasUsed)

	// --- Data user: verified search with on-chain settlement ---
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		return err
	}
	query := slicer.Less(1000)
	req, err := user.Token(query)
	if err != nil {
		return err
	}
	// One trace follows the whole fair exchange across all three machines:
	// remote spans come back in the RPC responses and are spliced in.
	tr := obs.NewTrace("distributed verified search")
	round := &exchange.Round{
		Cloud: cloudCli, Ledger: chainCli,
		Contract: contractAddr, User: userAcct, CloudAcct: cloudAcct,
		AccPub: owner.AccumulatorPub(), Ac: owner.Ac(),
	}
	if err := verifiedSearch(os.Stdout, round, user, req, 2500, tr); err != nil {
		return err
	}

	fmt.Println("\nmerged cross-machine trace (party column: who measured the span):")
	_ = tr.WriteText(os.Stdout)

	// --- Owner: forward-secure insert shipped over the wire ---
	up, err := owner.Insert([]slicer.Record{slicer.NewRecord(6, 640)})
	if err != nil {
		return err
	}
	if err := cloudCli.Update(up); err != nil {
		return fmt.Errorf("remote update: %w", err)
	}
	user.UpdateStates(owner.StatesSnapshot())
	if _, _, err := exchange.PostAc(chainCli, ownerAcct, contractAddr, owner.Ac()); err != nil {
		return err
	}
	fmt.Println("\nowner inserted record 6 (value 640) and refreshed the on-chain digest")

	req, err = user.Token(query)
	if err != nil {
		return err
	}
	resp, err := cloudCli.Search(req)
	if err != nil {
		return err
	}
	if err := slicer.VerifyResponseObserved(owner.AccumulatorPub(), owner.Ac(), req, resp, verifyDur, nil); err != nil {
		return fmt.Errorf("verification after insert: %w", err)
	}
	ids, err := user.Decrypt(resp)
	if err != nil {
		return err
	}
	fmt.Println("re-ran 'value < 1000' remotely, verified:", ids)

	height, err := chainCli.Height()
	if err != nil {
		return err
	}
	cloudBal, err := chainCli.Balance(cloudAcct)
	if err != nil {
		return err
	}
	fmt.Printf("\nchain height %d; cloud earned %d in search fees\n", height, cloudBal-(1<<40))

	// --- Live telemetry: windowed quantiles + objective states ---
	if win, ok := reg.WindowSnapshotFor(wire.RPCDurationSeries("cloud", wire.MethodCloudSearch)); ok {
		fmt.Printf("\ncloud.search window (last %.0fs): %d calls, p50 %.3fms p99 %.3fms\n",
			win.WindowSeconds, win.Count, win.P50*1e3, win.P99*1e3)
	}
	engine.Evaluate()
	fmt.Println("SLO states:")
	_ = engine.WriteText(os.Stdout)
	return nil
}
