// Command slicer-chain runs a proof-of-authority blockchain network with
// the Slicer verification contract registered, exposed over the wire
// protocol. Demo accounts (owner/user/cloud, derived from the names passed
// to -fund) are pre-funded at genesis.
//
// Usage:
//
//	slicer-chain -listen 0.0.0.0:7402 -validators 3 -fund owner,user,cloud -data-dir /var/lib/slicer-chain
//
// With -data-dir every sealed block is journaled to a write-ahead log
// before the step is acknowledged and the chain is periodically folded
// into an atomic snapshot; a restart (crash included) replays blocks
// through full validation back to the exact state and receipt roots.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-chain:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen     = flag.String("listen", "127.0.0.1:7402", "address to listen on")
		validators = flag.Int("validators", 3, "number of PoA validators")
		fund       = flag.String("fund", "owner,user,cloud", "comma-separated account names to pre-fund")
		balance    = flag.Uint64("balance", 1<<40, "genesis balance per funded account")
		dataDir    = flag.String("data-dir", "", "durable data directory: block WAL + snapshots, crash-safe recovery at boot")
		fsync      = flag.String("fsync", "always", "WAL durability: always, never, or a flush interval like 100ms")
		snapEvery  = flag.Int("snapshot-every", 0, "fold the chain into a snapshot every N sealed blocks (0: default 256, <0: off)")
		auditDir   = flag.String("audit-dir", "", `tamper-evident audit ledger directory (default <data-dir>/audit when -data-dir is set; "none" disables)`)
		admin      = flag.String("admin", "", "optional admin HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "log format: text or json")
		idle       = flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "drop connections idle longer than this; 0 disables")
		traceCap   = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "how many recent propagated traces to retain for /debug/traces")
		traceSmpl  = flag.Int("trace-sample", 1, "retain 1 of every N propagated traces (slow outliers always kept)")
		sloSpec    = flag.String("slo", "", `latency objectives, e.g. "name=submit,metric=rpc:submit,target=500ms,good=0.99,window=2m;..." or @objectives.conf`)
		profileMax = flag.Int("profile-captures", obs.DefProfileMaxCaptures, "max retained profile bundles under <data-dir>/profiles; oldest evicted first")
		profileCPU = flag.Duration("profile-cpu", obs.DefProfileCPUDuration, "CPU-profile window per capture")
		labelCap   = flag.Int("label-cap", wire.DefaultTenantLabelCap, "max distinct tenant label values before new tenants collapse into \"other\"")
	)
	flag.Parse()
	if *validators < 1 {
		return fmt.Errorf("need at least one validator")
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()

	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return err
	}
	vals := make([]chain.Address, *validators)
	for i := range vals {
		vals[i] = chain.AddressFromString(fmt.Sprintf("validator-%d", i))
	}
	alloc := make(map[chain.Address]uint64)
	for _, name := range strings.Split(*fund, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a := chain.AddressFromString(name)
		alloc[a] = *balance
		fmt.Printf("funded %-8s %s with %d\n", name, a, *balance)
	}
	network, err := chain.NewNetwork(registry, vals, alloc)
	if err != nil {
		return err
	}

	srv := wire.NewChainServer(network)
	srv.Server().SetLabelCap(*labelCap)
	srv.SetObservability(reg, logger)
	if *dataDir != "" {
		policy, interval, err := durable.ParsePolicy(*fsync)
		if err != nil {
			return err
		}
		stats, err := srv.EnableDurability(wire.DurabilityOptions{
			Dir:           *dataDir,
			Fsync:         policy,
			FsyncInterval: interval,
			SnapshotEvery: *snapEvery,
			Registry:      reg,
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("durability: %w", err)
		}
		fmt.Printf("recovered from %s: snapshot@%d, %d blocks replayed, %d truncated; height %d\n",
			*dataDir, stats.SnapshotIndex, stats.Replayed, stats.Truncated, network.Leader().Height())
	}
	srv.Server().SetIdleTimeout(*idle)
	srv.Traces().SetCapacity(*traceCap)
	srv.Traces().SetSampling(*traceSmpl)

	// Audit ledger: journals every sealed block with transactions as a
	// tamper-evident KindSeal record, anchoring the settlement history.
	ledgerDir := *auditDir
	if ledgerDir == "" && *dataDir != "" {
		ledgerDir = filepath.Join(*dataDir, "audit")
	}
	var led *audit.Ledger
	if ledgerDir != "" && ledgerDir != "none" {
		policy, interval, err := durable.ParsePolicy(*fsync)
		if err != nil {
			return err
		}
		led, err = audit.Open(audit.Options{
			Dir:           ledgerDir,
			Fsync:         policy,
			FsyncInterval: interval,
			Registry:      reg,
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("audit ledger: %w", err)
		}
		defer led.Close()
		srv.EnableAudit(led)
		seq, hash := led.Head()
		fmt.Printf("audit ledger %s: chain verified, head #%d %s\n", ledgerDir, seq, hash)
	}

	var engine *obs.Engine
	if *sloSpec != "" {
		aliases := wire.SLOAliases("chain",
			wire.MethodChainSubmit, wire.MethodChainStep, wire.MethodChainReceipt,
			wire.MethodChainBalance, wire.MethodChainNonce, wire.MethodChainCall,
			wire.MethodChainHeight)
		for k, v := range audit.SLOAliases() {
			aliases[k] = v
		}
		objs, err := obs.ParseObjectives(*sloSpec, aliases)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		engine = obs.NewEngine(reg, objs, obs.EngineOptions{Logger: logger})
		defer engine.Run(0)()
	}
	var prof *obs.Profiler
	if *dataDir != "" {
		prof, err = obs.NewProfiler(obs.ProfilerOptions{
			Dir:         filepath.Join(*dataDir, "profiles"),
			MaxCaptures: *profileMax,
			CPUDuration: *profileCPU,
			Registry:    reg,
			Logger:      logger,
		})
		if err != nil {
			return fmt.Errorf("profiler: %w", err)
		}
		if engine != nil {
			engine.OnBreach(func(st obs.SLOStatus) { prof.Trigger("slo-" + st.Name) })
		}
	} else if engine != nil {
		logger.Warn("continuous profiler disabled: -slo set without -data-dir, breaches will not capture profiles")
	}
	if *admin != "" {
		opts := obs.AdminOptions{
			Registry: reg,
			Traces:   srv.Traces(),
			Logger:   logger,
			SLO:      engine,
			Profiler: prof,
		}
		if led != nil {
			opts.Audit = led.AdminHandler()
		}
		adm, err := obs.StartAdminOpts(*admin, opts)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer adm.Close()
		fmt.Printf("slicer-chain: admin endpoint on http://%s/metrics\n", adm.Addr())
	}
	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("slicer-chain: %d validators, serving on %s\n", *validators, addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("slicer-chain: shutting down")
	return nil
}
