// Command slicer-cloud runs the untrusted search server: it stores the
// encrypted index and the ADS prime list shipped by a data owner and
// answers search requests with verification objects (Algorithm 4).
//
// Usage:
//
//	slicer-cloud -listen 0.0.0.0:7401 -data-dir /var/lib/slicer-cloud
//
// The server starts empty; a data owner initializes it over the wire
// protocol (see cmd/slicer-cli and examples/distributed). With -data-dir
// every state-mutating RPC is journaled to a write-ahead log before it is
// acknowledged and the full state is periodically folded into an atomic
// snapshot, so a crash (kill -9 included) recovers to the exact
// acknowledged state on restart.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"slicer/internal/audit"
	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-cloud:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7401", "address to listen on")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL + snapshots, crash-safe recovery at boot")
	fsync := flag.String("fsync", "always", "WAL durability: always, never, or a flush interval like 100ms")
	snapEvery := flag.Int("snapshot-every", 0, "fold state into a snapshot every N journaled records (0: default 256, <0: off)")
	auditDir := flag.String("audit-dir", "", `tamper-evident audit ledger directory (default <data-dir>/audit when -data-dir is set; "none" disables)`)
	admin := flag.String("admin", "", "optional admin HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	idle := flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "drop connections idle longer than this; 0 disables")
	traceCap := flag.Int("trace-capacity", obs.DefaultTraceCapacity, "how many recent propagated traces to retain for /debug/traces")
	traceSample := flag.Int("trace-sample", 1, "retain 1 of every N propagated traces (slow outliers always kept)")
	sloSpec := flag.String("slo", "", `latency objectives, e.g. "name=search,metric=rpc:search,target=250ms,good=0.99,window=2m;..." or @objectives.conf`)
	profileMax := flag.Int("profile-captures", obs.DefProfileMaxCaptures, "max retained profile bundles under <data-dir>/profiles; oldest evicted first")
	profileCPU := flag.Duration("profile-cpu", obs.DefProfileCPUDuration, "CPU-profile window per capture")
	labelCap := flag.Int("label-cap", wire.DefaultTenantLabelCap, "max distinct tenant label values before new tenants collapse into \"other\"")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()

	srv := wire.NewCloudServer()
	srv.Server().SetLabelCap(*labelCap)
	srv.SetObservability(reg, logger)
	srv.Server().SetIdleTimeout(*idle)
	srv.Traces().SetCapacity(*traceCap)
	srv.Traces().SetSampling(*traceSample)

	// The audit ledger opens before the SLO engine and admin endpoint so the
	// integrity series, the /debug/audit handler and the server hooks all see
	// the same ledger. It defaults on next to -data-dir: a server durable
	// enough to recover state is durable enough to account for it.
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
		aliases := wire.SLOAliases("cloud",
			wire.MethodCloudInit, wire.MethodCloudUpdate, wire.MethodCloudSearch, wire.MethodCloudStats)
		for k, v := range audit.SLOAliases() {
			aliases[k] = v
		}
		objs, err := obs.ParseObjectives(*sloSpec, aliases)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		engine = obs.NewEngine(reg, objs, obs.EngineOptions{Logger: logger})
		defer engine.Run(0)()
		srv.AttachSLO(engine)
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
		fmt.Printf("slicer-cloud: admin endpoint on http://%s/metrics\n", adm.Addr())
	}
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
		fmt.Printf("recovered from %s: snapshot@%d, %d records replayed, %d skipped, %d truncated\n",
			*dataDir, stats.SnapshotIndex, stats.Replayed, stats.Skipped, stats.Truncated)
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("slicer-cloud: serving on %s\n", addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("slicer-cloud: shutting down")
	return nil
}
