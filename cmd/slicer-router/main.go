// Command slicer-router fronts a fleet of slicer-cloud shards as one cloud:
// owners initialize and update through it, users search through it, and the
// responses — bytes, verification objects, even error text — are identical
// to a single cloud holding the union index.
//
// Usage:
//
//	slicer-router -listen 0.0.0.0:7400 \
//	  -shards s1=10.0.0.1:7401,s2=10.0.0.2:7401,s3=10.0.0.3:7401 \
//	  -data-dir /var/lib/slicer-router
//
// Placement is a consistent-hash ring over index-label address prefixes.
// With -data-dir the routing table (every epoch) and the deployment's
// trapdoor key are journaled before any RPC is acknowledged, so a restarted
// router resumes with its exact acknowledged view. Range moves between
// shards are driven over the admin surface (slicer-cli rebalance) while
// searches keep flowing.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"slicer/internal/durable"
	"slicer/internal/obs"
	"slicer/internal/shard"
	"slicer/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-router:", err)
		os.Exit(1)
	}
}

// parseShards turns "id=addr,id=addr" into an ordered spec list.
func parseShards(spec string) ([]shard.ShardSpec, error) {
	var specs []shard.ShardSpec
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad shard %q (want id=host:port)", part)
		}
		specs = append(specs, shard.ShardSpec{ID: kv[0], Addr: kv[1]})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-shards needs at least one id=host:port entry")
	}
	return specs, nil
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7400", "address to listen on")
	shardsFlag := flag.String("shards", "", "shard fleet: comma-separated id=host:port (required)")
	dataDir := flag.String("data-dir", "", "durable data directory: routing-table + trapdoor-key WAL, crash-safe recovery at boot")
	fsync := flag.String("fsync", "always", "WAL durability: always, never, or a flush interval like 100ms")
	vnodes := flag.Int("vnodes", shard.DefaultVnodes, "consistent-hash points per shard for a fresh routing table")
	ringEpochs := flag.Int("ring-epochs", 8, "past routing-table epochs retained in memory for inspection")
	workers := flag.Int("workers", 0, "token-level search concurrency (0: one per core)")
	batch := flag.Int("batch", shard.DefaultBatch, "first probe window of a walk; doubles each round")
	admin := flag.String("admin", "", "optional admin HTTP address serving /metrics, /healthz, /debug/traces and /debug/pprof")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	idle := flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "drop connections idle longer than this; 0 disables")
	dialTO := flag.Duration("dial-timeout", wire.DefaultDialTimeout, "timeout for connecting to a shard")
	callTO := flag.Duration("call-timeout", wire.DefaultCallTimeout, "per-shard-RPC deadline; 0 or negative disables")
	traceCap := flag.Int("trace-capacity", obs.DefaultTraceCapacity, "how many recent propagated traces to retain for /debug/traces")
	flag.Parse()

	if *shardsFlag == "" {
		return fmt.Errorf("-shards is required (e.g. -shards s1=127.0.0.1:7411,s2=127.0.0.1:7412)")
	}
	specs, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()

	clientOpts := wire.ClientOptions{DialTimeout: *dialTO, CallTimeout: *callTO}
	if *callTO <= 0 {
		clientOpts.CallTimeout = -1
	}
	opts := shard.Options{
		Shards:     specs,
		DataDir:    *dataDir,
		Vnodes:     *vnodes,
		RingEpochs: *ringEpochs,
		Workers:    *workers,
		Batch:      *batch,
		Registry:   reg,
		Logger:     logger,
		Client:     clientOpts,
	}
	if *dataDir != "" {
		policy, interval, err := durable.ParsePolicy(*fsync)
		if err != nil {
			return err
		}
		opts.Fsync = policy
		opts.FsyncInterval = interval
	}
	router, err := shard.NewRouter(opts)
	if err != nil {
		return err
	}
	defer router.Close()
	router.Server().SetIdleTimeout(*idle)
	router.Server().SetLogger(logger)
	router.Traces().SetCapacity(*traceCap)

	if *admin != "" {
		adm, err := obs.StartAdminOpts(*admin, obs.AdminOptions{
			Registry: reg,
			Traces:   router.Traces(),
			Logger:   logger,
		})
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer adm.Close()
		fmt.Printf("slicer-router: admin endpoint on http://%s/metrics\n", adm.Addr())
	}

	addr, err := router.Listen(*listen)
	if err != nil {
		return err
	}
	table := router.Table()
	fmt.Printf("slicer-router: serving on %s, %d shards, table epoch %d (%d segments)\n",
		addr, len(specs), table.Epoch, len(table.Segments))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("slicer-router: shutting down")
	return nil
}
