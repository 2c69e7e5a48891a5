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
	"strings"

	"slicer/cmd/internal/daemon"
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
		return nil, fmt.Errorf("-shards is required (e.g. -shards s1=127.0.0.1:7411,s2=127.0.0.1:7412)")
	}
	return specs, nil
}

func run() error {
	d := daemon.New("slicer-router", "127.0.0.1:7400", "durable data directory: routing-table + trapdoor-key WAL, crash-safe recovery at boot")
	shardsFlag := flag.String("shards", "", "shard fleet: comma-separated id=host:port (required)")
	dialTO := flag.Duration("dial-timeout", wire.DefaultDialTimeout, "timeout for connecting to a shard")
	callTO := flag.Duration("call-timeout", wire.DefaultCallTimeout, "per-shard-RPC deadline; 0 or negative disables")
	var specs []shard.ShardSpec
	d.Parse(func() (err error) {
		specs, err = parseShards(*shardsFlag)
		return err
	})
	defer d.Close()

	clientOpts := wire.ClientOptions{DialTimeout: *dialTO, CallTimeout: *callTO}
	if *callTO <= 0 {
		clientOpts.CallTimeout = -1
	}
	router, err := shard.NewRouter(shard.Options{
		Shards:        specs,
		DataDir:       d.DataDir,
		Fsync:         d.Fsync,
		FsyncInterval: d.FsyncInterval,
		Registry:      d.Registry,
		Logger:        d.Logger,
		Client:        clientOpts,
	})
	if err != nil {
		return err
	}
	if err := d.Start(router); err != nil {
		return err
	}
	table := router.Table()
	if d.DataDir != "" {
		fmt.Printf("recovered from %s: table epoch %d\n", d.DataDir, table.Epoch)
	}

	addr, err := router.Listen(d.Listen)
	if err != nil {
		return err
	}
	fmt.Printf("slicer-router: serving on %s, %d shards, table epoch %d (%d segments)\n",
		addr, len(specs), table.Epoch, len(table.Segments))
	d.Wait()
	return nil
}
