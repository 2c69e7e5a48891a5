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
	"fmt"
	"os"

	"slicer/cmd/internal/daemon"
	"slicer/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-cloud:", err)
		os.Exit(1)
	}
}

func run() error {
	d := daemon.New("slicer-cloud", "127.0.0.1:7401", "durable data directory: WAL + snapshots, crash-safe recovery at boot")
	d.Journaled(`latency objectives, e.g. "name=search,metric=rpc:search,target=250ms,good=0.99,window=2m;..." or @objectives.conf`,
		wire.SLOAliases("cloud", wire.MethodCloudInit, wire.MethodCloudUpdate, wire.MethodCloudSearch, wire.MethodCloudStats))
	d.Parse(nil)
	defer d.Close()

	srv := wire.NewCloudServer()
	stats, err := d.StartJournaled(srv)
	if err != nil {
		return err
	}
	srv.AttachSLO(d.SLO)
	if stats != nil {
		fmt.Printf("recovered from %s: snapshot@%d, %d records replayed, %d skipped, %d truncated\n",
			d.DataDir, stats.SnapshotIndex, stats.Replayed, stats.Skipped, stats.Truncated)
	}

	addr, err := srv.Listen(d.Listen)
	if err != nil {
		return err
	}
	fmt.Printf("slicer-cloud: serving on %s\n", addr)
	d.Wait()
	return nil
}
