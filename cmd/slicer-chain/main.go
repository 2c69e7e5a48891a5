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
// before a mine is acknowledged and the chain is periodically folded
// into an atomic snapshot; a restart (crash included) replays blocks
// through full validation back to the exact state and receipt roots.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"slicer/cmd/internal/daemon"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slicer-chain:", err)
		os.Exit(1)
	}
}

func run() error {
	d := daemon.New("slicer-chain", "127.0.0.1:7402", "durable data directory: block WAL + snapshots, crash-safe recovery at boot")
	d.Journaled(`latency objectives, e.g. "name=mine,metric=rpc:mine,target=500ms,good=0.99,window=2m;..." or @objectives.conf`,
		wire.SLOAliases("chain",
			wire.MethodChainMine, wire.MethodChainBalance, wire.MethodChainNonce,
			wire.MethodChainCall, wire.MethodChainHeight))
	validators := flag.Int("validators", 3, "number of PoA validators")
	fund := flag.String("fund", "owner,user,cloud", "comma-separated account names to pre-fund")
	balance := flag.Uint64("balance", 1<<40, "genesis balance per funded account")
	d.Parse(func() error {
		if *validators < 1 {
			return errors.New("need at least one validator")
		}
		return nil
	})
	defer d.Close()

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
	stats, err := d.StartJournaled(srv)
	if err != nil {
		return err
	}
	if stats != nil {
		fmt.Printf("recovered from %s: snapshot@%d, %d blocks replayed, %d truncated; height %d\n",
			d.DataDir, stats.SnapshotIndex, stats.Replayed, stats.Truncated, network.Leader().Height())
	}

	addr, err := srv.Listen(d.Listen)
	if err != nil {
		return err
	}
	fmt.Printf("slicer-chain: %d validators, serving on %s\n", *validators, addr)
	d.Wait()
	return nil
}
