package main

import (
	"flag"
	"fmt"

	"slicer/internal/shard"
	"slicer/internal/wire"
)

// printShardStatus asks the cloud address for the router admin surface; when
// it answers (the "cloud" is a slicer-router), the aggregate line from
// cloud.stats is broken down per shard plus the routing-table epoch. A plain
// slicer-cloud rejects the router methods and the section is skipped.
func printShardStatus(addr string, opts wire.ClientOptions) {
	rc, err := shard.DialRouterOpts(addr, opts)
	if err != nil {
		return
	}
	defer rc.Close()
	info, err := rc.TableInfo()
	if err != nil {
		return // not a router
	}
	statuses, err := rc.Shards()
	if err != nil {
		fmt.Printf("  router: table epoch %d; shard listing failed: %v\n", info.Table.Epoch, err)
		return
	}
	fmt.Printf("  router: table epoch %d, %d segments, %d shards\n",
		info.Table.Epoch, len(info.Table.Segments), len(statuses))
	fmt.Printf("  %-8s %-22s %12s %14s %10s\n", "shard", "addr", "entries", "index bytes", "searches")
	for _, s := range statuses {
		if s.Err != "" {
			fmt.Printf("  %-8s %-22s unreachable: %s\n", s.ID, s.Addr, s.Err)
			continue
		}
		fmt.Printf("  %-8s %-22s %12d %14d %10d\n",
			s.ID, s.Addr, s.Stats.IndexEntries, s.Stats.IndexBytes, s.Stats.SearchCalls)
	}
}

// cmdRebalance drives a range move on a slicer-router:
//
//	slicer-cli rebalance -show             # list the table's arcs per shard
//	slicer-cli rebalance -lo 0 -hi 4611686018427387904 -to s2
//
// The range is [lo, hi) over the 64-bit address space of index-label
// prefixes; -hi 0 means 2^64. The range must currently live on one shard —
// move each arc separately.
func cmdRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	statePath, _, _, _, dialOpts := commonFlags(fs)
	lo := fs.Uint64("lo", 0, "range start address (inclusive)")
	hi := fs.Uint64("hi", 0, "range end address (exclusive; 0 means 2^64)")
	to := fs.String("to", "", "destination shard ID")
	show := fs.Bool("show", false, "print the routing table's arcs per shard and exit")
	mkLogger := logFlags(fs)
	_ = fs.Parse(args)
	if _, err := mkLogger(); err != nil {
		return err
	}
	if !*show && *to == "" {
		return usagef("-to is required (destination shard ID); use -show to list arcs")
	}
	st, err := loadState(*statePath)
	if err != nil {
		return err
	}
	rc, err := shard.DialRouterOpts(st.CloudAddr, dialOpts())
	if err != nil {
		return err
	}
	defer rc.Close()
	if *show {
		info, err := rc.TableInfo()
		if err != nil {
			return fmt.Errorf("fetch routing table (is %s a slicer-router?): %w", st.CloudAddr, err)
		}
		fmt.Printf("routing table epoch %d (%d segments)\n", info.Table.Epoch, len(info.Table.Segments))
		for _, id := range info.Table.Shards() {
			for _, rg := range info.Table.Ranges(id) {
				hiStr := fmt.Sprintf("%#018x", rg[1])
				if rg[1] == 0 {
					hiStr = "2^64              "
				}
				fmt.Printf("  %-8s [%#018x, %s)\n", id, rg[0], hiStr)
			}
		}
		return nil
	}
	stats, err := rc.Rebalance(*lo, *hi, *to)
	if err != nil {
		return fmt.Errorf("rebalance (is %s a slicer-router?): %w", st.CloudAddr, err)
	}
	fmt.Printf("moved [%#x, %#x) from %s to %s: %d entries in %d pages, %d deleted at source, table epoch %d\n",
		*lo, *hi, stats.Source, *to, stats.Moved, stats.Pages, stats.Removed, stats.Epoch)
	return nil
}
