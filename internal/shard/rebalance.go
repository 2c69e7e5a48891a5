package shard

import (
	"encoding/json"
	"fmt"
	"time"

	"slicer/internal/obs"
	"slicer/internal/wire"
)

// movePageSize is how many entries one export/import page carries.
const movePageSize = 256

// moveRetries bounds how often one page operation is retried against a
// shard that is down (the smoke test kill -9s a shard mid-move and expects
// the move to complete once it is restarted).
const (
	moveRetries = 120
	moveBackoff = 250 * time.Millisecond
)

// RebalanceMsg asks the router to move the address range [lo, hi) — hi == 0
// meaning 2^64 — onto shard To.
type RebalanceMsg struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	To string `json:"to"`
}

// MoveStats reports a completed range move.
type MoveStats struct {
	// Source is the shard that owned the range before the move.
	Source string `json:"source"`
	// Moved is how many entries shipped to the destination (catch-up pages
	// may recount entries the first drain already shipped).
	Moved int `json:"moved"`
	// Removed is how many entries the source deleted after the cutover.
	Removed int `json:"removed"`
	// Pages is how many export pages the move took.
	Pages int `json:"pages"`
	// Epoch is the routing-table epoch the cutover produced.
	Epoch uint64 `json:"epoch"`
}

func (r *Router) handleRebalance(params json.RawMessage, tr *obs.Trace) (any, error) {
	var msg RebalanceMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	return r.Rebalance(msg.Lo, msg.Hi, msg.To, tr)
}

// retryPage runs one page operation, retrying transport faults while the
// peer shard is down or restarting. Application errors fail immediately.
func retryPage(p *pool, fn func(cc *wire.CloudClient) error) error {
	var err error
	for attempt := 0; attempt < moveRetries; attempt++ {
		if err = p.call(fn); err == nil || !transient(err) {
			return err
		}
		time.Sleep(moveBackoff)
	}
	return fmt.Errorf("shard: %s unreachable: %w", p.id, err)
}

// Rebalance moves the address range [lo, hi) — hi == 0 meaning 2^64 — onto
// shard dst while both shards keep serving:
//
//  1. A double-read window opens, so searches racing the move resolve
//     range labels against both shards.
//  2. Drain: the source streams the range page by page into the
//     destination, which journals every page before acknowledging it.
//  3. Cutover: with owner updates briefly held, one catch-up pass ships
//     entries that raced into the source during the drain, then the
//     routing table advances one epoch (journaled before it is applied).
//  4. The source deletes the range (journaled) and the window closes.
//
// Imports are idempotent and deletes re-run clean, so a move interrupted by
// a crash — of a shard or of the router — can simply be issued again.
func (r *Router) Rebalance(lo, hi uint64, dst string, tr *obs.Trace) (*MoveStats, error) {
	if _, ok := r.pools[dst]; !ok {
		return nil, fmt.Errorf("shard: no shard %q", dst)
	}
	// Resolve the single current owner of the range and open the window.
	r.mu.Lock()
	if r.window != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("shard: a range move is already in flight")
	}
	table := r.table
	src, err := rangeOwner(table, lo, hi)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if src == dst {
		r.mu.Unlock()
		return &MoveStats{Source: src, Epoch: table.Epoch}, nil
	}
	r.window = &moveWindow{lo: lo, hi: hi, src: src, dst: dst}
	r.mu.Unlock()
	r.met.rebalActive.Set(1)
	defer func() {
		r.mu.Lock()
		r.window = nil
		r.mu.Unlock()
		r.met.rebalActive.Set(0)
		r.met.rebalGauge.Set(0)
	}()
	r.logger.Info("rebalance start", "lo", lo, "hi", hi, "from", src, "to", dst)

	stats := &MoveStats{Source: src}
	total := r.rangeSizeEstimate(src)
	drain := func() error {
		var cursor []byte
		for {
			page, err := r.exportPage(src, lo, hi, cursor, tr)
			if err != nil {
				return err
			}
			if len(page.Labels) == 0 {
				return nil
			}
			if err := r.importPage(dst, page, tr); err != nil {
				return err
			}
			stats.Moved += len(page.Labels)
			stats.Pages++
			r.met.rebalMoved.Add(uint64(len(page.Labels)))
			if total > 0 {
				frac := float64(stats.Moved) / float64(total)
				if frac > 1 {
					frac = 1
				}
				r.met.rebalGauge.Set(frac)
			}
			if page.Next == nil {
				return nil
			}
			cursor = page.Next
		}
	}
	if err := drain(); err != nil {
		r.met.rebalances.WithLabelValues("error").Inc()
		return nil, err
	}

	// Cutover: hold updates, catch up stragglers, bump the epoch.
	r.updateMu.Lock()
	err = drain()
	if err == nil {
		var next *Table
		next, err = r.currentTable().Move(lo, hi, dst)
		if err == nil {
			// Journal-then-apply: an acknowledged epoch survives a router
			// restart.
			if err = r.journal(journalRec{Table: next}); err == nil {
				r.mu.Lock()
				r.pushTable(next)
				stats.Epoch = next.Epoch
				r.mu.Unlock()
			}
		}
	}
	r.updateMu.Unlock()
	if err != nil {
		r.met.rebalances.WithLabelValues("error").Inc()
		return nil, err
	}

	// Barrier before the source delete: flush every fetch round that could
	// still read the source as its primary. A round that snapshotted the
	// pre-cutover table may have already taken its destination (secondary)
	// read before the entry's page was imported — if its source read then
	// landed after the delete, the label would be found on neither side. The
	// write lock waits those rounds out; rounds starting afterwards observe
	// the post-cutover table and read the fully-imported destination as
	// primary, so the source's contents no longer matter.
	r.moveGate.Lock()
	r.moveGate.Unlock() //nolint:staticcheck // empty critical section IS the flush

	// The destination owns the range; drop it from the source. The window
	// is still open, so searches that routed before the epoch bump read the
	// destination as their second copy.
	err = retryPage(r.pools[src], func(cc *wire.CloudClient) error {
		removed, err := cc.DeleteRange(lo, hi)
		if err != nil {
			return err
		}
		stats.Removed = removed
		return nil
	})
	if err != nil {
		r.met.rebalances.WithLabelValues("error").Inc()
		return nil, err
	}
	r.met.rebalances.WithLabelValues("ok").Inc()
	r.logger.Info("rebalance done", "moved", stats.Moved, "removed", stats.Removed, "epoch", stats.Epoch)
	return stats, nil
}

// rangeOwner returns the single shard owning [lo, hi), or an error when the
// range spans shards (move smaller ranges — each seam is its own move).
func rangeOwner(t *Table, lo, hi uint64) (string, error) {
	if hi != 0 && lo >= hi {
		return "", fmt.Errorf("shard: empty move range")
	}
	owner := t.Lookup(lo)
	for _, s := range t.Segments {
		if s.Start > lo && (hi == 0 || s.Start < hi) && s.Shard != owner {
			return "", fmt.Errorf("shard: range [%#x, %#x) spans shards %s and %s; move each arc separately",
				lo, hi, owner, s.Shard)
		}
	}
	return owner, nil
}

// rangeSizeEstimate sizes the progress gauge: the source's total entry
// count is an upper bound for the range (exact when the source owns only
// the moving range).
func (r *Router) rangeSizeEstimate(src string) int {
	var total int
	err := r.pools[src].call(func(cc *wire.CloudClient) error {
		st, err := cc.Stats()
		if err != nil {
			return err
		}
		total = st.IndexEntries
		return nil
	})
	if err != nil {
		return 0
	}
	return total
}

func (r *Router) exportPage(src string, lo, hi uint64, cursor []byte, tr *obs.Trace) (*wire.ExportReply, error) {
	var page *wire.ExportReply
	err := retryPage(r.pools[src], func(cc *wire.CloudClient) error {
		var reply wire.ExportReply
		if err := cc.Client().CallTraced(wire.MethodCloudExport,
			&wire.ExportMsg{Lo: lo, Hi: hi, Cursor: cursor, Limit: movePageSize},
			&reply, tr, "scatter:"+src); err != nil {
			return err
		}
		page = &reply
		return nil
	})
	return page, err
}

func (r *Router) importPage(dst string, page *wire.ExportReply, tr *obs.Trace) error {
	return retryPage(r.pools[dst], func(cc *wire.CloudClient) error {
		return cc.Client().CallTraced(wire.MethodCloudImport,
			&wire.ImportMsg{Labels: page.Labels, Payloads: page.Payloads}, nil, tr, "scatter:"+dst)
	})
}

// RouterClient is a typed client for the router's admin methods; for the
// cloud methods a plain wire.CloudClient against the router works unchanged.
type RouterClient struct {
	c *wire.Client
}

// DialRouterOpts connects to a router's admin surface.
func DialRouterOpts(addr string, opts wire.ClientOptions) (*RouterClient, error) {
	c, err := wire.DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &RouterClient{c: c}, nil
}

// Rebalance asks the router to move [lo, hi) onto shard dst.
func (rc *RouterClient) Rebalance(lo, hi uint64, dst string) (*MoveStats, error) {
	var stats MoveStats
	if err := rc.c.Call(MethodRouterRebalance, &RebalanceMsg{Lo: lo, Hi: hi, To: dst}, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// TableInfo fetches the live routing table.
func (rc *RouterClient) TableInfo() (*TableInfo, error) {
	var info TableInfo
	if err := rc.c.Call(MethodRouterTable, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Shards fetches the per-shard status listing.
func (rc *RouterClient) Shards() ([]ShardStatus, error) {
	var out []ShardStatus
	if err := rc.c.Call(MethodRouterShards, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close closes the connection.
func (rc *RouterClient) Close() error { return rc.c.Close() }
