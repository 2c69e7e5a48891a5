// Package shard implements the horizontal scale-out tier for the Slicer
// cloud: a placement layer mapping PRF-derived index addresses onto N cloud
// shards, a router speaking the wire protocol on both sides (clients see one
// Cloud), and an admin-triggered rebalancer that moves address ranges
// between live shards under the WAL.
//
// The encrypted index shards cleanly because its labels are PRF outputs —
// uniform in the 64-bit address prefix store.Addr extracts — so placement is
// a consistent-hash ring over that address space, materialized as an
// explicit segment table (sorted breakpoints, binary-search lookup) that is
// epoch-numbered and journaled: every table change appends a record to the
// router's own durable WAL, and a restarted router recovers the exact view
// it acknowledged.
//
// The verifiable-search guarantee is preserved exactly: every shard holds
// the full replicated ADS (prime set, accumulation value, witness caches)
// while only the index partitions, so the router can merge per-token results
// deterministically — byte-identical to a single-cloud search — and have any
// shard produce the very witness a single cloud would have attached.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"slicer/internal/store"
)

// ringVnodes is how many ring points each shard contributes when a table is
// first built. More points smooth the initial split; rebalancing corrects
// residual skew at runtime.
const ringVnodes = 16

// Segment is one contiguous arc of the address space: [Start, nextStart)
// owned by Shard, where nextStart is the following segment's Start (or 2^64
// for the last segment).
type Segment struct {
	Start uint64 `json:"start"`
	Shard string `json:"shard"`
}

// Table is one epoch of the routing table. Segments are sorted by Start and
// cover the full space: Segments[0].Start is always 0.
type Table struct {
	Epoch    uint64    `json:"epoch"`
	Segments []Segment `json:"segments"`
}

// ringPoint hashes one (shard, vnode) pair onto the 64-bit ring. The
// derivation is stable across processes, so every router with the same
// shard list computes the same initial table.
func ringPoint(shard string, vnode int) uint64 {
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(vnode))
	sum := sha256.Sum256(append([]byte("slicer-ring|"+shard+"|"), v[:]...))
	return binary.BigEndian.Uint64(sum[:8])
}

// newTable builds the epoch-0 table for a shard list: each shard contributes
// vnodes consistent-hash points, and each arc between adjacent points
// belongs to the point opening it, with the arc below the lowest point
// wrapping to the owner of the highest.
func newTable(shards []string, vnodes int) (*Table, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: table needs at least one shard")
	}
	type point struct {
		at    uint64
		shard string
	}
	seen := make(map[string]bool, len(shards))
	var points []point
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("shard: empty shard ID")
		}
		if seen[s] {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", s)
		}
		seen[s] = true
		for v := 0; v < vnodes; v++ {
			points = append(points, point{at: ringPoint(s, v), shard: s})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].at != points[j].at {
			return points[i].at < points[j].at
		}
		return points[i].shard < points[j].shard // deterministic collision order
	})
	segs := make([]Segment, 0, len(points)+1)
	// The arc [0, points[0].at) wraps around to the highest point's owner.
	segs = append(segs, Segment{Start: 0, Shard: points[len(points)-1].shard})
	for _, p := range points {
		segs = append(segs, Segment{Start: p.at, Shard: p.shard})
	}
	t := &Table{Epoch: 0, Segments: coalesce(segs)}
	return t, nil
}

// coalesce merges adjacent segments with the same owner and drops
// zero-width duplicates (same Start: the later entry wins, matching the
// deterministic point order).
func coalesce(segs []Segment) []Segment {
	out := segs[:0]
	for _, s := range segs {
		if n := len(out); n > 0 {
			if out[n-1].Start == s.Start {
				out[n-1] = s
				continue
			}
			if out[n-1].Shard == s.Shard {
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// Validate checks structural invariants: non-empty, sorted, starting at 0,
// no empty owners.
func (t *Table) Validate() error {
	if len(t.Segments) == 0 {
		return fmt.Errorf("shard: table epoch %d has no segments", t.Epoch)
	}
	if t.Segments[0].Start != 0 {
		return fmt.Errorf("shard: table epoch %d does not cover address 0", t.Epoch)
	}
	for i, s := range t.Segments {
		if s.Shard == "" {
			return fmt.Errorf("shard: table epoch %d segment %d has no owner", t.Epoch, i)
		}
		if i > 0 && t.Segments[i-1].Start >= s.Start {
			return fmt.Errorf("shard: table epoch %d segments out of order at %d", t.Epoch, i)
		}
	}
	return nil
}

// Lookup returns the shard owning an address.
func (t *Table) Lookup(addr uint64) string {
	// First segment with Start > addr; the one before it owns addr.
	i := sort.Search(len(t.Segments), func(i int) bool { return t.Segments[i].Start > addr })
	return t.Segments[i-1].Shard
}

// Owner returns the shard owning a label's address.
func (t *Table) Owner(l store.Label) string { return t.Lookup(store.Addr(l)) }

// Shards returns the distinct shard IDs the table references, sorted.
func (t *Table) Shards() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range t.Segments {
		if !seen[s.Shard] {
			seen[s.Shard] = true
			out = append(out, s.Shard)
		}
	}
	sort.Strings(out)
	return out
}

// Move returns the next epoch's table with the address range [lo, hi) — hi
// == 0 meaning 2^64 — reassigned to shard dst. The receiver is unchanged.
func (t *Table) Move(lo, hi uint64, dst string) (*Table, error) {
	if dst == "" {
		return nil, fmt.Errorf("shard: move needs a destination shard")
	}
	if hi != 0 && lo >= hi {
		return nil, fmt.Errorf("shard: empty move range")
	}
	// Breakpoints: every existing start plus the move boundaries.
	marks := map[uint64]bool{0: true, lo: true}
	if hi != 0 {
		marks[hi] = true
	}
	for _, s := range t.Segments {
		marks[s.Start] = true
	}
	starts := make([]uint64, 0, len(marks))
	for m := range marks {
		starts = append(starts, m)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	segs := make([]Segment, 0, len(starts))
	for _, b := range starts {
		owner := t.Lookup(b)
		if b >= lo && (hi == 0 || b < hi) {
			owner = dst
		}
		segs = append(segs, Segment{Start: b, Shard: owner})
	}
	next := &Table{Epoch: t.Epoch + 1, Segments: coalesce(segs)}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	return next, nil
}

// Ranges returns the [lo, hi) arcs (hi == 0 meaning 2^64) a shard owns, in
// address order.
func (t *Table) Ranges(shard string) [][2]uint64 {
	var out [][2]uint64
	for i, s := range t.Segments {
		if s.Shard != shard {
			continue
		}
		var hi uint64 // 2^64 for the last segment
		if i+1 < len(t.Segments) {
			hi = t.Segments[i+1].Start
		}
		out = append(out, [2]uint64{s.Start, hi})
	}
	return out
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	return &Table{Epoch: t.Epoch, Segments: append([]Segment(nil), t.Segments...)}
}
