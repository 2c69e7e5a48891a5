package shard

import (
	"encoding/json"
	"testing"
)

func TestNewTableCoversSpaceDeterministically(t *testing.T) {
	a, err := newTable([]string{"s1", "s2", "s3"}, ringVnodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b, _ := newTable([]string{"s1", "s2", "s3"}, ringVnodes)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("table construction is not deterministic")
	}
	if got := len(a.Shards()); got != 3 {
		t.Fatalf("table references %d shards, want 3", got)
	}
	// Every address resolves to a configured shard.
	for _, addr := range []uint64{0, 1, 1 << 32, 1<<63 + 12345, ^uint64(0)} {
		owner := a.Lookup(addr)
		if owner != "s1" && owner != "s2" && owner != "s3" {
			t.Fatalf("Lookup(%#x) = %q", addr, owner)
		}
	}
}

func TestNewTableRejectsBadInput(t *testing.T) {
	if _, err := newTable(nil, ringVnodes); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := newTable([]string{"a", "a"}, 4); err == nil {
		t.Fatal("duplicate shard ID accepted")
	}
	if _, err := newTable([]string{""}, 4); err == nil {
		t.Fatal("empty shard ID accepted")
	}
}

func TestTableMove(t *testing.T) {
	tab, err := newTable([]string{"s1", "s2"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = uint64(1) << 62, uint64(1) << 63
	next, err := tab.Move(lo, hi, "s2")
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != tab.Epoch+1 {
		t.Fatalf("epoch = %d, want %d", next.Epoch, tab.Epoch+1)
	}
	for _, addr := range []uint64{lo, lo + 999, hi - 1} {
		if got := next.Lookup(addr); got != "s2" {
			t.Fatalf("moved address %#x owned by %q", addr, got)
		}
	}
	// Addresses outside the range keep their owner.
	for _, addr := range []uint64{0, lo - 1, hi, ^uint64(0)} {
		if tab.Lookup(addr) != next.Lookup(addr) {
			t.Fatalf("address %#x changed owner outside the moved range", addr)
		}
	}
	// The original table is untouched.
	if tab.Epoch != 0 {
		t.Fatal("Move mutated its receiver")
	}
	// Moving the top arc with hi == 0 (2^64).
	top, err := next.Move(15<<60, 0, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := top.Lookup(^uint64(0)); got != "s1" {
		t.Fatalf("top address owned by %q after move", got)
	}
	if _, err := next.Move(5, 5, "s1"); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := next.Move(0, 10, ""); err == nil {
		t.Fatal("empty destination accepted")
	}
}

func TestTableRangesRoundTrip(t *testing.T) {
	tab, err := newTable([]string{"s1", "s2", "s3"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The union of all shards' ranges tiles the space exactly.
	type arc struct{ lo, hi uint64 }
	var arcs []arc
	for _, id := range tab.Shards() {
		for _, rg := range tab.Ranges(id) {
			arcs = append(arcs, arc{rg[0], rg[1]})
			// Spot-check ownership inside the arc.
			if got := tab.Lookup(rg[0]); got != id {
				t.Fatalf("Ranges(%s) includes %#x owned by %s", id, rg[0], got)
			}
		}
	}
	if len(arcs) != len(tab.Segments) {
		t.Fatalf("%d arcs for %d segments", len(arcs), len(tab.Segments))
	}
}

func TestRangeOwner(t *testing.T) {
	tab := &Table{Epoch: 3, Segments: []Segment{
		{Start: 0, Shard: "a"},
		{Start: 1 << 32, Shard: "b"},
		{Start: 1 << 48, Shard: "a"},
	}}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if owner, err := rangeOwner(tab, 0, 1<<32); err != nil || owner != "a" {
		t.Fatalf("rangeOwner = %q, %v", owner, err)
	}
	if owner, err := rangeOwner(tab, 1<<48, 0); err != nil || owner != "a" {
		t.Fatalf("top-arc rangeOwner = %q, %v", owner, err)
	}
	if _, err := rangeOwner(tab, 0, 1<<33); err == nil {
		t.Fatal("cross-shard range accepted")
	}
}
