// Package store provides the three state containers of the Slicer
// protocols: the history-independent encrypted index dictionary I, the
// trapdoor state dictionary T kept by the data owner/user, and the set-hash
// dictionary S kept by the data owner. It also tracks storage footprints so
// the evaluation harness can reproduce the paper's storage-cost figures.
//
// T is handed to every user after every insert, so it is the one container
// built to be copied: a TrapdoorStates clone shares all frozen storage with
// its origin and costs nothing per keyword (see TrapdoorStates).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slicer/internal/mhash"
	"slicer/internal/prf"
)

// EntrySize is the width of index labels and payloads (one PRF output).
const EntrySize = prf.Size

// Label is an index address l = F(G1, t||c).
type Label [EntrySize]byte

// Payload is a masked index entry d = F(G2, t||c) XOR Enc(K_R, R).
type Payload [EntrySize]byte

// LabelFromBytes converts a PRF output into a Label.
func LabelFromBytes(b []byte) (Label, error) {
	var l Label
	if len(b) != EntrySize {
		return l, fmt.Errorf("store: label must be %d bytes, got %d", EntrySize, len(b))
	}
	copy(l[:], b)
	return l, nil
}

// PayloadFromBytes converts raw bytes into a Payload.
func PayloadFromBytes(b []byte) (Payload, error) {
	var p Payload
	if len(b) != EntrySize {
		return p, fmt.Errorf("store: payload must be %d bytes, got %d", EntrySize, len(b))
	}
	copy(p[:], b)
	return p, nil
}

// Index is the encrypted index I: a history-independent dictionary from
// PRF-derived labels to masked record handles. Go's map iteration order is
// independent of insertion history, and no ordering metadata is retained,
// so the stored structure reveals nothing about insertion order.
type Index struct {
	m map[Label]Payload
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{m: make(map[Label]Payload)}
}

// Put inserts an entry. Inserting a duplicate label is an error: labels are
// PRF outputs over unique (keyword, epoch, counter) triples, so a collision
// indicates protocol misuse.
func (ix *Index) Put(l Label, d Payload) error {
	if _, exists := ix.m[l]; exists {
		return fmt.Errorf("store: duplicate index label %x", l[:4])
	}
	ix.m[l] = d
	return nil
}

// Get looks up a label.
func (ix *Index) Get(l Label) (Payload, bool) {
	d, ok := ix.m[l]
	return d, ok
}

// Len returns the number of entries.
func (ix *Index) Len() int { return len(ix.m) }

// SizeBytes returns the logical storage footprint of the index (labels plus
// payloads), used by the Fig. 4a experiment.
func (ix *Index) SizeBytes() int { return len(ix.m) * 2 * EntrySize }

// Merge copies every entry of other into ix (applying an index delta shipped
// by the owner after Insert). It is all or nothing: if any label of other is
// already stored, Merge returns the error and ix is unchanged.
func (ix *Index) Merge(other *Index) error {
	for l := range other.m {
		if _, exists := ix.m[l]; exists {
			return fmt.Errorf("store: duplicate index label %x", l[:4])
		}
	}
	for l, d := range other.m {
		ix.m[l] = d
	}
	return nil
}

// Marshal serializes the index. Entries are emitted in map order, which is
// already history independent.
func (ix *Index) Marshal() []byte {
	out := make([]byte, 8, 8+len(ix.m)*2*EntrySize)
	binary.BigEndian.PutUint64(out, uint64(len(ix.m)))
	for l, d := range ix.m {
		out = append(out, l[:]...)
		out = append(out, d[:]...)
	}
	return out
}

// UnmarshalIndex parses an index produced by Marshal.
func UnmarshalIndex(data []byte) (*Index, error) {
	if len(data) < 8 {
		return nil, errors.New("store: truncated index encoding")
	}
	n := binary.BigEndian.Uint64(data)
	data = data[8:]
	// Divide rather than multiply: n*2*EntrySize wraps for a hostile n.
	if len(data)%(2*EntrySize) != 0 || n != uint64(len(data)/(2*EntrySize)) {
		return nil, errors.New("store: index encoding length mismatch")
	}
	ix := &Index{m: make(map[Label]Payload, n)}
	for i := uint64(0); i < n; i++ {
		var l Label
		var d Payload
		copy(l[:], data[:EntrySize])
		copy(d[:], data[EntrySize:2*EntrySize])
		ix.m[l] = d
		data = data[2*EntrySize:]
	}
	return ix, nil
}

// TrapdoorState is one keyword's entry in T: the newest trapdoor t_j and
// the number of epochs j.
type TrapdoorState struct {
	Trapdoor []byte
	Epoch    int
}

// TrapdoorStates is the dictionary T, keyed by raw keyword bytes. The data
// owner maintains it and ships copies to authorized data users.
//
// It is a persistent dictionary: writes land in head, which only this value
// can reach; Freeze moves head into gens, a list of generations (oldest
// first, a newer one shadowing the older) that clones share and nobody
// writes again. Sharing is what makes Clone cost nothing per keyword.
type TrapdoorStates struct {
	head map[string]TrapdoorState
	gens []map[string]TrapdoorState
	n    int // distinct keywords over head and gens
}

// NewTrapdoorStates returns an empty T.
func NewTrapdoorStates() *TrapdoorStates { return &TrapdoorStates{} }

// Get returns the state for a keyword, if present. The Trapdoor slice is
// the dictionary's own and may be shared with clones: read it, never write
// it.
func (t *TrapdoorStates) Get(keyword []byte) (TrapdoorState, bool) {
	return t.find(keyword, 0)
}

// find probes head, then the generations from the newest down to gens[from].
func (t *TrapdoorStates) find(keyword []byte, from int) (TrapdoorState, bool) {
	if st, ok := t.head[string(keyword)]; ok {
		return st, true
	}
	for i := len(t.gens) - 1; i >= from; i-- {
		if st, ok := t.gens[i][string(keyword)]; ok {
			return st, true
		}
	}
	return TrapdoorState{}, false
}

// Put stores a keyword's state, copying the trapdoor bytes.
func (t *TrapdoorStates) Put(keyword []byte, st TrapdoorState) {
	if _, ok := t.Get(keyword); !ok {
		t.n++
	}
	if t.head == nil {
		t.head = make(map[string]TrapdoorState)
	}
	cp := make([]byte, len(st.Trapdoor))
	copy(cp, st.Trapdoor)
	t.head[string(keyword)] = TrapdoorState{Trapdoor: cp, Epoch: st.Epoch}
}

// Len returns the number of tracked keywords.
func (t *TrapdoorStates) Len() int { return t.n }

// Freeze makes the writes since the last Freeze shareable. Until the next
// Put, every other method only reads t, so a writer that freezes after each
// batch may be cloned from several goroutines at once.
//
// The head becomes the newest generation, and while the newest generation
// is at least half the size of the one before it the two are merged into a
// new map (the logarithmic method). That leaves every generation more than
// twice the next newer one, so a lookup probes O(log |T|) maps; and a merge
// copies at most three entries per entry of its newer side, into a map no
// smaller than its older side, which comes to O(log |T|) copies per Put,
// amortised.
func (t *TrapdoorStates) Freeze() {
	if len(t.head) == 0 {
		return
	}
	// Clones alias the old backing array: capping it makes append copy.
	gens := append(t.gens[:len(t.gens):len(t.gens)], t.head)
	t.head = nil
	for n := len(gens); n >= 2 && 2*len(gens[n-1]) >= len(gens[n-2]); n = len(gens) {
		merged := make(map[string]TrapdoorState, len(gens[n-2])+len(gens[n-1]))
		for _, g := range gens[n-2:] {
			for k, st := range g {
				merged[k] = st
			}
		}
		gens = append(gens[:n-2], merged)
	}
	t.gens = gens
}

// Clone returns an independent copy of T (the owner hands one to each user)
// that shares every frozen generation with t.
func (t *TrapdoorStates) Clone() *TrapdoorStates {
	t.Freeze()
	return &TrapdoorStates{gens: t.gens, n: t.n}
}

// Range calls f for every (keyword, state) pair until f returns false.
// Iteration order is unspecified.
func (t *TrapdoorStates) Range(f func(keyword []byte, st TrapdoorState) bool) {
	for k, st := range t.head {
		if !f([]byte(k), st) {
			return
		}
	}
	for i, g := range t.gens {
		for k, st := range g {
			keyword := []byte(k)
			if _, shadowed := t.find(keyword, i+1); shadowed {
				continue
			}
			if !f(keyword, st) {
				return
			}
		}
	}
}

// SizeBytes returns the logical storage footprint of T.
func (t *TrapdoorStates) SizeBytes() int {
	total := 0
	t.Range(func(keyword []byte, st TrapdoorState) bool {
		total += len(keyword) + len(st.Trapdoor) + 8
		return true
	})
	return total
}

// SetHashKey builds the S dictionary key t || j || G1 || G2 used by
// Algorithms 1 and 2. Components are length-delimited by construction
// (t, G1, G2 have fixed widths within one deployment).
func SetHashKey(trapdoor []byte, epoch int, g1, g2 []byte) string {
	key := make([]byte, 0, len(trapdoor)+8+len(g1)+len(g2))
	key = append(key, trapdoor...)
	var j [8]byte
	binary.BigEndian.PutUint64(j[:], uint64(epoch))
	key = append(key, j[:]...)
	key = append(key, g1...)
	key = append(key, g2...)
	return string(key)
}

// SetHashes is the dictionary S mapping t||j||G1||G2 to the multiset hash of
// the keyword's cumulative encrypted result set.
type SetHashes struct {
	m map[string]mhash.Hash
}

// NewSetHashes returns an empty S.
func NewSetHashes() *SetHashes {
	return &SetHashes{m: make(map[string]mhash.Hash)}
}

// Put stores a hash under a key.
func (s *SetHashes) Put(key string, h mhash.Hash) { s.m[key] = h }

// Pop removes and returns the hash under a key (Algorithm 2 line 14).
func (s *SetHashes) Pop(key string) (mhash.Hash, bool) {
	h, ok := s.m[key]
	if ok {
		delete(s.m, key)
	}
	return h, ok
}

// Get returns the hash under a key without removing it.
func (s *SetHashes) Get(key string) (mhash.Hash, bool) {
	h, ok := s.m[key]
	return h, ok
}

// Len returns the number of stored hashes.
func (s *SetHashes) Len() int { return len(s.m) }

// Range calls f for every (key, hash) pair until f returns false.
// Iteration order is unspecified.
func (s *SetHashes) Range(f func(key string, h mhash.Hash) bool) {
	for k, h := range s.m {
		if !f(k, h) {
			return
		}
	}
}
