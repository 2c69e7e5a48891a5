package core

import (
	"encoding/json"
	"fmt"
	"math/big"

	"slicer/internal/accumulator"
	"slicer/internal/store"
	"slicer/internal/trapdoor"
)

// cloudState is the serialized form of a Cloud, letting a cloud server
// resume across restarts without the owner re-shipping the index. The
// witness cache is persisted too (rebuilding it is the expensive part of
// cold start). Cloud state holds no deployment secrets, only what the
// untrusted server already sees.
type cloudState struct {
	Params    Params   `json:"params"`
	AccPub    []byte   `json:"accPub"`
	Trapdoor  []byte   `json:"trapdoorPub"`
	Index     []byte   `json:"index"`
	Primes    [][]byte `json:"primes"`
	Ac        []byte   `json:"ac"`
	Mode      int      `json:"mode"`
	Witnesses [][]byte `json:"witnesses,omitempty"` // parallel to Primes in cached mode
}

// Marshal serializes the cloud's complete state. It takes the read lock,
// so snapshots taken while searches are in flight are consistent.
func (c *Cloud) Marshal() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := cloudState{
		Params:   c.params,
		AccPub:   c.accPub.Marshal(),
		Trapdoor: c.tpk.MarshalPublic(),
		Index:    c.index.Marshal(),
		Primes:   make([][]byte, len(c.primes)),
		Ac:       c.ac.Bytes(),
		Mode:     int(c.mode),
	}
	for i, p := range c.primes {
		st.Primes[i] = p.Bytes()
	}
	if c.mode == WitnessCached {
		st.Witnesses = make([][]byte, len(c.primes))
		for i, p := range c.primes {
			e, ok := c.witnesses[string(p.Bytes())]
			if !ok {
				return nil, fmt.Errorf("core: witness cache missing entry %d", i)
			}
			// Fold any pending update batches first: the file holds current
			// witnesses only, never the journal.
			st.Witnesses[i] = c.materialize(e, p).Bytes()
		}
	}
	return json.Marshal(&st)
}

// UnmarshalCloud reconstructs a Cloud serialized with Marshal. Persisted
// witnesses are verified against the accumulation value before use, as
// NewCloud verifies shipped ones, so a corrupted state file degrades to an
// error instead of invalid proofs.
func UnmarshalCloud(data []byte) (*Cloud, error) {
	var st cloudState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: parse cloud state: %w", err)
	}
	accPub, err := accumulator.UnmarshalPublic(st.AccPub)
	if err != nil {
		return nil, fmt.Errorf("core: cloud state: %w", err)
	}
	tpk, err := trapdoor.UnmarshalPublic(st.Trapdoor)
	if err != nil {
		return nil, fmt.Errorf("core: cloud state: %w", err)
	}
	ix, err := store.UnmarshalIndex(st.Index)
	if err != nil {
		return nil, fmt.Errorf("core: cloud state: %w", err)
	}
	cs := &CloudState{
		Params:         st.Params,
		AccumulatorPub: accPub,
		TrapdoorPub:    tpk,
		Index:          ix,
		Primes:         decodeInts(st.Primes),
		Ac:             new(big.Int).SetBytes(st.Ac),
	}
	if len(st.Witnesses) == len(st.Primes) {
		// A cache of any other length is lost or stale: rebuild it.
		if cs.Witnesses, err = accPub.PackValues(st.Witnesses); err != nil {
			return nil, fmt.Errorf("core: cloud state: %w", err)
		}
	}
	c, err := NewCloud(cs, WitnessMode(st.Mode))
	if err != nil {
		return nil, fmt.Errorf("core: cloud state: %w", err)
	}
	return c, nil
}

func decodeInts(bs [][]byte) []*big.Int {
	out := make([]*big.Int, len(bs))
	for i, b := range bs {
		out[i] = new(big.Int).SetBytes(b)
	}
	return out
}
