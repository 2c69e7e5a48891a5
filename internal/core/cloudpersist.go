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
			st.Witnesses[i] = c.materialize(e).Bytes()
		}
	}
	return json.Marshal(&st)
}

// UnmarshalCloud reconstructs a Cloud serialized with Marshal. Persisted
// witnesses are verified against the accumulation value before use, so a
// corrupted state file degrades to an error instead of invalid proofs.
func UnmarshalCloud(data []byte) (*Cloud, error) {
	var st cloudState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: parse cloud state: %w", err)
	}
	if err := st.Params.validate(); err != nil {
		return nil, err
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
	mode := WitnessMode(st.Mode)
	if mode != WitnessCached && mode != WitnessOnDemand {
		return nil, fmt.Errorf("core: cloud state: unknown witness mode %d", st.Mode)
	}
	c := &Cloud{
		params:   st.Params,
		accPub:   accPub,
		tpk:      tpk,
		index:    ix,
		primeSet: make(map[string]int, len(st.Primes)),
		ac:       new(big.Int).SetBytes(st.Ac),
		mode:     mode,
	}
	primes := make([]*big.Int, len(st.Primes))
	for i, p := range st.Primes {
		primes[i] = new(big.Int).SetBytes(p)
	}
	c.addPrimes(primes)

	if mode == WitnessCached {
		if len(st.Witnesses) != len(primes) {
			// Cache lost or stale: rebuild from scratch.
			c.rebuildWitnesses()
			return c, nil
		}
		c.witnesses = make(map[string]*witEntry, len(primes))
		for i, wb := range st.Witnesses {
			w := new(big.Int).SetBytes(wb)
			if !accPub.VerifyMem(c.ac, primes[i], w) {
				return nil, fmt.Errorf("core: cloud state: persisted witness %d is invalid", i)
			}
			c.witnesses[string(primes[i].Bytes())] = &witEntry{w: w}
		}
	}
	if mode == WitnessOnDemand {
		c.resetTree()
	}
	return c, nil
}
