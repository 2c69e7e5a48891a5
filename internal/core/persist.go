package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"slices"

	"slicer/internal/accumulator"
	"slicer/internal/mhash"
	"slicer/internal/prf"
	"slicer/internal/sore"
	"slicer/internal/store"
	"slicer/internal/symenc"
	"slicer/internal/trapdoor"
)

// ownerState is the serialized form of an Owner. All byte slices marshal
// as base64 under encoding/json. The blob contains every secret of the
// deployment — persist it like a key file.
type ownerState struct {
	Params    Params             `json:"params"`
	MasterKey []byte             `json:"masterKey"`
	EncKey    []byte             `json:"encKey"`
	Trapdoor  []byte             `json:"trapdoorSecret"`
	Acc       []byte             `json:"accumulatorSecret"`
	Ac        []byte             `json:"ac"`
	Primes    [][]byte           `json:"primes"`
	States    []trapdoorStateRec `json:"states"`
	SetHashes []setHashRec       `json:"setHashes"`
	Seen      []uint64           `json:"seen"`
	Built     bool               `json:"built"`
}

type trapdoorStateRec struct {
	Keyword  []byte `json:"w"`
	Trapdoor []byte `json:"t"`
	Epoch    int    `json:"j"`
}

type setHashRec struct {
	Key  []byte `json:"k"`
	Hash []byte `json:"h"`
}

// Marshal serializes the owner's complete state (keys, T, S, X, Ac) so a
// CLI or service can resume it in a later process. The output holds all
// deployment secrets, and is the same bytes for the same state.
func (o *Owner) Marshal() ([]byte, error) {
	accBytes, err := o.acc.MarshalSecret()
	if err != nil {
		return nil, err
	}
	st := ownerState{
		Params:    o.params,
		MasterKey: o.master.Bytes(),
		EncKey:    o.enc.KeyBytes(),
		Trapdoor:  o.tsk.MarshalSecret(),
		Acc:       accBytes,
		Ac:        o.ac.Bytes(),
		Primes:    make([][]byte, len(o.primes)),
		Seen:      make([]uint64, 0, len(o.seen)),
		Built:     o.built,
	}
	for i, p := range o.primes {
		st.Primes[i] = p.Bytes()
	}
	o.states.Range(func(w []byte, ts store.TrapdoorState) bool {
		st.States = append(st.States, trapdoorStateRec{Keyword: w, Trapdoor: ts.Trapdoor, Epoch: ts.Epoch})
		return true
	})
	o.setHashes.Range(func(k string, h mhash.Hash) bool {
		st.SetHashes = append(st.SetHashes, setHashRec{Key: []byte(k), Hash: h.Marshal()})
		return true
	})
	for id := range o.seen {
		st.Seen = append(st.Seen, id)
	}
	// Map order is random: sort, so one state always marshals to one blob.
	slices.SortFunc(st.States, func(a, b trapdoorStateRec) int { return bytes.Compare(a.Keyword, b.Keyword) })
	slices.SortFunc(st.SetHashes, func(a, b setHashRec) int { return bytes.Compare(a.Key, b.Key) })
	slices.Sort(st.Seen)
	return json.Marshal(&st)
}

// UnmarshalOwner reconstructs an Owner serialized with Marshal.
func UnmarshalOwner(data []byte) (*Owner, error) {
	var st ownerState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: parse owner state: %w", err)
	}
	if err := st.Params.validate(); err != nil {
		return nil, err
	}
	master, err := prf.KeyFromBytes(st.MasterKey)
	if err != nil {
		return nil, fmt.Errorf("core: owner state: %w", err)
	}
	enc, err := symenc.NewCipher(st.EncKey)
	if err != nil {
		return nil, fmt.Errorf("core: owner state: %w", err)
	}
	tsk, err := trapdoor.UnmarshalSecret(st.Trapdoor)
	if err != nil {
		return nil, fmt.Errorf("core: owner state: %w", err)
	}
	acc, err := accumulator.UnmarshalSecret(st.Acc)
	if err != nil {
		return nil, fmt.Errorf("core: owner state: %w", err)
	}
	scheme, err := sore.New(master.SubKey("sore"), st.Params.Bits)
	if err != nil {
		return nil, err
	}
	o := &Owner{
		params:    st.Params,
		master:    master,
		gKey:      master.SubKey("G"),
		enc:       enc,
		scheme:    scheme,
		tsk:       tsk,
		acc:       acc,
		states:    store.NewTrapdoorStates(),
		setHashes: store.NewSetHashes(),
		ac:        new(big.Int).SetBytes(st.Ac),
		primes:    make([]*big.Int, len(st.Primes)),
		seen:      make(map[uint64]struct{}, len(st.Seen)),
		built:     st.Built,
	}
	for i, p := range st.Primes {
		o.primes[i] = new(big.Int).SetBytes(p)
	}
	for _, rec := range st.States {
		o.states.Put(rec.Keyword, store.TrapdoorState{Trapdoor: rec.Trapdoor, Epoch: rec.Epoch})
	}
	o.states.Freeze()
	for _, rec := range st.SetHashes {
		h, err := mhash.Unmarshal(rec.Hash)
		if err != nil {
			return nil, fmt.Errorf("core: owner state set hash: %w", err)
		}
		o.setHashes.Put(string(rec.Key), h)
	}
	for _, id := range st.Seen {
		o.seen[id] = struct{}{}
	}
	return o, nil
}
