package wire

import (
	"encoding/json"
	"fmt"
	"math/big"

	"slicer/internal/audit"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/store"
)

// Shard-tier RPC methods. A routed deployment runs N plain cloud servers as
// shards: the router resolves index labels with cloud.mget, delegates VO
// generation with cloud.witnessx, and moves address ranges between live
// shards with cloud.export / cloud.import / cloud.deleteRange. The methods
// are ordinary cloud methods — a single-cloud deployment simply never calls
// them — so a shard is byte-for-byte the same binary and protocol as a
// standalone cloud. See PROTOCOL.md §10.
const (
	MethodCloudMGet    = "cloud.mget"
	MethodCloudWitness = "cloud.witnessx"
	MethodCloudExport  = "cloud.export"
	MethodCloudImport  = "cloud.import"
	MethodCloudDelete  = "cloud.deleteRange"
)

// MGetMsg asks for a batch of index labels.
type MGetMsg struct {
	Labels [][]byte `json:"labels"`
}

// MGetReply answers label i with found[i] and payloads[i] (empty when
// absent). Arrays are index-aligned with the request.
type MGetReply struct {
	Found    []bool   `json:"found"`
	Payloads [][]byte `json:"payloads"`
}

// WitnessMsg asks for the membership witness of an already-derived prime
// representative (big-endian bytes). The router computes the prime from the
// merged result set; the shard owns the modexp.
type WitnessMsg struct {
	X []byte `json:"x"`
}

// WitnessReply carries the encoded witness.
type WitnessReply struct {
	VO []byte `json:"vo"`
}

// ExportMsg asks for one page of index entries in the address range
// [lo, hi) — hi == 0 meaning 2^64 — with labels strictly greater than
// Cursor, sorted by label.
type ExportMsg struct {
	Lo     uint64 `json:"lo"`
	Hi     uint64 `json:"hi"`
	Cursor []byte `json:"cursor,omitempty"`
	Limit  int    `json:"limit"`
}

// ExportReply is one page; Next is the cursor of the following page (absent
// on the last page).
type ExportReply struct {
	Labels   [][]byte `json:"labels"`
	Payloads [][]byte `json:"payloads"`
	Next     []byte   `json:"next,omitempty"`
}

// ImportMsg ships a page of entries into the destination shard of a range
// move. Imports are idempotent: a retried page re-imports cleanly.
type ImportMsg struct {
	Labels   [][]byte `json:"labels"`
	Payloads [][]byte `json:"payloads"`
}

// DeleteRangeMsg removes every entry in the address range [lo, hi) from the
// source shard once the destination owns it.
type DeleteRangeMsg struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// DeleteRangeReply reports how many entries were removed.
type DeleteRangeReply struct {
	Removed int `json:"removed"`
}

// decodeEntries validates and converts aligned label/payload arrays.
func decodeEntries(labels, payloads [][]byte) ([]core.RangeEntry, error) {
	if len(labels) != len(payloads) {
		return nil, fmt.Errorf("wire: %d labels for %d payloads", len(labels), len(payloads))
	}
	entries := make([]core.RangeEntry, len(labels))
	for i := range labels {
		l, err := store.LabelFromBytes(labels[i])
		if err != nil {
			return nil, err
		}
		d, err := store.PayloadFromBytes(payloads[i])
		if err != nil {
			return nil, err
		}
		entries[i] = core.RangeEntry{Label: l, Payload: d}
	}
	return entries, nil
}

func (cs *CloudServer) handleMGet(params json.RawMessage) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var msg MGetMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	labels := make([]store.Label, len(msg.Labels))
	for i, raw := range msg.Labels {
		if labels[i], err = store.LabelFromBytes(raw); err != nil {
			return nil, err
		}
	}
	payloads, found := cloud.GetEntries(labels)
	reply := &MGetReply{Found: found, Payloads: make([][]byte, len(labels))}
	for i := range labels {
		if found[i] {
			reply.Payloads[i] = payloads[i][:]
		}
	}
	return reply, nil
}

func (cs *CloudServer) handleWitness(params json.RawMessage) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var msg WitnessMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	if len(msg.X) == 0 {
		return nil, fmt.Errorf("wire: witness request without a prime")
	}
	vo, err := cloud.WitnessForPrime(new(big.Int).SetBytes(msg.X))
	if err != nil {
		return nil, err
	}
	return &WitnessReply{VO: vo}, nil
}

func (cs *CloudServer) handleExport(params json.RawMessage) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var msg ExportMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	entries, next := cloud.ExportRange(msg.Lo, msg.Hi, msg.Cursor, msg.Limit)
	reply := &ExportReply{
		Labels:   make([][]byte, len(entries)),
		Payloads: make([][]byte, len(entries)),
		Next:     next,
	}
	for i, e := range entries {
		l, d := e.Label, e.Payload
		reply.Labels[i] = l[:]
		reply.Payloads[i] = d[:]
	}
	return reply, nil
}

func (cs *CloudServer) handleImport(params json.RawMessage, _ *obs.Trace, m Meta) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var msg ImportMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	entries, err := decodeEntries(msg.Labels, msg.Payloads)
	if err != nil {
		return nil, err
	}
	// Journal-before-ack, exactly like init/update: an acknowledged page
	// survives kill -9 and replays idempotently.
	if err := cs.journal().commit(cloudRecord(cloudRecImport, params), func() error { return cloud.ImportEntries(entries) }, cs.cloudSnapshotState); err != nil {
		return nil, err
	}
	cs.auditEvent(audit.KindRebalance, m, fmt.Sprintf("imported %d entries", len(entries)))
	return map[string]bool{"ok": true}, nil
}

func (cs *CloudServer) handleDeleteRange(params json.RawMessage, _ *obs.Trace, m Meta) (any, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	var msg DeleteRangeMsg
	if err := json.Unmarshal(params, &msg); err != nil {
		return nil, err
	}
	var removed int
	if err := cs.journal().commit(cloudRecord(cloudRecDelete, params), func() error { removed = cloud.DeleteRange(msg.Lo, msg.Hi); return nil }, cs.cloudSnapshotState); err != nil {
		return nil, err
	}
	cs.auditEvent(audit.KindRebalance, m, fmt.Sprintf("deleted range: %d entries", removed))
	return &DeleteRangeReply{Removed: removed}, nil
}

// MGet resolves a batch of index labels on the remote cloud.
func (cc *CloudClient) MGet(labels [][]byte) (*MGetReply, error) {
	var reply MGetReply
	if err := cc.c.Call(MethodCloudMGet, &MGetMsg{Labels: labels}, &reply); err != nil {
		return nil, err
	}
	if len(reply.Found) != len(labels) || len(reply.Payloads) != len(labels) {
		return nil, fmt.Errorf("wire: mget reply misaligned: %d/%d for %d labels",
			len(reply.Found), len(reply.Payloads), len(labels))
	}
	return &reply, nil
}

// Witness fetches the membership witness for a prime representative.
func (cc *CloudClient) Witness(x *big.Int) ([]byte, error) {
	var reply WitnessReply
	if err := cc.c.Call(MethodCloudWitness, &WitnessMsg{X: x.Bytes()}, &reply); err != nil {
		return nil, err
	}
	return reply.VO, nil
}

// Export fetches one page of an address range from the remote cloud.
func (cc *CloudClient) Export(msg *ExportMsg) (*ExportReply, error) {
	var reply ExportReply
	if err := cc.c.Call(MethodCloudExport, msg, &reply); err != nil {
		return nil, err
	}
	if len(reply.Labels) != len(reply.Payloads) {
		return nil, fmt.Errorf("wire: export reply misaligned: %d labels, %d payloads",
			len(reply.Labels), len(reply.Payloads))
	}
	return &reply, nil
}

// Import ships a page of entries into the remote cloud.
func (cc *CloudClient) Import(labels, payloads [][]byte) error {
	return cc.c.Call(MethodCloudImport, &ImportMsg{Labels: labels, Payloads: payloads}, nil)
}

// DeleteRange removes an address range from the remote cloud.
func (cc *CloudClient) DeleteRange(lo, hi uint64) (int, error) {
	var reply DeleteRangeReply
	if err := cc.c.Call(MethodCloudDelete, &DeleteRangeMsg{Lo: lo, Hi: hi}, &reply); err != nil {
		return 0, err
	}
	return reply.Removed, nil
}
