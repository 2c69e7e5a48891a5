package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"slicer/internal/chain"
	"slicer/internal/durable"
	"slicer/internal/obs"
)

// Durability integration: a server that is handed a data directory journals
// every state-mutating request into a write-ahead log before acknowledging
// it, periodically folds its full state into an atomic snapshot, and on
// restart recovers by loading the newest snapshot and replaying the WAL
// tail. The cloud journals the owner's init and update RPCs (the search
// path stays read-only and untouched); the chain journals every sealed
// block in the snapshot encoding, so restart replays to the exact state and
// receipt roots through full block validation.

// Cloud WAL record types: one type byte followed by the RPC's raw JSON
// params, so the journal replays through the same decode path the live
// request took.
const (
	cloudRecInit   byte = 1
	cloudRecUpdate byte = 2
	// cloudRecImport / cloudRecDelete journal the two state-mutating halves
	// of a shard rebalance (cloud.import / cloud.deleteRange).
	cloudRecImport byte = 3
	cloudRecDelete byte = 4
)

// cloudRecord encodes one cloud WAL record for journal.commit.
func cloudRecord(kind byte, params json.RawMessage) func() ([]byte, error) {
	return func() ([]byte, error) { return append([]byte{kind}, params...), nil }
}

// DurabilityOptions configures a server's data directory.
type DurabilityOptions struct {
	// FS is the filesystem to persist into (nil: the real one). Tests
	// inject durable.MemFS to crash the server at exact write boundaries.
	FS durable.FS
	// Dir is the data directory holding WAL segments and snapshots.
	Dir string
	// Fsync selects when journaled records become durable (default
	// FsyncAlways: an acknowledged request survives kill -9).
	Fsync durable.Policy
	// FsyncInterval bounds staleness under durable.FsyncInterval.
	FsyncInterval time.Duration
	// Registry receives WAL/snapshot/recovery series (may be nil).
	Registry *obs.Registry
	// Logger records snapshot failures and recovery summaries (may be nil).
	Logger *slog.Logger
	// snapEvery overrides snapshotRecords so tests snapshot after a few
	// records.
	snapEvery int
}

// State is folded into a snapshot once snapshotRecords records or
// snapshotBytes WAL bytes were journaled since the last one.
const (
	snapshotRecords = 256
	snapshotBytes   = 16 << 20
)

func (o DurabilityOptions) fsys() durable.FS {
	if o.FS == nil {
		return durable.OS
	}
	return o.FS
}

// RecoveryStats summarizes what a server rebuilt from its data directory.
type RecoveryStats struct {
	// SnapshotIndex is the WAL index the loaded snapshot covered (0: none).
	SnapshotIndex uint64
	// Replayed is how many WAL records were re-applied on top of it.
	Replayed int
	// Skipped counts records that failed to re-apply (they failed the same
	// way live — journal-then-apply keeps them in the log regardless).
	Skipped int
	// Truncated counts torn/corrupt records discarded from the WAL tail.
	Truncated int
}

// journal couples a WAL and a snapshotter behind one mutex so that journal
// order is exactly apply order — required because update application is
// last-writer-wins on the accumulation value, so replaying in a different
// order than the live server applied would diverge.
type journal struct {
	mu         sync.Mutex
	log        *durable.Log
	snap       *durable.Snapshotter
	every      int
	sinceRecs  int
	sinceBytes int64
	logger     *slog.Logger
	snapFails  *obs.Counter
}

// openJournal opens (or creates) the WAL in the data directory, resuming at
// next, and wires metrics.
func openJournal(opts DurabilityOptions, next uint64) (*journal, error) {
	if opts.Dir == "" {
		return nil, errors.New("wire: durability needs a data directory")
	}
	log, err := durable.OpenLog(opts.fsys(), opts.Dir, durable.LogOptions{
		Fsync:         opts.Fsync,
		FsyncInterval: opts.FsyncInterval,
		Start:         next,
	})
	if err != nil {
		return nil, err
	}
	j := &journal{
		log:    log,
		snap:   durable.NewSnapshotter(opts.fsys(), opts.Dir, 0),
		every:  snapshotRecords,
		logger: opts.Logger,
	}
	if opts.snapEvery > 0 {
		j.every = opts.snapEvery
	}
	if opts.Registry != nil {
		log.SetMetrics(opts.Registry)
		j.snap.SetMetrics(opts.Registry)
		j.snapFails = opts.Registry.Counter("slicer_snapshot_failures_total",
			"Snapshot saves that failed (the WAL keeps covering the state).")
	}
	return j, nil
}

// commit journals the record enc encodes, applies it, and acknowledges only
// after both — the WAL discipline. A record whose apply fails stays
// journaled: replay fails it the same deterministic way and skips it. state
// provides the full serialized state when a snapshot trigger fires;
// snapshot failures are non-fatal (the WAL still covers everything). A nil
// journal (no data directory) only applies, and never calls enc.
func (j *journal) commit(enc func() ([]byte, error), apply func() error, state func() ([]byte, error)) error {
	if j == nil {
		return apply()
	}
	rec, err := enc()
	if err != nil {
		return fmt.Errorf("wire: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	idx, err := j.log.Append(rec)
	if err != nil {
		return fmt.Errorf("wire: journal append: %w", err)
	}
	// Only the size is kept: the record, as large as the witness set on an
	// update that ships one, is garbage while apply runs.
	recBytes := int64(len(rec))
	if err := apply(); err != nil {
		return err
	}
	j.sinceRecs++
	j.sinceBytes += recBytes
	if j.sinceRecs >= j.every || j.sinceBytes >= snapshotBytes {
		j.snapshotLocked(idx, state)
	}
	return nil
}

// snapshotLocked folds the current state into a snapshot covering every
// record up to idx, then compacts the WAL prefix it covers. Caller holds
// j.mu, which keeps the marshaled state consistent with idx.
func (j *journal) snapshotLocked(idx uint64, state func() ([]byte, error)) {
	payload, err := state()
	if err == nil {
		err = j.snap.Save(idx, payload)
	}
	if err != nil {
		j.snapFails.Inc()
		if j.logger != nil {
			j.logger.Warn("snapshot failed; WAL retained", "index", idx, "err", err)
		}
		return
	}
	j.sinceRecs, j.sinceBytes = 0, 0
	if err := j.log.CompactBefore(idx); err != nil && j.logger != nil {
		j.logger.Warn("wal compaction failed", "upTo", idx, "err", err)
	}
}

// close syncs and closes the WAL; closing a nil journal does nothing.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Sync(); err != nil {
		_ = j.log.Close()
		return err
	}
	return j.log.Close()
}

// registerRecoveryMetrics publishes what a recovery did (slicer_recovery_*).
func registerRecoveryMetrics(reg *obs.Registry, stats *RecoveryStats) {
	if reg == nil {
		return
	}
	reg.Counter("slicer_recoveries_total", "Times this process recovered state from its data directory.").Inc()
	reg.Counter("slicer_recovery_replayed_total", "WAL records replayed on top of the loaded snapshot.").
		Add(uint64(stats.Replayed))
	reg.Counter("slicer_recovery_skipped_total", "WAL records that failed to re-apply during replay.").
		Add(uint64(stats.Skipped))
	reg.Counter("slicer_recovery_truncated_total", "Torn or corrupt records discarded from the WAL tail.").
		Add(uint64(stats.Truncated))
}

// EnableDurability gives the cloud server a data directory: it first
// recovers any state already there (newest snapshot + WAL tail), then
// journals every subsequent init/update before acknowledging it. Call
// before Listen; it may not be combined with a prior Restore.
func (cs *CloudServer) EnableDurability(opts DurabilityOptions) (*RecoveryStats, error) {
	rec, err := durable.Recover(opts.fsys(), opts.Dir)
	if err != nil {
		return nil, err
	}
	stats := &RecoveryStats{SnapshotIndex: rec.SnapshotIndex, Truncated: rec.TruncatedRecords}
	if rec.Snapshot != nil {
		if err := cs.Restore(rec.Snapshot); err != nil {
			return nil, fmt.Errorf("wire: restore cloud snapshot: %w", err)
		}
	}
	for _, e := range rec.Entries {
		if err := cs.replayCloudRecord(e); err != nil {
			stats.Skipped++
			if opts.Logger != nil {
				opts.Logger.Warn("skipping unreplayable WAL record", "err", err)
			}
			continue
		}
		stats.Replayed++
	}
	jour, err := openJournal(opts, rec.NextIndex)
	if err != nil {
		return nil, err
	}
	registerRecoveryMetrics(opts.Registry, stats)
	cs.mu.Lock()
	cs.jour = jour
	cs.mu.Unlock()
	return stats, nil
}

// replayCloudRecord re-applies one journaled RPC through the live decode
// path.
func (cs *CloudServer) replayCloudRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("wire: empty WAL record")
	}
	switch rec[0] {
	case cloudRecInit:
		cloud, err := newCloud(rec[1:])
		if err != nil {
			return fmt.Errorf("wire: replay init: %w", err)
		}
		return cs.install(cloud)
	case cloudRecUpdate:
		cloud, err := cs.get()
		if err != nil {
			return fmt.Errorf("wire: replay update: %w", err)
		}
		out, err := decodeUpdate(rec[1:])
		if err != nil {
			return fmt.Errorf("wire: replay update: %w", err)
		}
		return cloud.ApplyUpdate(out)
	case cloudRecImport:
		cloud, err := cs.get()
		if err != nil {
			return fmt.Errorf("wire: replay import: %w", err)
		}
		var msg ImportMsg
		if err := json.Unmarshal(rec[1:], &msg); err != nil {
			return fmt.Errorf("wire: replay import: %w", err)
		}
		entries, err := decodeEntries(msg.Labels, msg.Payloads)
		if err != nil {
			return fmt.Errorf("wire: replay import: %w", err)
		}
		return cloud.ImportEntries(entries)
	case cloudRecDelete:
		cloud, err := cs.get()
		if err != nil {
			return fmt.Errorf("wire: replay delete: %w", err)
		}
		var msg DeleteRangeMsg
		if err := json.Unmarshal(rec[1:], &msg); err != nil {
			return fmt.Errorf("wire: replay delete: %w", err)
		}
		cloud.DeleteRange(msg.Lo, msg.Hi)
		return nil
	default:
		return fmt.Errorf("wire: unknown WAL record type %d", rec[0])
	}
}

// cloudSnapshotState marshals the hosted cloud for a snapshot trigger.
func (cs *CloudServer) cloudSnapshotState() ([]byte, error) {
	cloud, err := cs.get()
	if err != nil {
		return nil, err
	}
	return cloud.Marshal()
}

// EnableDurability gives the chain server a data directory. Recovery
// imports the newest snapshot into every validator node through full block
// validation, then replays journaled blocks above the restored height — a
// block that fails validation is an error naming it, never skipped; from
// then on every sealed block is journaled before the step is acknowledged.
// Call before Listen.
func (cs *ChainServer) EnableDurability(opts DurabilityOptions) (*RecoveryStats, error) {
	rec, err := durable.Recover(opts.fsys(), opts.Dir)
	if err != nil {
		return nil, err
	}
	stats := &RecoveryStats{SnapshotIndex: rec.SnapshotIndex, Truncated: rec.TruncatedRecords}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if rec.Snapshot != nil {
		snap, err := chain.UnmarshalSnapshot(rec.Snapshot)
		if err != nil {
			return nil, err
		}
		for _, node := range cs.network.Nodes() {
			if err := node.ImportSnapshot(snap); err != nil {
				return nil, fmt.Errorf("wire: restore chain snapshot: %w", err)
			}
		}
	}
	// A block is journaled only after it sealed, so one that no longer
	// validates means a corrupt journal or one written under other
	// consensus rules (a different state-root definition, say). Skipping
	// it, as the cloud does with a rejected update, would bring the chain
	// up at a lower height and let it fork its own history.
	for _, e := range rec.Entries {
		if err := cs.replayBlockRecord(e); err != nil {
			return nil, fmt.Errorf("wire: chain journal in %s does not replay: %w", opts.Dir, err)
		}
		stats.Replayed++
	}
	jour, err := openJournal(opts, rec.NextIndex)
	if err != nil {
		return nil, err
	}
	registerRecoveryMetrics(opts.Registry, stats)
	cs.jour = jour
	return stats, nil
}

// replayBlockRecord re-imports one journaled block into every node through
// full validation. Blocks at or below a node's height (already covered by
// the snapshot) are skipped. Caller holds cs.mu.
func (cs *ChainServer) replayBlockRecord(rec []byte) error {
	block, err := chain.DecodeBlock(rec)
	if err != nil {
		return err
	}
	for _, node := range cs.network.Nodes() {
		if block.Header.Number <= node.Height() {
			continue
		}
		if err := node.ImportBlock(block); err != nil {
			return fmt.Errorf("block %d: %w", block.Header.Number, err)
		}
	}
	return nil
}

// chainSnapshotStateLocked exports the full chain for a snapshot trigger.
// Caller holds cs.mu (handleStep does).
func (cs *ChainServer) chainSnapshotStateLocked() ([]byte, error) {
	return cs.network.Leader().ExportSnapshot().Marshal()
}
