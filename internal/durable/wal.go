package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slicer/internal/obs"
)

// WAL on-disk format. A log is a directory of segment files named
// wal-<firstIndex, 16 hex digits>.log, each an append-only run of framed
// records:
//
//	+----------------+----------------+====================+
//	| length  u32 LE | CRC32C  u32 LE | payload (length B) |
//	+----------------+----------------+====================+
//
// The CRC (Castagnoli polynomial, the one with hardware support) covers
// the payload. Record indices are implicit: the segment name carries the
// index of its first record and records are dense within a segment, so a
// byte offset maps to exactly one index — there is nothing in the frame
// for corruption to desynchronize. A torn tail (short header, short
// payload, or CRC mismatch) marks the end of the log; everything after it
// is discarded on open.

// MaxRecordSize bounds one WAL record (64 MiB, matching the wire
// protocol's message bound) so a corrupt length field cannot trigger an
// unbounded allocation.
const MaxRecordSize = 64 << 20

// segmentBytes is the segment rotation threshold.
const segmentBytes = 8 << 20

const (
	segPrefix = "wal-"
	segSuffix = ".log"
	recHdr    = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrRecordTorn reports a record cut short by a crash (or truncated
// adversarially) — a valid end-of-log marker, not a failure.
var ErrRecordTorn = errors.New("durable: torn wal record")

// ErrRecordCorrupt reports a record whose frame parses but whose checksum
// (or length bound) does not hold.
var ErrRecordCorrupt = errors.New("durable: corrupt wal record")

// AppendRecord appends the framed encoding of payload to dst.
func AppendRecord(dst, payload []byte) []byte {
	var hdr [recHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeRecord decodes one framed record from the front of data, returning
// the payload and the remaining bytes. io.EOF-like clean exhaustion is the
// caller's job (len(data) == 0); a short or checksum-failing record
// returns ErrRecordTorn / ErrRecordCorrupt.
func DecodeRecord(data []byte) (payload, rest []byte, err error) {
	if len(data) < recHdr {
		return nil, nil, ErrRecordTorn
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > MaxRecordSize {
		return nil, nil, fmt.Errorf("%w: length %d exceeds %d", ErrRecordCorrupt, n, MaxRecordSize)
	}
	if uint64(len(data)-recHdr) < uint64(n) {
		return nil, nil, ErrRecordTorn
	}
	payload = data[recHdr : recHdr+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrRecordCorrupt)
	}
	return payload, data[recHdr+int(n):], nil
}

// segName renders a segment file name for its first record index.
func segName(first uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix) }

// segFirst parses a segment file name back into its first record index.
func segFirst(name string) (uint64, error) {
	var first uint64
	if _, err := fmt.Sscanf(name, segPrefix+"%016x"+segSuffix, &first); err != nil {
		return 0, fmt.Errorf("durable: bad segment name %q: %w", name, err)
	}
	return first, nil
}

// walEntry is one decoded record with its global index.
type walEntry struct {
	index   uint64
	payload []byte
}

// segScan is one scanned segment.
type segScan struct {
	name     string
	first    uint64
	records  int
	validLen int64 // byte length of the valid record prefix
	torn     bool  // decoding stopped before the end of the file
}

// walScan is the result of reading a whole log directory.
type walScan struct {
	segs    []segScan  // surviving segments, ascending
	entries []walEntry // every valid record, ascending
	next    uint64     // index the next append gets (0 if no segments)
	dropped int        // decodable records discarded because they follow a torn/corrupt one
	drop    []string   // segment files to delete (they follow a torn segment)
}

// scanWAL reads every segment, stopping at the first torn or corrupt
// record: that record and everything after it (including whole later
// segments) is marked for discard, exactly the "truncate, don't fail"
// recovery contract.
func scanWAL(fsys FS, dir string) (*walScan, error) {
	names, err := listFiles(fsys, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	scan := &walScan{}
	stopped := false
	for _, name := range names {
		first, err := segFirst(name)
		if err != nil {
			// Not a segment of ours (e.g. editor droppings); skip it.
			continue
		}
		if stopped {
			// A torn record ends the log; later segments hold acknowledged
			// writes from before a rewind that never happened in practice,
			// or garbage. Count what was decodable and drop the file.
			data, err := ReadFile(fsys, filepath.Join(dir, name))
			if err == nil {
				for len(data) > 0 {
					var derr error
					_, data, derr = DecodeRecord(data)
					if derr != nil {
						break
					}
					scan.dropped++
				}
			}
			scan.drop = append(scan.drop, name)
			continue
		}
		if want := scan.next; want != 0 && first != want {
			return nil, fmt.Errorf("durable: wal gap: segment %s starts at %d, want %d", name, first, want)
		}
		data, err := ReadFile(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("durable: read segment %s: %w", name, err)
		}
		seg := segScan{name: name, first: first}
		idx := first
		rest := data
		for len(rest) > 0 {
			payload, r, derr := DecodeRecord(rest)
			if derr != nil {
				seg.torn = true
				stopped = true
				scan.dropped++ // the torn record itself
				break
			}
			scan.entries = append(scan.entries, walEntry{index: idx, payload: append([]byte(nil), payload...)})
			seg.records++
			seg.validLen += int64(recHdr + len(payload))
			idx++
			rest = r
		}
		if seg.torn && seg.records == 0 && len(scan.segs) > 0 {
			// Nothing valid in this segment: drop the whole file rather
			// than keeping an empty shell.
			scan.drop = append(scan.drop, name)
		} else {
			scan.segs = append(scan.segs, seg)
		}
		scan.next = idx
	}
	return scan, nil
}

// LogOptions configures OpenLog. The zero value is FsyncAlways, starting at
// index 1.
type LogOptions struct {
	// Fsync selects when appends become durable (default FsyncAlways).
	Fsync Policy
	// FsyncInterval is the maximum staleness under FsyncInterval.
	FsyncInterval time.Duration
	// Start is the index assigned to the first record of a brand-new log
	// (default 1). Ignored when segments already exist — recovery dictates
	// the position. Pass RecoveredState.NextIndex so a log whose segments
	// were fully compacted away continues counting after its snapshot.
	Start uint64
	// FileMode is the permission for created files (default 0o600: WAL
	// payloads are whatever the application journals, so default private).
	FileMode os.FileMode
	// segBytes overrides segmentBytes so tests rotate after a few records.
	segBytes int64
}

func (o LogOptions) segmentBytes() int64 {
	if o.segBytes <= 0 {
		return segmentBytes
	}
	return o.segBytes
}

func (o LogOptions) fileMode() os.FileMode {
	if o.FileMode == 0 {
		return 0o600
	}
	return o.FileMode
}

// Log is an append-only write-ahead log over segment files. All methods
// are safe for concurrent use; appends are serialized.
type Log struct {
	mu   sync.Mutex
	fsys FS
	dir  string
	opts LogOptions

	f        File // active segment
	segs     []segScan
	segStart uint64 // first index of the active segment
	segBytes int64  // bytes in the active segment
	next     uint64 // index the next append will get
	first    uint64 // smallest index still present (for introspection)
	dirty    bool   // unsynced appends pending
	lastSync time.Time
	closed   bool
	broken   error // first write/fsync failure; the log is fail-stop after it

	appendDur *obs.Histogram
	fsyncDur  *obs.Histogram
	appended  *obs.Counter
	bytes     *obs.Counter
	segments  *obs.Gauge
}

// OpenLog opens (or creates) the log in dir, truncating any torn tail left
// by a crash so the next append lands on a clean boundary. Records
// already present are not returned here — use Recover before OpenLog to
// read them.
func OpenLog(fsys FS, dir string, opts LogOptions) (*Log, error) {
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("durable: create log dir: %w", err)
	}
	scan, err := scanWAL(fsys, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{fsys: fsys, dir: dir, opts: opts, lastSync: time.Now()}
	// Drop whole segments that follow a torn record.
	for _, name := range scan.drop {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return nil, fmt.Errorf("durable: drop trailing segment %s: %w", name, err)
		}
	}
	if len(scan.drop) > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	if len(scan.segs) == 0 {
		start := opts.Start
		if start == 0 {
			start = 1
		}
		if err := l.openSegment(start); err != nil {
			return nil, err
		}
		l.next, l.first = start, start
		return l, nil
	}
	last := scan.segs[len(scan.segs)-1]
	f, err := fsys.OpenFile(filepath.Join(dir, last.name), os.O_RDWR|os.O_APPEND, opts.fileMode())
	if err != nil {
		return nil, fmt.Errorf("durable: open segment %s: %w", last.name, err)
	}
	if last.torn {
		// Chop the torn tail in place so the next record starts on a clean
		// frame boundary, and make the truncation durable before
		// acknowledging anything appended after it.
		if err := f.Truncate(last.validLen); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("durable: truncate torn tail of %s: %w", last.name, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("durable: sync truncated %s: %w", last.name, err)
		}
	}
	l.f = f
	l.segs = scan.segs[: len(scan.segs)-1 : len(scan.segs)-1]
	l.segStart = last.first
	l.segBytes = last.validLen
	l.next = last.first + uint64(last.records)
	l.first = scan.segs[0].first
	return l, nil
}

// SetMetrics attaches append/fsync latency histograms and volume counters
// (series prefix slicer_wal_*). Call before serving; nil-safe throughout.
func (l *Log) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendDur = reg.Histogram("slicer_wal_append_seconds",
		"Latency of one WAL append (frame write, excluding fsync).")
	l.fsyncDur = reg.Histogram("slicer_wal_fsync_seconds",
		"Latency of one WAL fsync.")
	l.appended = reg.Counter("slicer_wal_records_total", "Records appended to the WAL.")
	l.bytes = reg.Counter("slicer_wal_appended_bytes_total", "Bytes appended to the WAL (frames included).")
	l.segments = reg.Gauge("slicer_wal_segments", "Segment files currently in the WAL directory.")
	l.segments.Set(float64(len(l.segs) + 1))
}

// openSegment starts a fresh segment whose first record will get index
// first. Caller holds l.mu (or is initializing).
func (l *Log) openSegment(first uint64) error {
	name := segName(first)
	f, err := l.fsys.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, l.opts.fileMode())
	if err != nil {
		return fmt.Errorf("durable: create segment %s: %w", name, err)
	}
	if err := l.fsys.SyncDir(l.dir); err != nil {
		_ = f.Close()
		return err
	}
	l.f = f
	l.segStart = first
	l.segBytes = 0
	l.segments.Set(float64(len(l.segs) + 1))
	return nil
}

// Append journals one record and returns its index. Durability follows the
// configured fsync policy: under FsyncAlways the record is on disk when
// Append returns; under FsyncInterval/FsyncNever it may still be lost to a
// crash until the next sync. An error means the record must be considered
// lost (and the log is positioned so recovery discards any torn bytes).
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds %d", len(payload), MaxRecordSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	if l.segBytes >= l.opts.segmentBytes() {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	frame := AppendRecord(make([]byte, 0, recHdr+len(payload)), payload)
	t0 := l.appendDur.Start()
	if _, err := l.f.Write(frame); err != nil {
		// The segment may now hold a torn frame. Appending more after it
		// would bury acknowledged records behind the tear, so the log goes
		// fail-stop: every later Append returns this error and recovery
		// truncates the tear away.
		l.broken = fmt.Errorf("durable: append: %w", err)
		return 0, l.broken
	}
	l.appendDur.ObserveSince(t0)
	idx := l.next
	l.next++
	l.segBytes += int64(len(frame))
	l.dirty = true
	l.appended.Inc()
	l.bytes.Add(uint64(len(frame)))
	if err := l.maybeSyncLocked(); err != nil {
		return 0, err
	}
	return idx, nil
}

// maybeSyncLocked applies the fsync policy after an append.
func (l *Log) maybeSyncLocked() error {
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncInterval:
		if time.Since(l.lastSync) >= l.opts.FsyncInterval {
			return l.syncLocked()
		}
	case FsyncNever:
	}
	return nil
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if l.broken != nil {
		return l.broken
	}
	t0 := l.fsyncDur.Start()
	if err := l.f.Sync(); err != nil {
		// A failed fsync leaves the kernel page cache in an unknowable
		// state (the error is reported once and the dirty pages may be
		// dropped); treat it as fatal rather than retrying into silence.
		l.broken = fmt.Errorf("durable: fsync: %w", err)
		return l.broken
	}
	l.fsyncDur.ObserveSince(t0)
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Sync forces pending appends to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// rotateLocked seals the active segment and starts the next one. The old
// segment is always synced first: a closed segment is immutable and fully
// durable no matter the policy.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	records := int(l.next - l.segStart)
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segs = append(l.segs, segScan{name: segName(l.segStart), first: l.segStart, records: records, validLen: l.segBytes})
	return l.openSegment(l.next)
}

// CompactBefore removes closed segments every record of which has index
// <= upTo (typically the index covered by the latest snapshot). The active
// segment is never removed.
func (l *Log) CompactBefore(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		end := s.first + uint64(s.records) - 1
		if end <= upTo {
			if err := l.fsys.Remove(filepath.Join(l.dir, s.name)); err != nil {
				// Keep this and the rest; retry at the next compaction.
				kept = append(kept, l.segs[i:]...)
				break
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if len(l.segs) > 0 {
		l.first = l.segs[0].first
	} else {
		l.first = l.segStart
	}
	l.segments.Set(float64(len(l.segs) + 1))
	if removed {
		return l.fsys.SyncDir(l.dir)
	}
	return nil
}

// NextIndex reports the index the next Append will return.
func (l *Log) NextIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// FirstIndex reports the smallest index still present in the log files.
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// Segments reports how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) + 1
}

// Close syncs pending appends and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.syncLocked(); err != nil {
		_ = l.f.Close()
		return err
	}
	return l.f.Close()
}
