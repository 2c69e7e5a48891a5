package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendAll(t *testing.T, l *Log, payloads ...string) []uint64 {
	t.Helper()
	idxs := make([]uint64, 0, len(payloads))
	for _, p := range payloads {
		idx, err := l.Append([]byte(p))
		if err != nil {
			t.Fatalf("append %q: %v", p, err)
		}
		idxs = append(idxs, idx)
	}
	return idxs
}

func recoverEntries(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	rec, err := Recover(fsys, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	out := make([]string, len(rec.Entries))
	for i, e := range rec.Entries {
		out[i] = string(e)
	}
	return out
}

func TestLogAppendRecover(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idxs := appendAll(t, l, "one", "two", "three")
	if want := []uint64{1, 2, 3}; !equalU64(idxs, want) {
		t.Fatalf("indices %v, want %v", idxs, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := recoverEntries(t, fsys, "data")
	if want := []string{"one", "two", "three"}; !equalStr(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestLogSurvivesCrashWithFsyncAlways(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	fsys.Crash() // no Close: the process died
	got := recoverEntries(t, fsys, "data")
	if want := []string{"a", "b"}; !equalStr(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestLogFsyncNeverLosesUnsyncedOnCrash(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	fsys.Crash()
	if got := recoverEntries(t, fsys, "data"); len(got) != 0 {
		t.Fatalf("recovered %v, want nothing (appends were never synced)", got)
	}
}

func TestLogTruncatesTornTail(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "good-1", "good-2")
	// Crash mid-append: the next frame is half-written.
	fsys.FailNextWriteShort()
	if _, err := l.Append([]byte("torn-record-payload")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after short write: %v, want ErrInjected", err)
	}
	// The log is fail-stop after a torn write.
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("append after torn write succeeded; the tear would bury it")
	}
	fsys.Crash()

	rec, err := Recover(fsys, "data")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(rec.Entries))
	for i, e := range rec.Entries {
		got[i] = string(e)
	}
	if want := []string{"good-1", "good-2"}; !equalStr(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.TruncatedRecords == 0 {
		t.Fatal("expected the torn tail to be counted")
	}

	// Reopen for writes: the torn bytes are chopped and appends continue
	// at the right index.
	l2, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways, Start: rec.NextIndex})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := l2.Append([]byte("good-3"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("resumed at index %d, want 3", idx)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoverEntries(t, fsys, "data"); !equalStr(got, []string{"good-1", "good-2", "good-3"}) {
		t.Fatalf("after reopen: %v", got)
	}
}

func TestLogCorruptMiddleRecordTruncates(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "aaaa", "bbbb", "cccc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the middle record on disk.
	name := filepath.Join("data", segName(1))
	data, err := ReadFile(fsys, name)
	if err != nil {
		t.Fatal(err)
	}
	off := (recHdr + 4) + recHdr // into record 2's payload
	data[off] ^= 0xff
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_TRUNC|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	// Recovery keeps only the prefix before the corruption.
	rec, err := Recover(fsys, "data")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 || string(rec.Entries[0]) != "aaaa" {
		t.Fatalf("recovered %d entries, want only the clean prefix", len(rec.Entries))
	}
	if rec.NextIndex != 2 {
		t.Fatalf("next index %d, want 2", rec.NextIndex)
	}
}

func TestLogSegmentRotationAndCompaction(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways, segBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 10; i++ {
		p := fmt.Sprintf("payload-%02d", i)
		want = append(want, p)
	}
	appendAll(t, l, want...)
	if l.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segments", l.Segments())
	}
	if got := recoverEntries(t, fsys, "data"); !equalStr(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}

	// Compact everything up to index 7: early segments disappear, records
	// 8.. survive.
	if err := l.CompactBefore(7); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(fsys, "data")
	if err != nil {
		t.Fatal(err)
	}
	if rec.FirstIndex > 8 {
		t.Fatalf("first surviving index %d, want <= 8", rec.FirstIndex)
	}
	for i, e := range rec.Entries {
		if want := fmt.Sprintf("payload-%02d", int(rec.FirstIndex)-1+i); string(e) != want {
			t.Fatalf("entry %d = %q, want %q", i, e, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogReopenContinuesIndices(t *testing.T) {
	fsys := NewMemFS()
	l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := l2.Append([]byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 {
		t.Fatalf("index %d, want 3", idx)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogFailAfterWriteOpsSweep(t *testing.T) {
	// Crash at every possible write-op boundary while appending 5 records;
	// whatever Append acknowledged must survive, and recovery must never
	// error. This is the deterministic kill -9 sweep.
	for crashAt := 1; crashAt < 40; crashAt++ {
		fsys := NewMemFS()
		l, err := OpenLog(fsys, "data", LogOptions{Fsync: FsyncAlways, segBytes: 48})
		if err != nil {
			t.Fatal(err)
		}
		fsys.FailAfterWriteOps(crashAt)
		var acked []string
		for i := 0; i < 5; i++ {
			p := fmt.Sprintf("rec-%d", i)
			if _, err := l.Append([]byte(p)); err != nil {
				break
			}
			acked = append(acked, p)
		}
		fsys.Crash()
		rec, err := Recover(fsys, "data")
		if err != nil {
			t.Fatalf("crashAt=%d: recover: %v", crashAt, err)
		}
		got := make([]string, len(rec.Entries))
		for i, e := range rec.Entries {
			got[i] = string(e)
		}
		// Acked is a prefix of got (an append may be durable without its
		// ack having been returned — crash between write and return).
		if len(got) < len(acked) {
			t.Fatalf("crashAt=%d: acked %v but recovered only %v", crashAt, acked, got)
		}
		for i := range acked {
			if got[i] != acked[i] {
				t.Fatalf("crashAt=%d: recovered %v, acked %v", crashAt, got, acked)
			}
		}
	}
}

func TestDecodeRecordRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte(""), []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		buf = AppendRecord(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = DecodeRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in string
		p  Policy
		ok bool
	}{
		{"always", FsyncAlways, true},
		{"", FsyncAlways, true},
		{"never", FsyncNever, true},
		{"100ms", FsyncInterval, true},
		{"2s", FsyncInterval, true},
		{"banana", 0, false},
		{"-5s", 0, false},
	} {
		p, _, err := ParsePolicy(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParsePolicy(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && p != tc.p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", tc.in, p, tc.p)
		}
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
