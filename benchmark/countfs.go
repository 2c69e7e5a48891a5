package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slicer/internal/durable"
)

// countingFS is the real filesystem with counters around it, handed to the
// servers' data directories in the traced run only: bytes written, fsyncs
// and their latency, and renames (one per snapshot installed).
type countingFS struct {
	mu      sync.Mutex
	bytes   int64
	renames int
	fsyncUs []float64
}

func newCountingFS() *countingFS { return &countingFS{} }

type fsCounts struct {
	bytes   int64
	renames int
	fsyncs  int
}

func (c *countingFS) counts() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounts{c.bytes, c.renames, len(c.fsyncUs)}
}

// fsyncLatencies copies the fsync times seen so far, in microseconds.
func (c *countingFS) fsyncLatencies() []float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.fsyncUs...)
}

func (c *countingFS) timeSync(sync func() error) error {
	t0 := time.Now()
	err := sync()
	us := float64(time.Since(t0)) / 1e3
	c.mu.Lock()
	c.fsyncUs = append(c.fsyncUs, us)
	c.mu.Unlock()
	return err
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := durable.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	c.renames++
	c.mu.Unlock()
	return durable.OS.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error                   { return durable.OS.Remove(name) }
func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return durable.OS.ReadDir(name) }
func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return durable.OS.MkdirAll(path, perm)
}
func (c *countingFS) SyncDir(name string) error {
	return c.timeSync(func() error { return durable.OS.SyncDir(name) })
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.timeSync(f.File.Sync) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file removed by a concurrent snapshot is simply not counted
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
