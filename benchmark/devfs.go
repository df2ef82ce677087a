package main

import (
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"

	"sentinel/internal/vfs"
)

// devFS is a counting vfs.FS decorator: every read, write and sync the
// storage stack issues passes through it, split into the WAL file and
// everything else (the heap file and its side index). It is the
// benchmark's device-level view — the source of every vfs.* and buffer.*
// metric — and sits outside vfs.Latency so the simulated device time never
// includes the counting.
type devFS struct {
	inner vfs.FS
	wal   fileCounts
	heap  fileCounts
}

type fileCounts struct {
	reads, readBytes   atomic.Int64
	writes, writeBytes atomic.Int64
	syncs              atomic.Int64
}

// fsCounts is a plain copy of the counters at one instant.
type fsCounts struct {
	walWrites, walWriteBytes, walSyncs    int64
	heapReads, heapReadBytes              int64
	heapWrites, heapWriteBytes, heapSyncs int64
}

func newDevFS(inner vfs.FS) *devFS { return &devFS{inner: inner} }

func (d *devFS) counts() fsCounts {
	return fsCounts{
		walWrites:      d.wal.writes.Load(),
		walWriteBytes:  d.wal.writeBytes.Load(),
		walSyncs:       d.wal.syncs.Load(),
		heapReads:      d.heap.reads.Load(),
		heapReadBytes:  d.heap.readBytes.Load(),
		heapWrites:     d.heap.writes.Load(),
		heapWriteBytes: d.heap.writeBytes.Load(),
		heapSyncs:      d.heap.syncs.Load(),
	}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		walWrites:      c.walWrites - o.walWrites,
		walWriteBytes:  c.walWriteBytes - o.walWriteBytes,
		walSyncs:       c.walSyncs - o.walSyncs,
		heapReads:      c.heapReads - o.heapReads,
		heapReadBytes:  c.heapReadBytes - o.heapReadBytes,
		heapWrites:     c.heapWrites - o.heapWrites,
		heapWriteBytes: c.heapWriteBytes - o.heapWriteBytes,
		heapSyncs:      c.heapSyncs - o.heapSyncs,
	}
}

func (c fsCounts) writeBytes() int64 { return c.walWriteBytes + c.heapWriteBytes }

func (d *devFS) OpenFile(path string, flag int, perm iofs.FileMode) (vfs.File, error) {
	f, err := d.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	// After a checkpoint the live log is the file that was opened as
	// sentinel.wal.tmp and renamed over the old one.
	c := &d.heap
	if strings.Contains(filepath.Base(path), ".wal") {
		c = &d.wal
	}
	return &devFile{File: f, c: c}, nil
}

func (d *devFS) ReadFile(path string) ([]byte, error) {
	b, err := d.inner.ReadFile(path)
	d.heap.reads.Add(1)
	d.heap.readBytes.Add(int64(len(b)))
	return b, err
}

func (d *devFS) Rename(oldPath, newPath string) error { return d.inner.Rename(oldPath, newPath) }
func (d *devFS) Remove(path string) error             { return d.inner.Remove(path) }
func (d *devFS) MkdirAll(dir string, perm iofs.FileMode) error {
	return d.inner.MkdirAll(dir, perm)
}

func (d *devFS) SyncDir(dir string) error {
	d.heap.syncs.Add(1)
	return d.inner.SyncDir(dir)
}

type devFile struct {
	vfs.File
	c *fileCounts
}

func (f *devFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *devFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *devFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *devFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *devFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}
