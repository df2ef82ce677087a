package wal

// A failed group flush is rewound before its committers hear "aborted", so
// no later fsync can make its records durable; a failed rewind fail-stops
// the log.

import (
	"errors"
	iofs "io/fs"
	"sync/atomic"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/vfs"
)

func commitRecs(tx uint64) []Record {
	return []Record{
		{Type: RecUpdate, Tx: tx, OID: oid.OID(tx), Data: []byte("image")},
		{Type: RecCommit, Tx: tx},
	}
}

// committedTxs replays a log and returns the transactions with a commit
// record, in order.
func committedTxs(t *testing.T, l *Log) []uint64 {
	t.Helper()
	var txs []uint64
	for _, r := range collect(t, l) {
		if r.Type == RecCommit {
			txs = append(txs, r.Tx)
		}
	}
	return txs
}

// TestFailedFlushIsRewound fails tx 2's write (whole or torn) or its fsync,
// commits tx 3, and power-cuts: the recovered log holds exactly tx 1 and
// tx 3 — the aborted group neither rides tx 3's fsync into durability nor
// leaves a torn frame that would end replay before tx 3.
func TestFailedFlushIsRewound(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   int // which of tx 2's operations fails: 1 = write, 2 = fsync
		kind vfs.FaultKind
	}{
		{"write EIO", 1, vfs.FaultEIO},
		{"short write", 1, vfs.FaultShortWrite},
		{"fsync EIO", 2, vfs.FaultEIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewFault()
			l, err := OpenOn(fs, "test.wal")
			if err != nil {
				t.Fatal(err)
			}
			if err := l.CommitBatch(commitRecs(1), true); err != nil {
				t.Fatal(err)
			}
			fs.FailNthOp(fs.Ops()+tc.op, tc.kind)
			err = l.CommitBatch(commitRecs(2), true)
			if err == nil || errors.Is(err, ErrInDoubt) {
				t.Fatalf("failed flush answered %v, want a plain (rewound) error", err)
			}
			if err := l.CommitBatch(commitRecs(3), true); err != nil {
				t.Fatalf("commit after a rewound flush: %v", err)
			}
			mem := vfs.NewMem()
			mem.Install(fs.CrashState(fs.Ops(), vfs.CrashSynced))
			l2, err := OpenOn(mem, "test.wal")
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := committedTxs(t, l2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
				t.Fatalf("recovered commits %v, want [1 3]", got)
			}
		})
	}
}

// brokenFS fails every file Sync and Truncate while broken is set.
type brokenFS struct {
	vfs.FS
	broken atomic.Bool
}

var errBroken = errors.New("device gone")

func (b *brokenFS) OpenFile(path string, flag int, perm iofs.FileMode) (vfs.File, error) {
	f, err := b.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &brokenFile{File: f, fs: b}, nil
}

type brokenFile struct {
	vfs.File
	fs *brokenFS
}

func (f *brokenFile) Sync() error {
	if f.fs.broken.Load() {
		return errBroken
	}
	return f.File.Sync()
}

func (f *brokenFile) Truncate(size int64) error {
	if f.fs.broken.Load() {
		return errBroken
	}
	return f.File.Truncate(size)
}

// TestFailedRewindFailStops: when the fsync fails and so does the rewind,
// the group's outcome is unknown — ErrInDoubt — and the log refuses every
// later commit with ErrFailStopped, writing nothing, even once the device
// recovers.
func TestFailedRewindFailStops(t *testing.T) {
	fs := &brokenFS{FS: vfs.NewMem()}
	l, err := OpenOn(fs, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.CommitBatch(commitRecs(1), true); err != nil {
		t.Fatal(err)
	}
	fs.broken.Store(true)
	if err := l.CommitBatch(commitRecs(2), true); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("flush and rewind both failed: %v, want ErrInDoubt", err)
	}
	fs.broken.Store(false)
	size := l.Size()
	for tx := uint64(3); tx <= 4; tx++ {
		if err := l.CommitBatch(commitRecs(tx), true); !errors.Is(err, ErrFailStopped) {
			t.Fatalf("commit %d after a failed rewind: %v, want ErrFailStopped", tx, err)
		}
	}
	if l.Size() != size {
		t.Fatalf("a refused commit wrote %d bytes", l.Size()-size)
	}
}
