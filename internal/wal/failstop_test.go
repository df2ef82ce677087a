package wal

// A failed group flush cannot be rewound into "aborted" — its committers
// released their locks before it — so every member is in doubt, and the log
// fail-stops: batches queued behind the failure are never written, and
// Enqueue refuses from then on.

import (
	"errors"
	iofs "io/fs"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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

// TestFailedFlushPutsGroupInDoubt fails the write (whole or torn) or the
// fsync of a group carrying tx 2 and tx 3. Both members are in doubt, the
// flush hook never sees them, and tx 4 is refused at Enqueue with nothing
// written. After a power cut in any mode the log holds tx 1, then possibly
// tx 2 and tx 3 in order — the in-doubt group may go either way — and never
// tx 4.
func TestFailedFlushPutsGroupInDoubt(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   int // which of the group's operations fails: 1 = write, 2 = fsync
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
			hooked := 0
			l.SetFlushHook(func(ps []any) { hooked += len(ps) })
			if err := l.CommitBatch(commitRecs(1), true); err != nil {
				t.Fatal(err)
			}
			fs.FailNthOp(fs.Ops()+tc.op, tc.kind)
			t2, err := l.Enqueue(commitRecs(2), true, 2)
			if err != nil {
				t.Fatal(err)
			}
			t3, err := l.Enqueue(commitRecs(3), true, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, tk := range []Ticket{t3, t2} {
				if err := l.Await(tk); !errors.Is(err, ErrInDoubt) {
					t.Fatalf("member %d of the failed group: %v, want ErrInDoubt", tk, err)
				}
			}
			if hooked != 1 {
				t.Fatalf("flush hook saw %d batches, want only tx 1's", hooked)
			}
			fs.FailNthOp(0, tc.kind) // disarm: the device works again
			ops := fs.Ops()
			if _, err := l.Enqueue(commitRecs(4), true, 4); !errors.Is(err, ErrFailStopped) {
				t.Fatalf("Enqueue after a failed flush: %v, want ErrFailStopped", err)
			}
			if err := l.CommitBatch(commitRecs(4), true); !errors.Is(err, ErrFailStopped) {
				t.Fatalf("CommitBatch after a failed flush: %v, want ErrFailStopped", err)
			}
			if fs.Ops() != ops {
				t.Fatalf("refused commits issued %d storage ops", fs.Ops()-ops)
			}
			for _, mode := range vfs.Modes {
				mem := vfs.NewMem()
				mem.Install(fs.CrashState(fs.Ops(), mode))
				l2, err := OpenOn(mem, "test.wal")
				if err != nil {
					t.Fatal(err)
				}
				got := committedTxs(t, l2)
				l2.Close()
				if len(got) == 0 || !slices.Equal(got, []uint64{1, 2, 3}[:len(got)]) {
					t.Fatalf("%v: recovered commits %v, want a prefix of [1 2 3] holding 1", mode, got)
				}
			}
		})
	}
}

// gateFS holds every file Sync while hold is set: the Sync announces itself
// on entered and returns whatever the test sends on release (an error fails
// it, nil lets the inner Sync run).
type gateFS struct {
	vfs.FS
	hold    atomic.Bool
	entered chan struct{}
	release chan error
}

func newGateFS() *gateFS {
	return &gateFS{FS: vfs.NewMem(), entered: make(chan struct{}), release: make(chan error)}
}

func (g *gateFS) OpenFile(path string, flag int, perm iofs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	vfs.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if f.fs.hold.Load() {
		f.fs.entered <- struct{}{}
		if err := <-f.fs.release; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestQueuedBehindFailedFlushFailStops: tx 2 is enqueued while tx 1's fsync
// is in progress, then that fsync fails. Tx 1 is in doubt; tx 2's batch is
// never written — its Await reports ErrFailStopped — and later commits are
// refused at Enqueue although the device works again.
func TestQueuedBehindFailedFlushFailStops(t *testing.T) {
	fs := newGateFS()
	l, err := OpenOn(fs, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.hold.Store(true)
	first := make(chan error, 1)
	go func() { first <- l.CommitBatch(commitRecs(1), true) }()
	<-fs.entered
	size := l.Size()
	t2, err := l.Enqueue(commitRecs(2), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.release <- errors.New("device gone")
	if err := <-first; !errors.Is(err, ErrInDoubt) {
		t.Fatalf("tx 1 after its fsync failed: %v, want ErrInDoubt", err)
	}
	fs.hold.Store(false)
	if err := l.Await(t2); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("tx 2, queued behind the failed flush: %v, want ErrFailStopped", err)
	}
	if _, err := l.Enqueue(commitRecs(3), true, nil); !errors.Is(err, ErrFailStopped) {
		t.Fatalf("Enqueue after the log fail-stopped: %v, want ErrFailStopped", err)
	}
	if l.Size() != size {
		t.Fatalf("batches behind the failed flush wrote %d bytes", l.Size()-size)
	}
}

// TestSizeDoesNotWaitForFsync: Size answers while a group's fsync is held,
// so a committer checking whether the log outgrew its checkpoint threshold
// never waits out the next group's device sync.
func TestSizeDoesNotWaitForFsync(t *testing.T) {
	fs := newGateFS()
	l, err := OpenOn(fs, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.hold.Store(true)
	done := make(chan error, 1)
	go func() { done <- l.CommitBatch(commitRecs(1), true) }()
	<-fs.entered
	sized := make(chan int64, 1)
	go func() { sized <- l.Size() }()
	select {
	case n := <-sized:
		if n == 0 {
			t.Error("Size during the fsync does not count the group's write")
		}
	case <-time.After(5 * time.Second):
		t.Error("Size blocked behind an fsync in progress")
	}
	fs.release <- nil
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
