package core

// Tests for the commit pipeline (commit.go): the order its stages publish
// in, what each may hold while it runs, early lock release, the head/tail
// cut (Pending), and the failure contracts — a heap error behind the commit
// record, a fenced quorum wait, and a failed log flush (in doubt, the log
// fail-stopped behind it).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/txn"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
	"sentinel/internal/wal"
)

// stageLog records pipeline observations in arrival order.
type stageLog struct {
	mu  sync.Mutex
	got []string
}

func (l *stageLog) add(s string) {
	l.mu.Lock()
	l.got = append(l.got, s)
	l.mu.Unlock()
}

func (l *stageLog) DeliverEvent(uint64, event.Occurrence) { l.add("push") }

func (l *stageLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.got...)
}

// quorumDB opens a persistent database that waits for one follower ack per
// commit, with one PX instance.
func quorumDB(t *testing.T, async bool) (*Database, oid.OID) {
	t.Helper()
	db := MustOpen(Options{
		Dir: "db", VFS: vfs.NewMem(), Output: io.Discard,
		SyncReplicas: 1, AsyncDetached: async,
	})
	mkPersistentClass(t, db)
	return db, mkPersistentObjects(t, db, 1)[0]
}

// TestCommitStageOrder drives one commit through a recording Replicator, a
// recording sink and a detached rule, with a second transaction queued on
// the committing transaction's 2PL lock. Ship runs in the head, before that
// transaction can run (it is blocked on the lock until the commit's
// enqueue); the durable mark must come before that transaction can finish
// (it read the commit's write, so its read-only commit waits for the flush
// that announces the mark); WaitQuorum must run with the lock released (it
// waits for the blocked transaction to finish, which it only can once the
// lock is gone); and the observable order must be ship < durable <
// quorum-wait < push < detached effect.
func TestCommitStageOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		async bool
	}{
		{"synchronous detached", false},
		{"detached pool", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, id := quorumDB(t, tc.async)
			defer db.Close()
			log := &stageLog{}
			if _, err := db.SubscribeSink(id, SinkFilter{}, log); err != nil {
				t.Fatal(err)
			}
			if err := db.Atomically(func(tx *Tx) error {
				r, err := db.CreateRule(tx, RuleSpec{
					Name: "after", EventSrc: "end PX::Set(float v)", Coupling: "detached",
					Action: func(rule.ExecContext, event.Detection) error {
						log.add("detached effect")
						return nil
					},
				})
				if err != nil {
					return err
				}
				return db.Subscribe(tx, id, r.ID())
			}); err != nil {
				t.Fatal(err)
			}

			readerDone := make(chan struct{})
			db.SetReplicator(Replicator{
				Ship: func(b ReplBatch) {
					if b.LSN == 0 {
						return
					}
					select {
					case <-readerDone:
						log.add("ship: conflicting transaction already ran")
					default:
						log.add("ship")
					}
				},
				Durable: func(uint64) {
					select {
					case <-readerDone:
						log.add("durable: conflicting transaction already finished")
					default:
						log.add("durable")
					}
				},
				WaitQuorum: func(uint64, int, time.Duration) error {
					select {
					case <-readerDone:
						log.add("quorum-wait")
					case <-time.After(10 * time.Second):
						log.add("quorum-wait: 2PL lock still held")
					}
					return nil
				},
			})

			tx := db.Begin()
			if _, err := db.Send(tx, id, "Set", value.Float(1)); err != nil {
				t.Fatal(err)
			}
			// Queue a reader behind tx's exclusive lock before committing.
			waits := db.tm.Stats().Waits
			go func() {
				defer close(readerDone)
				if err := db.Atomically(func(rtx *Tx) error {
					_, err := db.Get(rtx, id, "x")
					return err
				}); err != nil {
					t.Error(err)
				}
			}()
			for db.tm.Stats().Waits == waits {
				time.Sleep(time.Millisecond)
			}
			if err := db.Commit(tx); err != nil {
				t.Fatal(err)
			}
			db.WaitIdle()

			want := []string{"ship", "durable", "quorum-wait", "push", "detached effect"}
			got := log.snapshot()
			if len(got) != len(want) {
				t.Fatalf("observed %q, want %q", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("observed %q, want %q", got, want)
				}
			}
		})
	}
}

// TestFencedQuorumWaitStillReclaims: ErrFenced from the quorum wait reports
// a commit that is durable locally, so reclaim must still run — the deleted
// object's tombstone leaves the directory — while nothing is published.
func TestFencedQuorumWaitStillReclaims(t *testing.T) {
	db, id := quorumDB(t, false)
	defer db.Close()
	log := &stageLog{}
	if _, err := db.SubscribeSink(id, SinkFilter{}, log); err != nil {
		t.Fatal(err)
	}
	db.SetReplicator(Replicator{
		Ship:       func(ReplBatch) {},
		WaitQuorum: func(uint64, int, time.Duration) error { return ErrFenced },
	})
	err := db.Atomically(func(tx *Tx) error {
		if _, err := db.Send(tx, id, "Set", value.Float(1)); err != nil {
			return err
		}
		return db.DeleteObject(tx, id)
	})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("Commit = %v, want ErrFenced", err)
	}
	if _, found := db.dir.get(id); found {
		t.Fatal("tombstone of the committed delete is still in the directory")
	}
	if got := log.snapshot(); len(got) != 0 {
		t.Fatalf("a fenced commit published %q", got)
	}
}

// TestHeapFailureBehindCommitRecord fails, in turn, every filesystem
// operation a commit issues. Whatever the operation, Commit's answer must be
// what a reopen then shows. Either way the batch was numbered and shipped at
// its enqueue, before the flush. Where the failure hits the WAL write the
// commit had already released its locks, so it is in doubt: nothing was
// applied and no durable mark covers it, the next write is a clean abort
// (the log fail-stopped), and the reopen may go either way as long as x and
// the replication LSN agree. Where it hits the heap apply — which the flush
// leader runs behind the durable commit record — the commit stands: memory
// keeps it, the mark covers it, later writes and checkpoints are refused
// with ErrHeapBehind, and recovery replays it at the same replication LSN.
func TestHeapFailureBehindCommitRecord(t *testing.T) {
	const extra = 400 // creates that outgrow the page and force a heap-file write
	opts := func(fs vfs.FS) Options { return Options{Dir: "db", VFS: fs, Output: io.Discard} }
	behind, inDoubt := 0, 0
	for k := 1; ; k++ {
		fs := vfs.NewFault()
		db := MustOpen(opts(fs))
		mkPersistentClass(t, db)
		id := mkPersistentObjects(t, db, 1)[0]
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var shipped, marks []uint64
		db.SetReplicator(Replicator{
			Ship:    func(b ReplBatch) { shipped = append(shipped, b.LSN) },
			Durable: func(lsn uint64) { marks = append(marks, lsn) },
		})
		lsn0 := db.ReplLSN()

		fs.FailNthOp(fs.Ops()+k, vfs.FaultEIO)
		commitErr := db.Atomically(func(tx *Tx) error {
			if err := db.Set(tx, id, "x", value.Float(42)); err != nil {
				return err
			}
			for i := 0; i < extra; i++ {
				if _, err := db.NewObject(tx, "PX", map[string]value.Value{"x": value.Float(0)}); err != nil {
					return err
				}
			}
			return nil
		})
		if fs.Injected() == 0 {
			db.CloseAbrupt()
			break // k is past the commit's last operation
		}
		doubt := errors.Is(commitErr, wal.ErrInDoubt)
		want, wantLSN := 0.0, lsn0
		if commitErr == nil {
			want, wantLSN = 42, lsn0+1
		}
		if !doubt {
			if got := readX(t, db, id); got != want {
				t.Fatalf("op %d: Commit = %v but x = %v in memory", k, commitErr, got)
			}
		}
		if got := db.ReplLSN(); got != lsn0+1 {
			t.Fatalf("op %d: Commit = %v but ReplLSN = %d, want %d (numbered at enqueue)", k, commitErr, got, lsn0+1)
		}
		if len(shipped) != 1 || shipped[0] != lsn0+1 {
			t.Fatalf("op %d: Commit = %v but shipped batches = %v, want [%d]", k, commitErr, shipped, lsn0+1)
		}
		if (len(marks) == 1 && marks[0] == lsn0+1) != (commitErr == nil) || len(marks) > 1 {
			t.Fatalf("op %d: Commit = %v but durable marks = %v", k, commitErr, marks)
		}
		if doubt {
			inDoubt++
			err := db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(43)) })
			if !errors.Is(err, wal.ErrFailStopped) || !strings.Contains(err.Error(), "aborted") {
				t.Fatalf("op %d: write after an in-doubt commit = %v, want an aborted ErrFailStopped", k, err)
			}
		}
		if commitErr == nil {
			// The failure hit the heap, behind the commit record.
			behind++
			err := db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(43)) })
			if !errors.Is(err, ErrHeapBehind) {
				t.Fatalf("op %d: write after the heap fell behind = %v, want ErrHeapBehind", k, err)
			}
			if err := db.Checkpoint(); !errors.Is(err, ErrHeapBehind) {
				t.Fatalf("op %d: checkpoint after the heap fell behind = %v, want ErrHeapBehind", k, err)
			}
		}
		if err := db.CloseAbrupt(); err != nil {
			t.Fatal(err)
		}

		db2, err := Open(opts(fs))
		if err != nil {
			t.Fatalf("op %d: reopen: %v", k, err)
		}
		got := readX(t, db2, id)
		if doubt && got == 42 {
			want, wantLSN = 42, lsn0+1 // the in-doubt commit went the other way
		}
		if got != want {
			t.Fatalf("op %d: Commit = %v but recovery shows x = %v", k, commitErr, got)
		}
		if got := db2.ReplLSN(); got != wantLSN {
			t.Fatalf("op %d: Commit = %v but recovered ReplLSN = %d, want %d", k, commitErr, got, wantLSN)
		}
		db2.CloseAbrupt()
	}
	if behind == 0 {
		t.Fatal("no injected fault landed in the heap apply; the commit no longer writes the heap file")
	}
	if inDoubt == 0 {
		t.Fatal("no injected fault landed in the WAL write")
	}
}

func readX(t *testing.T, db *Database, id oid.OID) float64 {
	t.Helper()
	var x float64
	if err := db.Atomically(func(tx *Tx) error {
		v, err := db.Get(tx, id, "x")
		x, _ = v.Numeric()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestCommitAnswerSurvivesPowerCut fails, in turn, every filesystem
// operation a SyncOnCommit commit issues — as EIO and as a short write —
// then commits once more, cuts the power and reopens. Every answer is
// success, in doubt or a clean abort, and what each Commit answered is what
// recovery must show: success means durable, "aborted" means gone — a
// commit refused because the log fail-stopped must not ride anything into
// durability — and only wal.ErrInDoubt leaves both open. A failed log flush
// lands in doubt (the locks were already released), and the commit after it
// is refused.
func TestCommitAnswerSurvivesPowerCut(t *testing.T) {
	opts := func(fs vfs.FS) Options {
		return Options{Dir: "db", VFS: fs, SyncOnCommit: true, Output: io.Discard}
	}
	failed, inDoubt := 0, 0
	for _, kind := range []vfs.FaultKind{vfs.FaultEIO, vfs.FaultShortWrite} {
		for k := 1; ; k++ {
			fs := vfs.NewFault()
			db := MustOpen(opts(fs))
			mkPersistentClass(t, db)
			ids := mkPersistentObjects(t, db, 2) // x = 0 and 1
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			fs.FailNthOp(fs.Ops()+k, kind)
			first := db.Atomically(func(tx *Tx) error { return db.Set(tx, ids[0], "x", value.Float(42)) })
			fs.FailNthOp(0, kind) // disarm
			if fs.Injected() == 0 {
				db.CloseAbrupt()
				break // k is past the commit's last operation
			}
			failed++
			second := db.Atomically(func(tx *Tx) error { return db.Set(tx, ids[1], "x", value.Float(7)) })
			if errors.Is(first, wal.ErrInDoubt) {
				inDoubt++
				if !errors.Is(second, wal.ErrFailStopped) {
					t.Fatalf("fault %d at op %d: commit after an in-doubt one = %v, want ErrFailStopped", kind, k, second)
				}
			}
			crashed := vfs.NewMem()
			crashed.Install(fs.CrashState(fs.Ops(), vfs.CrashSynced))
			db.CloseAbrupt()

			db2, err := Open(opts(crashed))
			if err != nil {
				t.Fatalf("fault %d at op %d: reopen: %v", kind, k, err)
			}
			for _, c := range []struct {
				id          oid.OID
				answer      error
				before, now float64
			}{{ids[0], first, 0, 42}, {ids[1], second, 1, 7}} {
				got := readX(t, db2, c.id)
				switch {
				case errors.Is(c.answer, wal.ErrInDoubt):
				case c.answer != nil && !strings.Contains(c.answer.Error(), "transaction aborted"):
					t.Fatalf("fault %d at op %d: Commit = %v, neither success, in doubt nor a clean abort", kind, k, c.answer)
				case c.answer == nil && got != c.now:
					t.Fatalf("fault %d at op %d: Commit succeeded but recovery shows x = %v, want %v", kind, k, got, c.now)
				case c.answer != nil && got != c.before:
					t.Fatalf("fault %d at op %d: Commit = %v but recovery shows x = %v, want %v", kind, k, c.answer, got, c.before)
				}
			}
			db2.CloseAbrupt()
		}
	}
	if failed == 0 || inDoubt == 0 {
		t.Fatalf("injected faults landed in %d commits, %d of them in the log flush; want both > 0", failed, inDoubt)
	}
}

// syncGate is a VFS whose file Syncs fail while fail is set, and are held
// while hold is set: each held Sync announces itself on entered and waits
// for release.
type syncGate struct {
	vfs.FS
	hold, fail atomic.Bool
	entered    chan struct{}
	release    chan struct{}
}

func newSyncGate() *syncGate {
	return &syncGate{FS: vfs.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *syncGate) OpenFile(path string, flag int, perm iofs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	vfs.File
	fs *syncGate
}

func (f *gatedFile) Sync() error {
	if f.fs.hold.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	if f.fs.fail.Load() {
		return errors.New("device gone")
	}
	return f.File.Sync()
}

// TestCommitInDoubtWhenFlushFails: a commit whose fsync fails is reported in
// doubt, not aborted — its locks were released before the flush. Every
// later write is refused as a clean abort before it reaches the log, a 2PL
// read that may have seen the in-doubt write is refused too, and snapshots
// never see it (its LSN never ends) until the database is reopened.
func TestCommitInDoubtWhenFlushFails(t *testing.T) {
	fs := newSyncGate()
	db := MustOpen(Options{Dir: "db", VFS: fs, SyncOnCommit: true, Output: io.Discard})
	defer db.CloseAbrupt()
	mkPersistentClass(t, db)
	id := mkPersistentObjects(t, db, 1)[0]
	fs.fail.Store(true)
	err := db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(42)) })
	fs.fail.Store(false)
	if !errors.Is(err, wal.ErrInDoubt) || !strings.Contains(err.Error(), "in doubt") {
		t.Fatalf("Commit = %v, want an in-doubt answer", err)
	}
	size := db.WALSize()
	err = db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(43)) })
	if !errors.Is(err, wal.ErrFailStopped) || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("commit after the log fail-stopped = %v, want an aborted ErrFailStopped", err)
	}
	if db.WALSize() != size {
		t.Fatalf("the refused commit wrote %d WAL bytes", db.WALSize()-size)
	}
	err = db.Atomically(func(tx *Tx) error { _, err := db.Get(tx, id, "x"); return err })
	if !errors.Is(err, wal.ErrInDoubt) {
		t.Fatalf("2PL read after the in-doubt commit = %v, want ErrInDoubt", err)
	}
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	if v, err := db.Get(snap, id, "x"); err != nil || !v.Equal(value.Float(0)) {
		t.Fatalf("snapshot read x = %v, %v; want the last durable 0", v, err)
	}
}

// TestEarlyLockRelease holds T1's WAL fsync. Meanwhile T2 locks and writes
// T1's object and enqueues its own batch — T1's 2PL lock ended when its
// batch was queued, not after the fsync — but T2's Commit does not return
// before T1's flush completes, and a snapshot begun in between sees neither
// write. Once the fsync is released both commit, in order.
func TestEarlyLockRelease(t *testing.T) {
	fs := newSyncGate()
	db := MustOpen(Options{Dir: "db", VFS: fs, SyncOnCommit: true, Output: io.Discard})
	defer db.CloseAbrupt()
	mkPersistentClass(t, db)
	id := mkPersistentObjects(t, db, 1)[0]
	fs.hold.Store(true)
	released := false
	release := func() {
		if !released {
			released = true
			fs.hold.Store(false)
			fs.release <- struct{}{}
		}
	}
	defer release()

	t1 := make(chan error, 1)
	go func() { t1 <- db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(1)) }) }()
	<-fs.entered // T1's batch is written; its fsync is held
	queued := db.log.Last()

	tx2 := db.Begin()
	wrote := make(chan error, 1)
	go func() { wrote <- db.Set(tx2, id, "x", value.Float(2)) }()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("T2 could not lock T1's object while T1's fsync was in progress")
		release()
		<-wrote
		return
	}
	t2 := make(chan error, 1)
	go func() { t2 <- db.Commit(tx2) }()
	for db.log.Last() == queued {
		time.Sleep(time.Millisecond) // until T2's batch is queued behind T1's
	}
	select {
	case err := <-t2:
		t.Fatalf("T2's Commit returned (%v) while T1's fsync was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	snap := db.BeginSnapshot()
	if v, err := db.Get(snap, id, "x"); err != nil || !v.Equal(value.Float(0)) {
		t.Fatalf("snapshot begun during the flush read x = %v, %v; want 0", v, err)
	}
	db.Abort(snap)

	release()
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
	if err := <-t2; err != nil {
		t.Fatal(err)
	}
	if got := readX(t, db, id); got != 2 {
		t.Fatalf("after both commits x = %v, want 2", got)
	}
}

// TestReadOnlyCommitWaitsForReadBatch: a 2PL transaction reads T1's write
// while T1's fsync is held — the lock was released early — but its
// read-only commit does not return before T1's batch is durable, or a crash
// could lose what it handed out.
func TestReadOnlyCommitWaitsForReadBatch(t *testing.T) {
	fs := newSyncGate()
	db := MustOpen(Options{Dir: "db", VFS: fs, SyncOnCommit: true, Output: io.Discard})
	defer db.CloseAbrupt()
	mkPersistentClass(t, db)
	id := mkPersistentObjects(t, db, 1)[0]
	fs.hold.Store(true)
	t1 := make(chan error, 1)
	go func() { t1 <- db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(1)) }) }()
	<-fs.entered

	read := make(chan float64, 1)
	reader := make(chan error, 1)
	go func() {
		reader <- db.Atomically(func(tx *Tx) error {
			v, err := db.Get(tx, id, "x")
			x, _ := v.Numeric()
			read <- x
			return err
		})
	}()
	select {
	case x := <-read:
		if x != 1 {
			t.Errorf("the reader read x = %v, want T1's 1", x)
		}
	case <-time.After(5 * time.Second):
		t.Error("the reader could not lock T1's object while T1's fsync was in progress")
	}
	var readErr error
	select {
	case readErr = <-reader:
		t.Errorf("read-only commit returned (%v) while the batch it read was not durable", readErr)
	case <-time.After(50 * time.Millisecond):
		defer func() {
			if err := <-reader; err != nil {
				t.Error(err)
			}
		}()
	}
	fs.hold.Store(false)
	fs.release <- struct{}{}
	if err := <-t1; err != nil {
		t.Fatal(err)
	}
}

// TestSynchronousCommitAllocs pins the allocations of one synchronous
// Atomically{Set} on an in-memory database: the Tx handle, its txn.Tx and
// the one before-image copy that serves as both undo record and archived
// version. The write-set maps, agenda, undo list and frames come from the
// recycled transaction state, lock states and held maps from the lock
// manager's free lists; Commit stays head + tail inline with no closure or
// boxed state per commit (raise_mem commits once per op). It was 18 before
// transactions recycled their state.
func TestSynchronousCommitAllocs(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	id := hotPathClass(t, db, 1)[0]
	set := func() {
		if err := db.Atomically(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(1)) }); err != nil {
			t.Fatal(err)
		}
	}
	set()
	if n := testing.AllocsPerRun(200, set); n != 3 {
		t.Fatalf("Atomically{Set}: %v allocs/op, want 3", n)
	}
}

// TestSendFiringAllocs pins one Atomically{Send} whose end event fires one
// immediate rule with a condition and an action — the shape of a raise_mem
// operation: the Tx handle, its txn.Tx, the before-image, one for this
// test's call site (the body closure and Send's argument slice), and the
// detection the rule's detector returns (its slice and its constituent
// slice). Raising, scheduling, the firing frame
// and the commit allocate nothing.
func TestSendFiringAllocs(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	id := hotPathClass(t, db, 1)[0]
	fired := 0
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name:     "fire",
			EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) {
				return true, nil
			},
			Action: func(rule.ExecContext, event.Detection) error {
				fired++
				return nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, id, r.ID())
	}); err != nil {
		t.Fatal(err)
	}
	send := func() {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, id, "Set", value.Float(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	n := testing.AllocsPerRun(200, send)
	if fired != 202 {
		t.Fatalf("rule fired %d times over 202 sends", fired)
	}
	if n != 6 {
		t.Fatalf("Atomically{Send} firing one rule: %v allocs/op, want 6", n)
	}
}

// TestStaleTxHandles: a Tx handle outlives its transaction — callers and
// parked Pendings keep it — while its state goes back to the pool. A
// committed handle, an aborted one, one whose tail was parked and then
// finished, and a committed and an aborted snapshot each stay inactive and
// refuse Send, Set, Get and NewObject with txn.ErrNotActive, also after
// 1,000 later transactions reused the pooled state; ending a snapshot again
// is a no-op; and nothing they were refused leaks into the database.
func TestStaleTxHandles(t *testing.T) {
	db := MustOpen(Options{Dir: "db", VFS: vfs.NewMem(), SyncOnCommit: true, Output: io.Discard})
	defer db.Close()
	mkPersistentClass(t, db)
	id := mkPersistentObjects(t, db, 1)[0]
	set := func(tx *Tx, v float64) error {
		_, err := db.Send(tx, id, "Set", value.Float(v))
		return err
	}

	committed := db.Begin()
	if err := set(committed, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(committed); err != nil {
		t.Fatal(err)
	}
	aborted := db.Begin()
	if err := set(aborted, 2); err != nil {
		t.Fatal(err)
	}
	db.Abort(aborted)
	var parked *Tx
	p := db.atomicallyPending(func(tx *Tx) error {
		parked = tx
		return set(tx, 3)
	})
	if !p.Blocks() {
		t.Fatal("a logged commit does not report that its tail blocks")
	}
	p.Park()
	snapCommitted, snapAborted := db.BeginSnapshot(), db.BeginSnapshot()
	if err := db.Commit(snapCommitted); err != nil {
		t.Fatal(err)
	}
	db.Abort(snapAborted)
	stale := map[string]*Tx{"committed": committed, "aborted": aborted, "parked": parked,
		"committed snapshot": snapCommitted, "aborted snapshot": snapAborted}
	check := func(when string) {
		t.Helper()
		for name, tx := range stale {
			if tx.Active() {
				t.Fatalf("%s: the %s handle is active", when, name)
			}
			if _, err := db.Send(tx, id, "Set", value.Float(-1)); !errors.Is(err, txn.ErrNotActive) {
				t.Fatalf("%s: Send through the %s handle: %v, want ErrNotActive", when, name, err)
			}
			if err := db.Set(tx, id, "x", value.Float(-1)); !errors.Is(err, txn.ErrNotActive) {
				t.Fatalf("%s: Set through the %s handle: %v, want ErrNotActive", when, name, err)
			}
			if _, err := db.Get(tx, id, "x"); !errors.Is(err, txn.ErrNotActive) {
				t.Fatalf("%s: Get through the %s handle: %v, want ErrNotActive", when, name, err)
			}
			if _, err := db.NewObject(tx, "PX", nil); !errors.Is(err, txn.ErrNotActive) {
				t.Fatalf("%s: NewObject through the %s handle: %v, want ErrNotActive", when, name, err)
			}
		}
	}
	check("tail parked")
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	check("tail finished")
	for i := 0; i < 1000; i++ {
		tx := db.Begin()
		if err := set(tx, float64(10+i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			db.Abort(tx)
		} else if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	check("after 1,000 transactions")
	db.Abort(snapCommitted)
	db.Abort(snapAborted)
	if n := db.snaps.activeCount(); n != 0 {
		t.Fatalf("%d snapshots registered after their handles ended twice", n)
	}
	if err := db.Atomically(func(tx *Tx) error {
		v, err := db.Get(tx, id, "x")
		if err == nil && !v.Equal(value.Float(1009)) {
			err = fmt.Errorf("x = %v, want 1009", v)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(db.InstancesOf("PX")); n != 1 {
		t.Fatalf("%d PX instances, want 1", n)
	}
}

// TestPendingLeavesTailToFinish: ExecPending returns with the transaction
// over — its batch queued and shipped, its lock free for the next
// transaction — but the durability wait (whose flush announces the durable
// mark), the quorum wait, the push and the detached firing wait for Finish,
// which runs them in stage order.
// Snapshots see the write only once Finish made it durable.
func TestPendingLeavesTailToFinish(t *testing.T) {
	db, id := quorumDB(t, false)
	defer db.Close()
	log := &stageLog{}
	if _, err := db.SubscribeSink(id, SinkFilter{}, log); err != nil {
		t.Fatal(err)
	}
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "after", EventSrc: "end PX::Set(float v)", Coupling: "detached",
			Action: func(rule.ExecContext, event.Detection) error {
				log.add("detached effect")
				return nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, id, r.ID())
	}); err != nil {
		t.Fatal(err)
	}
	db.SetReplicator(Replicator{
		Ship: func(b ReplBatch) {
			if b.LSN != 0 {
				log.add("ship")
			}
		},
		Durable: func(uint64) { log.add("durable") },
		WaitQuorum: func(uint64, int, time.Duration) error {
			log.add("quorum-wait")
			return nil
		},
	})
	p := db.atomicallyPending(func(tx *Tx) error {
		_, err := db.Send(tx, id, "Set", value.Float(5))
		return err
	})
	if !p.Blocks() {
		t.Fatal("a logged commit does not report that its tail blocks")
	}
	// The lock is free: a 2PL transaction reads the installed write at once.
	// It aborts, so it awaits no flush.
	tx := db.Begin()
	v, err := db.Get(tx, id, "x")
	db.Abort(tx)
	if err != nil || !v.Equal(value.Float(5)) {
		t.Fatalf("after the head a 2PL read got x = %v, %v; want 5 (lock released)", v, err)
	}
	if got := readSnapshotX(t, db, id); got != 0 {
		t.Fatalf("after the head a snapshot reads x = %v, want 0 (not durable yet)", got)
	}
	if got := log.snapshot(); strings.Join(got, ",") != "ship" {
		t.Fatalf("the head ran %q, want only the ship", got)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ship", "durable", "quorum-wait", "push", "detached effect"}
	if got := log.snapshot(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Finish ran %q, want %q", got, want)
	}
	if got := readSnapshotX(t, db, id); got != 5 {
		t.Fatalf("after Finish a snapshot reads x = %v, want 5", got)
	}
}

func readSnapshotX(t *testing.T, db *Database, id oid.OID) float64 {
	t.Helper()
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	v, err := db.Get(snap, id, "x")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := v.Numeric()
	return x
}

// TestCheckpointAwaitsQueuedBatch: a checkpoint taken while a commit's batch
// is queued but unflushed — its head ran, nobody awaits it yet — flushes it
// first, so the checkpointed heap includes it, and a base-state capture
// taken the same way is labelled with exactly the batches its heap holds.
func TestCheckpointAwaitsQueuedBatch(t *testing.T) {
	fs := vfs.NewMem()
	db := MustOpen(Options{Dir: "db", VFS: fs, SyncOnCommit: true, Output: io.Discard})
	mkPersistentClass(t, db)
	id := mkPersistentObjects(t, db, 1)[0]
	set := func(x float64) Pending {
		return db.atomicallyPending(func(tx *Tx) error { return db.Set(tx, id, "x", value.Float(x)) })
	}
	lsn0 := db.ReplLSN()

	p := set(42)
	if got := readSnapshotX(t, db, id); got == 42 {
		t.Fatal("the head flushed its own batch")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.ReplLSN(); got != lsn0+1 {
		t.Fatalf("after the checkpoint ReplLSN = %d, want %d", got, lsn0+1)
	}
	// The checkpoint truncated the WAL, so only its heap can carry x = 42.
	ckpt := vfs.NewMem()
	ckpt.Install(fs.Snapshot())
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	reopened := MustOpen(Options{Dir: "db", VFS: ckpt, Output: io.Discard})
	if got := readX(t, reopened, id); got != 42 {
		t.Fatalf("the checkpointed heap holds x = %v, want the queued batch's 42", got)
	}
	reopened.CloseAbrupt()

	p = set(43)
	base, err := db.ReplBaseState()
	if err != nil {
		t.Fatal(err)
	}
	if base.LSN != lsn0+2 {
		t.Fatalf("base state labelled LSN %d, want %d (the queued batch included)", base.LSN, lsn0+2)
	}
	found := false
	for _, o := range base.Objects {
		if o.ID == id {
			found = bytes.Contains(o.Img, value.AppendValue(nil, value.Float(43)))
		}
	}
	if !found {
		t.Fatal("the base state's heap image lacks the queued batch's write")
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
