package core

// Tests for the commit pipeline (commit.go): the order its stages publish
// in, what each may hold while it runs, and the two failure contracts — a
// heap error behind the commit record, and a fenced quorum wait.

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
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
// the committing transaction's 2PL lock. Ship must run while that
// transaction is still blocked; WaitQuorum must run with the lock released
// (it waits for the blocked transaction to finish, which it only can once
// the lock is gone); and the observable order must be ship < quorum-wait <
// push < detached effect.
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

			want := []string{"ship", "quorum-wait", "push", "detached effect"}
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
// what a reopen then shows. Where the failure hits the heap apply — behind
// the commit record — the commit stands: memory keeps it, the replicator got
// it, later writes and checkpoints are refused with ErrHeapBehind, and
// recovery replays it at the same replication LSN.
func TestHeapFailureBehindCommitRecord(t *testing.T) {
	const extra = 400 // creates that outgrow the page and force a heap-file write
	opts := func(fs vfs.FS) Options { return Options{Dir: "db", VFS: fs, Output: io.Discard} }
	behind := 0
	for k := 1; ; k++ {
		fs := vfs.NewFault()
		db := MustOpen(opts(fs))
		mkPersistentClass(t, db)
		id := mkPersistentObjects(t, db, 1)[0]
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var shipped []uint64
		db.SetReplicator(Replicator{Ship: func(b ReplBatch) { shipped = append(shipped, b.LSN) }})
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
		want, wantLSN := 0.0, lsn0
		if commitErr == nil {
			want, wantLSN = 42, lsn0+1
		}
		if got := readX(t, db, id); got != want {
			t.Fatalf("op %d: Commit = %v but x = %v in memory", k, commitErr, got)
		}
		if got := db.ReplLSN(); got != wantLSN {
			t.Fatalf("op %d: Commit = %v but ReplLSN = %d, want %d", k, commitErr, got, wantLSN)
		}
		if (len(shipped) == 1) != (commitErr == nil) {
			t.Fatalf("op %d: Commit = %v but shipped batches = %v", k, commitErr, shipped)
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
		if got := readX(t, db2, id); got != want {
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
