package core_test

// Core replication mechanics, no network: the ship hook's batch contract,
// LSN durability across reopen (checkpoint meta + WAL replay), the apply
// path's dup/gap discipline, base-state install on a live replica, and
// replica write rejection. The networked end of the same machinery lives
// in internal/repl's tests.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/vfs"
	"sentinel/internal/wal"
)

const coreReplSchema = `class Kit reactive persistent {
	attr n int
	event end method Set(v int) { self.n := v }
}
bind K new Kit(n: 0)`

// captureShip installs a Replicator that deep-copies every batch (the
// contract says Data aliases pooled scratch, so tests must copy too) and
// records the stream a follower could receive: each batch stamped with the
// durable mark as of its ship, and each later mark carried by the last
// batch when it covers it, else appended as a bare mark.
func captureShip(db *core.Database) *[]core.ReplBatch {
	var mu sync.Mutex
	var got []core.ReplBatch
	var mark uint64
	db.SetReplicator(core.Replicator{
		Ship: func(b core.ReplBatch) {
			cp := core.ReplBatch{LSN: b.LSN}
			for _, r := range b.Recs {
				data := append([]byte(nil), r.Data...)
				if len(data) == 0 {
					data = nil
				}
				cp.Recs = append(cp.Recs, wal.Record{Type: r.Type, Tx: r.Tx, OID: r.OID, Data: data})
			}
			cp.Occs = append(cp.Occs, b.Occs...)
			mu.Lock()
			defer mu.Unlock()
			cp.Mark = mark
			got = append(got, cp)
		},
		Durable: func(lsn uint64) {
			mu.Lock()
			defer mu.Unlock()
			mark = lsn
			if n := len(got); n > 0 && got[n-1].LSN != 0 && got[n-1].LSN <= lsn {
				got[n-1].Mark = lsn
				return
			}
			got = append(got, core.ReplBatch{Mark: lsn})
		},
	})
	return &got
}

// TestShipHookSeesEveryCommit: every committed batch reaches the hook at its
// enqueue with a dense LSN sequence, event-only commits ship at LSN 0, and
// the durable mark reaches each batch without waiting for a later commit.
func TestShipHookSeesEveryCommit(t *testing.T) {
	db := core.MustOpen(persistentOpts(t.TempDir()))
	defer db.Close()
	got := captureShip(db)
	if err := db.Exec(coreReplSchema); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := db.Exec(fmt.Sprintf("K!Set(%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(*got) < 4 {
		t.Fatalf("hook saw %d batches, want >= 4", len(*got))
	}
	var want, mark uint64 = 1, 0
	for _, b := range *got {
		if b.Mark < mark {
			t.Fatalf("the durable mark went back from %d to %d", mark, b.Mark)
		}
		mark = b.Mark
		if b.LSN == 0 {
			continue // event-only
		}
		if b.LSN != want {
			t.Fatalf("LSN sequence broke: got %d, want %d", b.LSN, want)
		}
		want++
	}
	if db.ReplLSN() != want-1 {
		t.Fatalf("ReplLSN = %d, want %d", db.ReplLSN(), want-1)
	}
	if mark != want-1 {
		t.Fatalf("the last durable mark is %d; every batch up to %d is durable", mark, want-1)
	}
}

// TestReplLSNSurvivesReopen: the replication LSN persists through a clean
// close (checkpoint meta) and through a WAL replay after an abrupt one.
func TestReplLSNSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := core.MustOpen(persistentOpts(dir))
	if err := db.Exec(coreReplSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("K!Set(1)"); err != nil {
		t.Fatal(err)
	}
	lsn := db.ReplLSN()
	if lsn == 0 {
		t.Fatal("no batches committed")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := core.MustOpen(persistentOpts(dir))
	if got := db2.ReplLSN(); got != lsn {
		t.Fatalf("LSN after clean reopen = %d, want %d", got, lsn)
	}
	// More commits, then an abrupt close: the checkpointed floor plus the
	// replayed commit markers must reproduce the count.
	if err := db2.Exec("K!Set(2)"); err != nil {
		t.Fatal(err)
	}
	if err := db2.Exec("K!Set(3)"); err != nil {
		t.Fatal(err)
	}
	lsn2 := db2.ReplLSN()
	db2.CloseAbrupt()

	db3 := core.MustOpen(persistentOpts(dir))
	defer db3.Close()
	if got := db3.ReplLSN(); got != lsn2 {
		t.Fatalf("LSN after abrupt reopen = %d, want %d", got, lsn2)
	}
}

// TestApplyReplicatedDupAndGap: a replica silently drops batches at or
// below its applied LSN and rejects a gapped batch without advancing.
func TestApplyReplicatedDupAndGap(t *testing.T) {
	src := core.MustOpen(persistentOpts(t.TempDir()))
	defer src.Close()
	got := captureShip(src)
	if err := src.Exec(coreReplSchema); err != nil {
		t.Fatal(err)
	}
	if err := src.Exec("K!Set(7)"); err != nil {
		t.Fatal(err)
	}

	ropts := persistentOpts(t.TempDir())
	ropts.Replica = true
	replica, err := core.Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	var data []core.ReplBatch
	for _, b := range *got {
		if b.LSN != 0 {
			data = append(data, b)
		}
	}
	if len(data) < 2 {
		t.Fatalf("need >= 2 data batches, got %d", len(data))
	}
	// Gap: batch 2 before batch 1.
	if err := replica.ApplyReplicated(data[1]); err == nil {
		t.Fatal("gapped batch accepted")
	}
	if replica.ReplLSN() != 0 {
		t.Fatalf("LSN advanced past a gap: %d", replica.ReplLSN())
	}
	// In order: applies.
	for _, b := range data {
		if err := replica.ApplyReplicated(b); err != nil {
			t.Fatal(err)
		}
	}
	if replica.ReplLSN() != data[len(data)-1].LSN {
		t.Fatalf("LSN = %d, want %d", replica.ReplLSN(), data[len(data)-1].LSN)
	}
	// Duplicate: dropped without error, LSN unchanged.
	if err := replica.ApplyReplicated(data[0]); err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
	if replica.ReplLSN() != data[len(data)-1].LSN {
		t.Fatalf("duplicate moved the LSN to %d", replica.ReplLSN())
	}

	// The replayed state matches the source.
	id, ok := replica.Lookup("K")
	if !ok {
		t.Fatal("K not bound on replica")
	}
	snap := replica.BeginSnapshot()
	v, err := replica.Get(snap, id, "n")
	replica.Abort(snap)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "7" {
		t.Fatalf("replica K.n = %s, want 7", v)
	}
}

// TestApplyBaseStateReplacesLiveState: a live replica's committed state is
// wholly replaced by a base install — stale local objects disappear, the
// LSN jumps, and a snapshot begun before the install keeps its old view.
func TestApplyBaseStateReplacesLiveState(t *testing.T) {
	// Source A: the history the replica first follows.
	a := core.MustOpen(persistentOpts(t.TempDir()))
	defer a.Close()
	gotA := captureShip(a)
	if err := a.Exec(coreReplSchema); err != nil {
		t.Fatal(err)
	}
	if err := a.Exec("K!Set(1)"); err != nil {
		t.Fatal(err)
	}

	// Source B: a different history to base-sync from.
	b := core.MustOpen(persistentOpts(t.TempDir()))
	defer b.Close()
	if err := b.Exec(coreReplSchema); err != nil {
		t.Fatal(err)
	}
	if err := b.Exec("K!Set(42)"); err != nil {
		t.Fatal(err)
	}
	base, err := b.ReplBaseState()
	if err != nil {
		t.Fatal(err)
	}

	ropts := persistentOpts(t.TempDir())
	ropts.Replica = true
	replica, err := core.Open(ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for _, batch := range *gotA {
		if batch.LSN == 0 {
			continue
		}
		if err := replica.ApplyReplicated(batch); err != nil {
			t.Fatal(err)
		}
	}

	// A snapshot over the pre-install state.
	id, _ := replica.Lookup("K")
	snap := replica.BeginSnapshot()
	defer replica.Abort(snap)
	if v, err := replica.Get(snap, id, "n"); err != nil || v.String() != "1" {
		t.Fatalf("pre-install read: %v %v", v, err)
	}

	if err := replica.ApplyBaseState(base.LSN, base.Objects); err != nil {
		t.Fatal(err)
	}
	if replica.ReplLSN() != base.LSN {
		t.Fatalf("LSN after install = %d, want %d", replica.ReplLSN(), base.LSN)
	}

	// New reads see source B's state…
	id2, ok := replica.Lookup("K")
	if !ok {
		t.Fatal("K not bound after install")
	}
	snap2 := replica.BeginSnapshot()
	v, err := replica.Get(snap2, id2, "n")
	replica.Abort(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "42" {
		t.Fatalf("post-install K.n = %s, want 42", v)
	}
	// …while the old snapshot keeps source A's.
	if v, err := replica.Get(snap, id, "n"); err != nil || v.String() != "1" {
		t.Fatalf("old snapshot lost its view: %v %v", v, err)
	}
}

// TestReplicaRejectsLocalWrites: the write chokepoints reject application
// writes once a replica is open (recovery and replay stay writable).
func TestReplicaRejectsLocalWrites(t *testing.T) {
	opts := persistentOpts(t.TempDir())
	opts.Replica = true
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(`class X persistent { attr a int }`); err == nil {
		t.Fatal("replica accepted a class definition")
	} else if !errors.Is(err, core.ErrReplicaWrite) {
		// Class registration may fail at a different chokepoint first; the
		// write itself must be the blocked step.
		t.Logf("class definition rejected with: %v", err)
	}
}

// TestReplicaOptionsRequireDir: replica mode without a directory is a
// configuration error (the WAL-first apply path needs a log).
func TestReplicaOptionsRequireDir(t *testing.T) {
	if _, err := core.Open(core.Options{Replica: true, Output: io.Discard}); err == nil {
		t.Fatal("in-memory replica accepted")
	}
}

// traceSink records every push a replica fans out, in order.
type traceSink struct{ got []string }

func (s *traceSink) DeliverEvent(_ uint64, occ event.Occurrence) {
	s.got = append(s.got, fmt.Sprintf("%d:%s%v", occ.Seq, occ.Method, occ.Args))
}

// TestApplyRunOneFsync: a follower applying k data batches in one
// ApplyReplicated call pays one WAL fsync, and ends in exactly the state, LSN
// and push trace k single applies leave. An event-only batch inside the run
// splits it (two fsyncs) and its pushes keep their place.
func TestApplyRunOneFsync(t *testing.T) {
	src := core.MustOpen(persistentOpts(t.TempDir()))
	defer src.Close()
	got := captureShip(src)
	if err := src.Exec(coreReplSchema); err != nil {
		t.Fatal(err)
	}
	setup := len(*got)
	const k = 5
	for i := 1; i <= k; i++ {
		if err := src.Exec(fmt.Sprintf("K!Set(%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	var run []core.ReplBatch
	for _, b := range (*got)[setup:] {
		if b.LSN != 0 {
			run = append(run, b)
		}
	}
	if len(run) != k {
		t.Fatalf("%d data batches for %d commits", len(run), k)
	}
	// An event-only batch re-announcing batch 2's occurrences, between 2 and 3.
	withEvent := append(append(append([]core.ReplBatch(nil), run[:2]...), core.ReplBatch{Occs: run[1].Occs}), run[2:]...)

	// replay opens a replica, applies the setup batches one by one, subscribes
	// to K, then applies batches in the given groups: it returns the final
	// K.n, the applied LSN, the WAL fsyncs the groups cost and the pushes.
	replay := func(groups [][]core.ReplBatch) (n string, lsn uint64, syncs int64, pushes []string) {
		fs := vfs.NewLatency(vfs.NewMem(), 0, 0)
		opts := persistentOpts("db")
		opts.VFS, opts.Replica = fs, true
		replica := core.MustOpen(opts)
		defer replica.Close()
		for _, b := range (*got)[:setup] {
			if err := replica.ApplyReplicated(b); err != nil {
				t.Fatal(err)
			}
		}
		id, ok := replica.Lookup("K")
		if !ok {
			t.Fatal("K not bound on replica")
		}
		sink := &traceSink{}
		if _, err := replica.SubscribeSink(id, core.SinkFilter{}, sink); err != nil {
			t.Fatal(err)
		}
		before := fs.Syncs()
		for _, g := range groups {
			if err := replica.ApplyReplicated(g...); err != nil {
				t.Fatal(err)
			}
		}
		syncs = fs.Syncs() - before
		snap := replica.BeginSnapshot()
		v, err := replica.Get(snap, id, "n")
		replica.Abort(snap)
		if err != nil {
			t.Fatal(err)
		}
		return v.String(), replica.ReplLSN(), syncs, sink.got
	}
	singles := func(bs []core.ReplBatch) [][]core.ReplBatch {
		var gs [][]core.ReplBatch
		for _, b := range bs {
			gs = append(gs, []core.ReplBatch{b})
		}
		return gs
	}
	for _, tc := range []struct {
		name     string
		batches  []core.ReplBatch
		runSyncs int64
	}{
		{"data only", run, 1},
		{"event-only batch inside", withEvent, 2},
	} {
		n1, lsn1, syncs1, trace1 := replay(singles(tc.batches))
		n2, lsn2, syncs2, trace2 := replay([][]core.ReplBatch{tc.batches})
		if syncs1 != k || syncs2 != tc.runSyncs {
			t.Errorf("%s: fsyncs %d single / %d as one call, want %d / %d", tc.name, syncs1, syncs2, k, tc.runSyncs)
		}
		if n1 != n2 || n2 != fmt.Sprint(k) || lsn1 != lsn2 || lsn2 != run[k-1].LSN {
			t.Errorf("%s: K.n %s / %s, LSN %d / %d; want %d, LSN %d", tc.name, n1, n2, lsn1, lsn2, k, run[k-1].LSN)
		}
		if strings.Join(trace1, " ") != strings.Join(trace2, " ") || len(trace2) < len(tc.batches) {
			t.Errorf("%s: pushes differ:\n single: %v\n run:    %v", tc.name, trace1, trace2)
		}
	}
}
