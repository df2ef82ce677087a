package core

// Tests for the MVCC snapshot-read path (mvcc.go, directory.go version
// chains) and its interactions with the pager's clock eviction and the
// WAL's group commit: snapshot isolation against concurrent writers,
// read-only enforcement, watermark-driven pruning, the chained-entry
// eviction guard, mid-snapshot fault-back-in and snapshot-evaluated
// detached conditions. These live in package core because
// they pin unexported internals (the directory, the snapshot registry)
// alongside the public BeginSnapshot surface.

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"testing"

	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// setX commits one write of P.x through the method path.
func setX(t *testing.T, db *Database, id oid.OID, v float64) {
	t.Helper()
	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.Send(tx, id, "Set", value.Float(v))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// snapX reads P.x through a snapshot transaction.
func snapX(t *testing.T, db *Database, snap *Tx, id oid.OID) float64 {
	t.Helper()
	v, err := db.Get(snap, id, "x")
	if err != nil {
		t.Fatalf("snapshot read of %s: %v", id, err)
	}
	return v.MustFloat()
}

// TestSnapshotIsolationBasic pins the core guarantee: a snapshot keeps
// reading the committed state it was acquired at, across any number of
// later commits, and a snapshot acquired afterwards sees the new state.
func TestSnapshotIsolationBasic(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	ids := hotPathClass(t, db, 1)
	setX(t, db, ids[0], 1)

	snap := db.BeginSnapshot()
	if _, ok := snap.Snapshot(); !ok {
		t.Fatal("BeginSnapshot did not mark the transaction as a snapshot")
	}
	if got := snapX(t, db, snap, ids[0]); got != 1 {
		t.Fatalf("snapshot read = %v, want 1", got)
	}

	setX(t, db, ids[0], 2)
	setX(t, db, ids[0], 3)

	// The old snapshot still reads 1; a fresh one reads 3.
	if got := snapX(t, db, snap, ids[0]); got != 1 {
		t.Fatalf("snapshot read after later commits = %v, want 1", got)
	}
	snap2 := db.BeginSnapshot()
	if got := snapX(t, db, snap2, ids[0]); got != 3 {
		t.Fatalf("fresh snapshot read = %v, want 3", got)
	}
	db.Abort(snap2)
	if err := db.Commit(snap); err != nil {
		t.Fatalf("snapshot commit: %v", err)
	}
	if n := db.snaps.activeCount(); n != 0 {
		t.Fatalf("%d snapshots still registered after release", n)
	}
}

// TestSnapshotCreateInvisible pins the anti-resurrection rule: an object
// created after the snapshot neither resolves by OID nor appears in
// InstancesOfAt, while objects existing at the snapshot do.
func TestSnapshotCreateInvisible(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	ids := hotPathClass(t, db, 1)
	setX(t, db, ids[0], 1)

	snap := db.BeginSnapshot()
	defer db.Abort(snap)

	var late oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		late, err = db.NewObject(tx, "P", map[string]value.Value{"x": value.Float(7)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := db.Get(snap, late, "x"); err == nil {
		t.Fatal("post-snapshot create visible through snapshot read")
	}
	got := db.InstancesOfAt(snap, "P")
	if len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("InstancesOfAt = %v, want exactly [%v]", got, ids[0])
	}
	// An ordinary transaction sees both.
	if live := db.InstancesOf("P"); len(live) != 2 {
		t.Fatalf("InstancesOf = %v, want 2 instances", live)
	}
}

// TestSnapshotDeleteVisible pins tombstone semantics: an object deleted
// after the snapshot stays readable through it (from the archived version)
// and still lists in InstancesOfAt; a later snapshot sees it gone.
func TestSnapshotDeleteVisible(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	ids := hotPathClass(t, db, 2)
	setX(t, db, ids[0], 1)
	setX(t, db, ids[1], 2)

	snap := db.BeginSnapshot()

	if err := db.Atomically(func(tx *Tx) error {
		return db.DeleteObject(tx, ids[0])
	}); err != nil {
		t.Fatal(err)
	}

	if got := snapX(t, db, snap, ids[0]); got != 1 {
		t.Fatalf("snapshot read of deleted object = %v, want 1", got)
	}
	if got := db.InstancesOfAt(snap, "P"); len(got) != 2 {
		t.Fatalf("InstancesOfAt after delete = %v, want both instances", got)
	}

	snap2 := db.BeginSnapshot()
	if _, err := db.Get(snap2, ids[0], "x"); err == nil {
		t.Fatal("deleted object visible to a post-delete snapshot")
	}
	if got := db.InstancesOfAt(snap2, "P"); len(got) != 1 || got[0] != ids[1] {
		t.Fatalf("post-delete InstancesOfAt = %v, want [%v]", got, ids[1])
	}
	db.Abort(snap2)
	db.Abort(snap)
}

// TestVersionChainPruneOnRelease verifies the watermark protocol end to
// end: chains grow while a snapshot pins the watermark, and the first
// commit after release sweeps every dead version and tombstone.
func TestVersionChainPruneOnRelease(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	ids := hotPathClass(t, db, 2)
	setX(t, db, ids[0], 0)

	snap := db.BeginSnapshot()
	for i := 1; i <= 3; i++ {
		setX(t, db, ids[0], float64(i))
	}
	s := db.Stats().Storage
	if s.VersionsLive < 3 {
		t.Fatalf("VersionsLive = %d with 3 post-snapshot commits pinned, want >= 3", s.VersionsLive)
	}
	if s.MaxChainDepth < 3 {
		t.Fatalf("MaxChainDepth = %d, want >= 3", s.MaxChainDepth)
	}
	if s.SnapshotsActive != 1 {
		t.Fatalf("SnapshotsActive = %d, want 1", s.SnapshotsActive)
	}
	// The pinned snapshot still reads the pre-chain value.
	if got := snapX(t, db, snap, ids[0]); got != 0 {
		t.Fatalf("pinned snapshot read = %v, want 0", got)
	}

	db.Abort(snap) // releases the snapshot; watermark can advance
	// The next commit's epilogue sweeps the chains.
	setX(t, db, ids[1], 1)
	s = db.Stats().Storage
	if s.VersionsLive != 0 {
		t.Fatalf("VersionsLive = %d after release + commit, want 0", s.VersionsLive)
	}
	if s.MaxChainDepth != 0 {
		t.Fatalf("MaxChainDepth = %d after sweep, want 0", s.MaxChainDepth)
	}
	if s.VersionPrunes < 3 {
		t.Fatalf("VersionPrunes = %d, want >= 3", s.VersionPrunes)
	}
}

// TestSweepVisitsOnlyChainedShards pins the post-commit sweep's scope. With
// no snapshot open a commit's before-image dies at its own sweep, which
// locks only the shard that holds it — never all 64 — and leaves the
// chained-shard mask empty. While a snapshot is held, chains build up
// across many shards, the mask names each of them, and once the snapshot
// is released the next sweep drains every one to VersionsLive == 0.
func TestSweepVisitsOnlyChainedShards(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	ids := hotPathClass(t, db, 4*dirShardCount)
	shard := uint64(ids[0]) % dirShardCount
	var same []oid.OID
	for _, id := range ids {
		if uint64(id)%dirShardCount == shard {
			same = append(same, id)
		}
	}
	if len(same) < 3 {
		t.Fatalf("only %d objects in shard %d", len(same), shard)
	}
	setX(t, db, ids[0], 0) // settle what the set-up left chained

	const commits = 30
	before := db.dir.swept.Load()
	for i := 0; i < commits; i++ {
		setX(t, db, same[i%len(same)], float64(i))
		if m := db.dir.chainedMask.Load(); m != 0 {
			t.Fatalf("commit %d left the chained-shard mask at %#x, want 0", i, m)
		}
	}
	if n := db.dir.swept.Load() - before; n < 1 || n > commits {
		t.Fatalf("%d commits in one shard locked %d shards in their sweeps, want 1..%d", commits, n, commits)
	}
	if live := db.dir.liveVersions.Load(); live != 0 {
		t.Fatalf("VersionsLive = %d with no snapshot open, want 0", live)
	}

	setX(t, db, ids[0], 0)
	snap := db.BeginSnapshot()
	for i, id := range ids {
		setX(t, db, id, float64(i+1))
	}
	setX(t, db, ids[0], -1)
	mask := db.dir.chainedMask.Load()
	if bits.OnesCount64(mask) != dirShardCount {
		t.Fatalf("chained-shard mask %#x names %d shards while every shard holds a chain, want %d",
			mask, bits.OnesCount64(mask), dirShardCount)
	}
	s := db.Stats().Storage
	if s.VersionsLive < int64(len(ids)) || s.MaxChainDepth != 2 {
		t.Fatalf("VersionsLive = %d, MaxChainDepth = %d under a held snapshot; want >= %d and 2",
			s.VersionsLive, s.MaxChainDepth, len(ids))
	}
	if got := snapX(t, db, snap, ids[0]); got != 0 {
		t.Fatalf("held snapshot reads x = %v, want 0", got)
	}
	db.Abort(snap)
	if err := db.Atomically(func(*Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s = db.Stats().Storage
	if s.VersionsLive != 0 || s.MaxChainDepth != 0 {
		t.Fatalf("after release: VersionsLive = %d, MaxChainDepth = %d; want 0, 0", s.VersionsLive, s.MaxChainDepth)
	}
	if m := db.dir.chainedMask.Load(); m != 0 {
		t.Fatalf("after release the chained-shard mask is %#x, want 0", m)
	}
}

// TestSnapshotEvictionPin is the version-chain × clock-eviction regression
// (the satellite fix): an entry whose chain a snapshot still needs must
// survive eviction pressure — evicting it would leave only the newest heap
// image, silently feeding post-snapshot state to the snapshot — and an
// entry that WAS evicted before the snapshot faults back in mid-snapshot
// with the correct (pre-snapshot) state, then anchors a chain when a
// writer updates it.
func TestSnapshotEvictionPin(t *testing.T) {
	db := MustOpen(Options{
		Dir: t.TempDir(), VFS: vfs.NewMem(),
		MaxResidentObjects: 4, Output: io.Discard,
	})
	defer db.Close()
	employeeSchema(t, db)

	const n = 12
	ids := make([]oid.OID, n)
	if err := db.Atomically(func(tx *Tx) error {
		for i := range ids {
			var err error
			ids[i], err = db.NewObject(tx, "Employee", map[string]value.Value{
				"salary": value.Float(float64(100 + i)),
			})
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Cycle every object through the directory so the clock evicts the
	// early ones well below the 4-resident ceiling.
	for _, id := range ids {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Get(tx, id, "salary")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap := db.BeginSnapshot()
	defer db.Abort(snap)

	// hot gets a post-snapshot update: its entry now carries a chain
	// pinned by snap. cold was evicted before the snapshot; the writer's
	// lock faults it in, anchors a chain on the fault-in image, and the
	// snapshot must read that archived pre-state, not the new commit.
	hot, cold := ids[n-1], ids[0]
	for _, id := range []oid.OID{hot, cold} {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, id, "SetSalary", value.Float(9999))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Hammer the clock: touch every other object repeatedly so eviction
	// pressure sweeps past the chained entries many times.
	for round := 0; round < 3; round++ {
		for _, id := range ids[1 : n-1] {
			if err := db.Atomically(func(tx *Tx) error {
				_, err := db.Get(tx, id, "salary")
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	readSnap := func(id oid.OID) float64 {
		v, err := db.Get(snap, id, "salary")
		if err != nil {
			t.Fatalf("snapshot read of %s: %v", id, err)
		}
		return v.MustFloat()
	}
	if got := readSnap(hot); got != float64(100+n-1) {
		t.Fatalf("snapshot read of chained hot object = %v, want %v (post-snapshot 9999 leaked)",
			got, float64(100+n-1))
	}
	if got := readSnap(cold); got != 100 {
		t.Fatalf("snapshot read of faulted-back cold object = %v, want 100", got)
	}
	// An untouched, evicted object read mid-snapshot faults back in from
	// the heap at watermark-or-older state.
	if got := readSnap(ids[3]); got != 103 {
		t.Fatalf("snapshot read of evicted object = %v, want 103", got)
	}
	// Ordinary transactions read the new values throughout.
	var live value.Value
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		live, err = db.Get(tx, hot, "salary")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if live.MustFloat() != 9999 {
		t.Fatalf("live read = %v, want 9999", live)
	}
}

// TestSnapshotConcurrentWriters races a pool of writers against snapshot
// readers: every snapshot must read a stable value for the whole of its
// lifetime (no torn or post-snapshot reads). Run with -race.
func TestSnapshotConcurrentWriters(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	ids := hotPathClass(t, db, 4)
	for _, id := range ids {
		setX(t, db, id, 0)
	}

	const writers, rounds = 4, 50
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 1; i <= rounds; i++ {
				id := ids[w%len(ids)]
				if err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, id, "Set", value.Float(float64(i)))
					return err
				}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.BeginSnapshot()
			// Each object must read the same value twice within one
			// snapshot, however the writers interleave.
			for _, id := range ids {
				a, err := db.Get(snap, id, "x")
				if err != nil {
					t.Errorf("snapshot read: %v", err)
					break
				}
				b, err := db.Get(snap, id, "x")
				if err != nil || a.MustFloat() != b.MustFloat() {
					t.Errorf("torn snapshot read on %s: %v then %v (err %v)", id, a, b, err)
					break
				}
			}
			db.Abort(snap)
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	// With every snapshot released, a final commit drains the chains.
	setX(t, db, ids[0], 1)
	if s := db.Stats().Storage; s.VersionsLive != 0 || s.SnapshotsActive != 0 {
		t.Fatalf("MVCC state not drained: versions=%d snapshots=%d", s.VersionsLive, s.SnapshotsActive)
	}
}

// TestSnapshotConditionsDetached exercises Options.SnapshotConditions: the
// detached condition evaluates against a committed snapshot (it sees the
// triggering commit's value) and the action still runs in the firing's own
// locking transaction.
func TestSnapshotConditionsDetached(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, SnapshotConditions: true})
	ids := hotPathClass(t, db, 1)

	var condSaw, actSaw float64
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "snapCond", EventSrc: "end P::Set(float v)", Coupling: "detached",
			Condition: func(ctx rule.ExecContext, det event.Detection) (bool, error) {
				v, err := ctx.GetAttr(det.Last().Source, "x")
				if err != nil {
					return false, err
				}
				condSaw = v.MustFloat()
				return v.MustFloat() > 10, nil
			},
			Action: func(ctx rule.ExecContext, det event.Detection) error {
				v, err := ctx.GetAttr(det.Last().Source, "x")
				if err != nil {
					return err
				}
				actSaw = v.MustFloat()
				return ctx.SetAttr(det.Last().Source, "x", value.Float(v.MustFloat()+1))
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, ids[0], r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	setX(t, db, ids[0], 5) // condition false: snapshot saw the committed 5
	if condSaw != 5 {
		t.Fatalf("condition saw %v, want the committed 5", condSaw)
	}
	setX(t, db, ids[0], 42) // condition true; action bumps to 43
	if condSaw != 42 || actSaw != 42 {
		t.Fatalf("condition/action saw %v/%v, want 42/42", condSaw, actSaw)
	}
	var x value.Value
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		x, err = db.Get(tx, ids[0], "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if x.MustFloat() != 43 {
		t.Fatalf("x = %v after detached action, want 43", x)
	}
	// The condition snapshots must all be released.
	if n := db.snaps.activeCount(); n != 0 {
		t.Fatalf("%d condition snapshots leaked", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRefsAtSnapshot pins the snapshot-consistent integrity scan: a
// referent deleted after the snapshot does not produce a dangling-ref
// report, because both sides resolve at the snapshot's LSN.
func TestCheckRefsAtSnapshot(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	node := schema.NewClass("Node")
	node.Attr("next", value.TypeAnyRef)
	db.MustRegisterClass(node)
	var a, b oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		if b, err = db.NewObject(tx, "Node", nil); err != nil {
			return err
		}
		a, err = db.NewObject(tx, "Node", map[string]value.Value{"next": value.Ref(b)})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	if err := db.Atomically(func(tx *Tx) error {
		if err := db.Set(tx, a, "next", value.Nil); err != nil {
			return err
		}
		return db.DeleteObject(tx, b)
	}); err != nil {
		t.Fatal(err)
	}
	if problems := db.CheckRefsAt(snap); len(problems) != 0 {
		t.Fatalf("CheckRefsAt reported false danglers: %v", problems)
	}
}

// TestGroupCommitCoalescing drives concurrent durable commits through the
// WAL's leader/follower protocol and checks the stats plumbing: every
// commit is carried by some flush, and recovery replays all of them.
func TestGroupCommitCoalescing(t *testing.T) {
	dir := t.TempDir()
	mem := vfs.NewMem()
	db := MustOpen(Options{Dir: dir, VFS: mem, SyncOnCommit: true, Output: io.Discard})
	employeeSchema(t, db)

	const workers, rounds = 8, 10
	ids := make([]oid.OID, workers)
	if err := db.Atomically(func(tx *Tx) error {
		for i := range ids {
			var err error
			ids[i], err = db.NewObject(tx, "Employee", nil)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				if err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, ids[w], "SetSalary", value.Float(float64(i)))
					return err
				}); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := db.Stats().Storage
	if s.CommitGroups == 0 {
		t.Fatal("no commit groups recorded under concurrent durable commits")
	}
	if s.GroupedCommits < s.CommitGroups {
		t.Fatalf("GroupedCommits (%d) < CommitGroups (%d): every flush carries >= 1 commit",
			s.GroupedCommits, s.CommitGroups)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Every coalesced commit must survive recovery.
	db2, err := Open(Options{Dir: dir, VFS: mem, Schema: func(d *Database) error {
		employeeSchema(t, d)
		return nil
	}, Output: io.Discard})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for _, id := range ids {
		var v value.Value
		if err := db2.Atomically(func(tx *Tx) error {
			var err error
			v, err = db2.Get(tx, id, "salary")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if v.MustFloat() != rounds {
			t.Fatalf("object %s recovered salary %v, want %d", id, v, rounds)
		}
	}
}
