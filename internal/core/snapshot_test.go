package core

// Tests for the snapshot handle (BeginSnapshot, mvcc.go): a snapshot is a
// registry slot plus a transaction ID — no lock-manager transaction, no
// transaction state — and reads attributes in place. They pin its
// allocations, its read-only surface, its end paths, repeatable reads
// without a per-snapshot cache, and LookupByAttr answering at the
// snapshot's LSN.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"sentinel/internal/event"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// TestSnapshotGetAllocs pins a resident BeginSnapshot/Get/Abort at the Tx
// handle and its read-only txn.Tx. It was 6 (480 B) while a snapshot was a
// lock-manager transaction with a recycled state, a clone cache and a clone
// of the object per read.
func TestSnapshotGetAllocs(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	id := hotPathClass(t, db, 1)[0]
	setX(t, db, id, 1)
	read := func() {
		snap := db.BeginSnapshot()
		if _, err := db.Get(snap, id, "x"); err != nil {
			t.Fatal(err)
		}
		db.Abort(snap)
	}
	read()
	if n := testing.AllocsPerRun(200, read); n > 2 {
		t.Fatalf("BeginSnapshot/Get/Abort: %v allocs/op, want ≤ 2", n)
	}
}

// BenchmarkSnapshotGet times a resident BeginSnapshot/Get/Abort.
func BenchmarkSnapshotGet(b *testing.B) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	id := hotPathClass(b, db, 1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap := db.BeginSnapshot()
		if _, err := db.Get(snap, id, "x"); err != nil {
			b.Fatal(err)
		}
		db.Abort(snap)
	}
}

// readOnlyFixture is a database with something for every mutation entry
// point to act on: class Q with an index on Q.x, a named event, a rule
// subscribed to the first object, and a name binding.
type readOnlyFixture struct {
	db   *Database
	ids  []oid.OID
	rule oid.OID
}

func newReadOnlyFixture(t *testing.T) readOnlyFixture {
	t.Helper()
	db := MustOpen(Options{Output: io.Discard})
	if err := db.Exec(`
		class Q reactive {
			attr x float
			attr y float
			attr peer Q
			event end method Set(v float) { self.x := v }
		}
		index Q.x
		event E = end Q::Set(float v)
	`); err != nil {
		t.Fatal(err)
	}
	f := readOnlyFixture{db: db}
	if err := db.Atomically(func(tx *Tx) error {
		for i := 0; i < 2; i++ {
			id, err := db.NewObject(tx, "Q", map[string]value.Value{"x": value.Float(1)})
			if err != nil {
				return err
			}
			f.ids = append(f.ids, id)
		}
		if err := db.Set(tx, f.ids[0], "peer", value.Ref(f.ids[1])); err != nil {
			return err
		}
		r, err := db.CreateRule(tx, RuleSpec{Name: "R", EventSrc: "end Q::Set(float v)"})
		if err != nil {
			return err
		}
		f.rule = r.ID()
		if err := db.Subscribe(tx, f.ids[0], r.ID()); err != nil {
			return err
		}
		return db.Bind(tx, "n", f.ids[0])
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSnapshotReadOnly runs every exported method that takes a *Tx against a
// snapshot: each mutator returns errReadOnlyTx — none panics, although a
// snapshot carries no transaction state — each reader answers, and nothing
// the mutators were refused reaches the database.
func TestSnapshotReadOnly(t *testing.T) {
	f := newReadOnlyFixture(t)
	db, ids := f.db, f.ids
	defer db.Close()
	evolved := schema.NewClass("Q")
	evolved.Attr("x", value.TypeFloat)

	snap := db.BeginSnapshot()
	mutators := []struct {
		name string
		fn   func() error
	}{
		{"NewObject", func() error { _, err := db.NewObject(snap, "Q", nil); return err }},
		{"Set", func() error { return db.Set(snap, ids[0], "x", value.Float(9)) }},
		{"SetSys", func() error { return db.SetSys(snap, ids[0], "x", value.Float(9)) }},
		{"DeleteObject", func() error { return db.DeleteObject(snap, ids[0]) }},
		{"Send", func() error { _, err := db.Send(snap, ids[0], "Set", value.Float(9)); return err }},
		{"RaiseExplicit", func() error { return db.RaiseExplicit(snap, ids[0], "Ping") }},
		{"CreateIndex", func() error { _, err := db.CreateIndex(snap, "Q", "y"); return err }},
		{"DropIndex", func() error { return db.DropIndex(snap, "Q", "x") }},
		{"DefineEvent", func() error { _, err := db.DefineEvent(snap, "E2", "end Q::Set(float v)"); return err }},
		{"DeleteEvent", func() error { return db.DeleteEvent(snap, "E") }},
		{"CreateRule", func() error {
			_, err := db.CreateRule(snap, RuleSpec{Name: "R2", EventSrc: "end Q::Set(float v)"})
			return err
		}},
		{"DeleteRule", func() error { return db.DeleteRule(snap, "R") }},
		{"EnableRule", func() error { return db.EnableRule(snap, "R") }},
		{"DisableRule", func() error { return db.DisableRule(snap, "R") }},
		{"Subscribe", func() error { return db.Subscribe(snap, ids[1], f.rule) }},
		{"SubscribeRule", func() error { return db.SubscribeRule(snap, "R", ids[1]) }},
		{"Unsubscribe", func() error { return db.Unsubscribe(snap, ids[0], f.rule) }},
		{"UnsubscribeRule", func() error { return db.UnsubscribeRule(snap, "R", ids[0]) }},
		{"Bind existing", func() error { return db.Bind(snap, "n", ids[1]) }},
		{"Bind new", func() error { return db.Bind(snap, "m", ids[1]) }},
		{"EvolveClass", func() error { return db.EvolveClass(snap, evolved, "") }},
		{"ExecScript assignment", func() error { return db.ExecScript(snap, `n.x := 9.0`) }},
		{"ExecScript send", func() error { return db.ExecScript(snap, `n!Set(9.0)`) }},
		{"ExecScript new", func() error { return db.ExecScript(snap, `bind k new Q(x: 9.0)`) }},
		{"ExecScript raise", func() error { return db.ExecScript(snap, `raise Ping()`) }},
		{"ExecScript class", func() error { return db.ExecScript(snap, `class Z { attr a int }`) }},
		{"ExecScript rule", func() error {
			return db.ExecScript(snap, `rule R3 on end Q::Set(float v) then print("x")`)
		}},
		{"ExecScript index", func() error { return db.ExecScript(snap, `index Q.y`) }},
	}
	for _, m := range mutators {
		if err := m.fn(); !errors.Is(err, errReadOnlyTx) {
			t.Errorf("%s on a snapshot: err = %v, want errReadOnlyTx", m.name, err)
		}
	}

	if v, err := db.Get(snap, ids[0], "x"); err != nil || v.MustFloat() != 1 {
		t.Errorf("Get on the snapshot = %v, %v; want 1", v, err)
	}
	if v, err := db.GetSys(snap, ids[0], "x"); err != nil || v.MustFloat() != 1 {
		t.Errorf("GetSys on the snapshot = %v, %v; want 1", v, err)
	}
	if s := db.DescribeObject(snap, ids[0]); strings.Contains(s, "<") {
		t.Errorf("DescribeObject on the snapshot = %q", s)
	}
	if got, indexed, err := db.LookupByAttr(snap, "Q", "x", value.Float(1)); err != nil || !indexed || len(got) != 2 {
		t.Errorf("LookupByAttr on the snapshot = %v, %v, %v; want both objects from the index", got, indexed, err)
	}
	if got := db.InstancesOfAt(snap, "Q"); len(got) != 2 {
		t.Errorf("InstancesOfAt on the snapshot = %v", got)
	}
	if p := db.CheckRefsAt(snap); len(p) != 0 {
		t.Errorf("CheckRefsAt on the snapshot: %v", p)
	}
	if err := db.ExecScript(snap, `let v := n.x
print(v, n.peer.x)`); err != nil {
		t.Errorf("read-only ExecScript on the snapshot: %v", err)
	}
	if err := db.Commit(snap); err != nil {
		t.Fatalf("snapshot commit: %v", err)
	}

	// Nothing the snapshot was refused reached the database.
	if n := len(db.InstancesOf("Q")); n != 2 {
		t.Errorf("%d Q instances after refused creates, want 2", n)
	}
	if db.reg.Lookup("Z") != nil {
		t.Error("class Z was registered through a snapshot")
	}
	if db.LookupRule("R2") != nil || db.LookupRule("R3") != nil {
		t.Error("a rule was created through a snapshot")
	}
	if _, ok := db.LookupEvent("E2"); ok {
		t.Error("event E2 was defined through a snapshot")
	}
	if db.Index("Q", "y") != nil || db.Index("Q", "x") == nil {
		t.Error("the indexes changed through a snapshot")
	}
	if id, _ := db.Lookup("n"); id != ids[0] {
		t.Error("binding n moved through a snapshot")
	}
	if subs := db.Subscribers(ids[0]); len(subs) != 1 {
		t.Errorf("subscribers of the first object = %v, want R", subs)
	}
	var x value.Value
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		x, err = db.Get(tx, ids[0], "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if x.MustFloat() != 1 {
		t.Fatalf("x = %v after refused snapshot writes, want 1", x)
	}
}

// TestSnapshotEndPaths: a snapshot is not a lock-manager transaction — the
// txns_* counters never see it and sentinel_snapshots_total does — the
// tracer sees its begin and end under ID(), and every end path releases
// its registration: Commit, Abort, a second Abort (a no-op), and the
// deferred Abort of a snapshot-evaluated detached condition that failed.
func TestSnapshotEndPaths(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, SnapshotConditions: true})
	defer db.Close()
	id := hotPathClass(t, db, 1)[0]
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "failing", EventSrc: "end P::Set(float v)", Coupling: "detached",
			Condition: func(ctx rule.ExecContext, det event.Detection) (bool, error) {
				if _, err := ctx.GetAttr(det.Last().Source, "x"); err != nil {
					return false, err
				}
				return false, errors.New("condition failed")
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, id, r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var trace []string
	note := func(kind string) func(obs.TxInfo) {
		return func(i obs.TxInfo) {
			mu.Lock()
			trace = append(trace, fmt.Sprintf("%s %d", kind, i.Tx))
			mu.Unlock()
		}
	}
	db.SetTracer(&obs.Tracer{TxBegin: note("begin"), TxCommit: note("commit"), TxAbort: note("abort")})
	before := db.Stats().Txn
	snapsBefore := snapshotsBegun(t, db)

	committed := db.BeginSnapshot()
	aborted := db.BeginSnapshot()
	if committed.ID() == aborted.ID() {
		t.Fatalf("two snapshots share ID %d", committed.ID())
	}
	if n := db.snaps.activeCount(); n != 2 {
		t.Fatalf("%d snapshots registered, want 2", n)
	}
	if err := db.Commit(committed); err != nil {
		t.Fatal(err)
	}
	db.Abort(aborted)
	db.Abort(aborted)
	db.Abort(committed)
	if err := db.Commit(aborted); !errors.Is(err, txn.ErrNotActive) {
		t.Fatalf("second end of a snapshot by Commit: %v, want ErrNotActive", err)
	}
	db.SetTracer(nil)
	if n := db.snaps.activeCount(); n != 0 {
		t.Fatalf("%d snapshots registered after Commit and Abort", n)
	}
	want := []string{
		fmt.Sprintf("begin %d", committed.ID()), fmt.Sprintf("begin %d", aborted.ID()),
		fmt.Sprintf("commit %d", committed.ID()), fmt.Sprintf("abort %d", aborted.ID()),
	}
	if !slices.Equal(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	after := db.Stats().Txn
	if after.Started != before.Started || after.Committed != before.Committed || after.Aborted != before.Aborted {
		t.Fatalf("lock-manager counters moved for snapshots: %+v → %+v", before, after)
	}
	if got := snapshotsBegun(t, db) - snapsBefore; got != 2 {
		t.Fatalf("sentinel_snapshots_total grew by %v, want 2", got)
	}

	// The detached condition's snapshot ends through its deferred Abort
	// although the condition failed.
	setX(t, db, id, 5)
	if n := db.snaps.activeCount(); n != 0 {
		t.Fatalf("%d snapshots registered after a failed snapshot condition", n)
	}
	if got := snapshotsBegun(t, db) - snapsBefore; got != 3 {
		t.Fatalf("sentinel_snapshots_total grew by %v, want 3 with the condition's", got)
	}
}

// snapshotsBegun reads sentinel_snapshots_total.
func snapshotsBegun(t *testing.T, db *Database) uint64 {
	t.Helper()
	n, ok := db.Metrics().Counter("sentinel_snapshots_total")
	if !ok {
		t.Fatal("sentinel_snapshots_total is not exported")
	}
	return n
}

// TestSnapshotRepeatableRead: without a per-snapshot cache, a snapshot's
// reads still agree — after two later commits to the object, and after its
// entry was evicted and faulted back in, before and after a writer anchored
// a chain on it.
func TestSnapshotRepeatableRead(t *testing.T) {
	db := MustOpen(Options{Dir: "db", VFS: vfs.NewMem(), MaxResidentObjects: 4, Output: io.Discard})
	defer db.Close()
	employeeSchema(t, db)
	ids := make([]oid.OID, 12)
	if err := db.Atomically(func(tx *Tx) error {
		for i := range ids {
			var err error
			if ids[i], err = db.NewObject(tx, "Employee", map[string]value.Value{"salary": value.Float(float64(100 + i))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	setSalary := func(id oid.OID, v float64) {
		t.Helper()
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, id, "SetSalary", value.Float(v))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// churn touches every other object until id is no longer resident.
	churn := func(id oid.OID) {
		t.Helper()
		for round := 0; round < 8; round++ {
			if _, found := db.dir.get(id); !found {
				return
			}
			for _, o := range ids[1:] {
				if err := db.Atomically(func(tx *Tx) error {
					_, err := db.Get(tx, o, "salary")
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		t.Fatalf("object %s stayed resident under eviction pressure", id)
	}
	target := ids[0]
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	read := func(when string) {
		t.Helper()
		v, err := db.Get(snap, target, "salary")
		if err != nil || v.MustFloat() != 100 {
			t.Fatalf("%s: snapshot read = %v, %v; want 100", when, v, err)
		}
	}
	read("first read")
	churn(target)
	read("after eviction")
	churn(target)
	setSalary(target, 200)
	setSalary(target, 300)
	read("after two later commits on a faulted-in entry")
	churn(ids[1])
	read("after eviction pressure on the chained entry")
}

// TestSnapshotLookup pins LookupByAttr at a snapshot. With an index on
// P.x, an object at x=1, a snapshot S, then x:=2 committed: S's lookup for 1
// finds the object and its lookup for 2 does not; a fresh snapshot does not
// see an uncommitted move; and a create and a delete after S are invisible
// to S. Each case runs in memory and with a 4-object resident cap, where
// most candidates are answered from the index without a directory entry.
func TestSnapshotLookup(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) { testSnapshotLookup(t, paged) })
	}
}

func testSnapshotLookup(t *testing.T, paged bool) {
	opts := Options{Output: io.Discard}
	if paged {
		opts = Options{Dir: "db", VFS: vfs.NewMem(), MaxResidentObjects: 4, Output: io.Discard}
	}
	db := MustOpen(opts)
	defer db.Close()
	mkPersistentClass(t, db)
	if err := db.Exec(`index PX.x`); err != nil {
		t.Fatal(err)
	}
	// Objects 0..11 hold x = 0..11; o moves, gone is deleted.
	ids := mkPersistentObjects(t, db, 12)
	o, gone := ids[1], ids[7]
	lookup := func(snap *Tx, x float64) []oid.OID {
		t.Helper()
		got, indexed, err := db.LookupByAttr(snap, "PX", "x", value.Float(x))
		if err != nil || !indexed {
			t.Fatalf("lookup of %v: indexed=%v err=%v", x, indexed, err)
		}
		return got
	}
	expect := func(snap *Tx, x float64, want ...oid.OID) {
		t.Helper()
		got := lookup(snap, x)
		value.SortRefs(got)
		value.SortRefs(want)
		if !slices.Equal(got, want) {
			t.Fatalf("snapshot lookup of x=%v = %v, want %v", x, got, want)
		}
	}
	write := func(tx *Tx, id oid.OID, x float64) {
		t.Helper()
		if _, err := db.Send(tx, id, "Set", value.Float(x)); err != nil {
			t.Fatal(err)
		}
	}

	s := db.BeginSnapshot()
	defer db.Abort(s)
	if err := db.Atomically(func(tx *Tx) error { write(tx, o, 2); return nil }); err != nil {
		t.Fatal(err)
	}
	var born oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		born, err = db.NewObject(tx, "PX", map[string]value.Value{"x": value.Float(3)})
		if err != nil {
			return err
		}
		return db.DeleteObject(tx, gone)
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(s, o, "x"); err != nil || v.MustFloat() != 1 {
		t.Fatalf("Get at S = %v, %v; want 1", v, err)
	}
	expect(s, 1, o)
	expect(s, 2, ids[2])
	expect(s, 3, ids[3])
	expect(s, 7, gone)

	// An uncommitted move, create and delete: invisible to S and to a fresh
	// snapshot, which reads the committed state.
	w := db.Begin()
	write(w, ids[4], 5)
	if _, err := db.NewObject(w, "PX", map[string]value.Value{"x": value.Float(5)}); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteObject(w, ids[6]); err != nil {
		t.Fatal(err)
	}
	fresh := db.BeginSnapshot()
	expect(fresh, 5, ids[5])
	expect(fresh, 4, ids[4])
	expect(fresh, 6, ids[6])
	expect(fresh, 2, ids[2], o)
	expect(fresh, 3, ids[3], born)
	expect(fresh, 7)
	expect(s, 4, ids[4])
	expect(s, 6, ids[6])
	expect(s, 1, o)
	db.Abort(w)
	expect(fresh, 4, ids[4])
	expect(fresh, 6, ids[6])
	expect(fresh, 5, ids[5])
	db.Abort(fresh)

	// The 2PL path reads the committed entries.
	if err := db.Atomically(func(tx *Tx) error {
		got, _, err := db.LookupByAttr(tx, "PX", "x", value.Float(2))
		if err == nil && len(got) != 2 {
			err = fmt.Errorf("2PL lookup of 2 = %v", got)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.LookupByAttr(fresh, "PX", "x", value.Float(2)); !errors.Is(err, txn.ErrNotActive) {
		t.Fatalf("lookup through an ended snapshot: %v, want ErrNotActive", err)
	}
}

// TestSnapshotLookupStress races snapshot and 2PL lookups against writers
// whose every transaction moves, creates or deletes an indexed object and
// then aborts, beside 2PL readers whose commits keep the evictor busy. The
// committed state never changes, so every lookup — at a snapshot or not —
// must return exactly the objects created with that value, whatever
// in-flight writes, undos and evictions it ran into. Run with -race.
func TestSnapshotLookupStress(t *testing.T) {
	db := MustOpen(Options{Dir: "db", VFS: vfs.NewMem(), MaxResidentObjects: 8, Output: io.Discard})
	defer db.Close()
	mkPersistentClass(t, db)
	if err := db.Exec(`index PX.x`); err != nil {
		t.Fatal(err)
	}
	const values = 4
	var ids []oid.OID
	want := make([][]oid.OID, values)
	if err := db.Atomically(func(tx *Tx) error {
		for i := 0; i < 32; i++ {
			id, err := db.NewObject(tx, "PX", map[string]value.Value{"x": value.Float(float64(i % values))})
			if err != nil {
				return err
			}
			ids = append(ids, id)
			want[i%values] = append(want[i%values], id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	iters := 400
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(i); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(func(i int) error {
			id := ids[(i*7+w*13)%len(ids)]
			tx := db.Begin()
			defer db.Abort(tx)
			switch i % 3 {
			case 0:
				return db.Set(tx, id, "x", value.Float(float64((i+w)%values)))
			case 1:
				_, err := db.NewObject(tx, "PX", map[string]value.Value{"x": value.Float(float64(i % values))})
				return err
			default:
				return db.DeleteObject(tx, id)
			}
		})
	}
	run(func(i int) error {
		return db.Atomically(func(tx *Tx) error {
			_, err := db.Get(tx, ids[(i*11)%len(ids)], "x")
			return err
		})
	})
	check := func(tx *Tx, v int) error {
		got, _, err := db.LookupByAttr(tx, "PX", "x", value.Float(float64(v)))
		if err != nil {
			return err
		}
		got = slices.Clone(got)
		value.SortRefs(got)
		if !slices.Equal(got, want[v]) {
			_, snap := tx.Snapshot()
			return fmt.Errorf("lookup of x=%d (snapshot %v) = %v, want %v", v, snap, got, want[v])
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		run(func(i int) error {
			snap := db.BeginSnapshot()
			defer db.Abort(snap)
			return check(snap, (i+r)%values)
		})
		run(func(i int) error {
			return db.Atomically(func(tx *Tx) error { return check(tx, (i+r+1)%values) })
		})
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
