package core_test

// Demand-paging tests: with Options.MaxResidentObjects set below the
// population, the database must behave exactly like the fully-resident
// configuration — every read faults the right object back in, deletes and
// aborts keep their semantics, dumps and integrity checks see the whole
// population — while the resident set stays bounded.

import (
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sentinel/internal/bench"
	"sentinel/internal/core"
	"sentinel/internal/oid"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

func pagedOpts(dir string, maxResident int) core.Options {
	o := core.Options{Dir: dir, Output: io.Discard, MaxResidentObjects: maxResident}
	o.Schema = func(db *core.Database) error { return bench.InstallOrgSchema(db) }
	return o
}

func mkEmployees(t *testing.T, db *core.Database, n int) []oid.OID {
	t.Helper()
	ids := make([]oid.OID, n)
	for lo := 0; lo < n; lo += 50 {
		hi := lo + 50
		if hi > n {
			hi = n
		}
		if err := db.Atomically(func(tx *core.Tx) error {
			for i := lo; i < hi; i++ {
				var err error
				ids[i], err = db.NewObject(tx, "Employee", map[string]value.Value{
					"name":   value.Str(fmt.Sprintf("e%d", i)),
					"salary": value.Float(float64(1000 + i)),
				})
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func salaryOf(t *testing.T, db *core.Database, id oid.OID) float64 {
	t.Helper()
	var got float64
	if err := db.Atomically(func(tx *core.Tx) error {
		v, err := db.GetSys(tx, id, "salary")
		if err != nil {
			return err
		}
		got, _ = v.Numeric()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPagedFullTouchTransparency creates a population several times larger
// than the resident ceiling, reads every object repeatedly, and checks that
// values, scans, dumps and the integrity checker all behave as if everything
// were resident — while the directory stays bounded and the fault/eviction
// counters prove paging actually happened.
func TestPagedFullTouchTransparency(t *testing.T) {
	const n, maxRes = 300, 48
	dir := t.TempDir()
	db := core.MustOpen(pagedOpts(dir, maxRes))
	defer db.Close()
	ids := mkEmployees(t, db, n)

	for pass := 0; pass < 3; pass++ {
		for i, id := range ids {
			if got := salaryOf(t, db, id); got != float64(1000+i) {
				t.Fatalf("pass %d: employee %d salary = %v, want %d", pass, i, got, 1000+i)
			}
		}
	}

	s := db.Stats()
	if s.Objects.Total < n {
		t.Fatalf("Objects.Total = %d, want >= %d", s.Objects.Total, n)
	}
	if s.Objects.Resident >= n {
		t.Fatalf("Objects.Resident = %d: nothing was ever evicted (population %d, max %d)",
			s.Objects.Resident, n, maxRes)
	}
	if s.Storage.Faults == 0 || s.Storage.Evictions == 0 {
		t.Fatalf("Faults = %d, Evictions = %d: paging never engaged", s.Storage.Faults, s.Storage.Evictions)
	}

	got := db.InstancesOf("Employee")
	if len(got) != n {
		t.Fatalf("InstancesOf(Employee) = %d instances, want %d", len(got), n)
	}
	db.MustBeConsistent()
}

// TestPagedDumpMatchesEager: the dump of a demand-paged database must be
// byte-identical to the dump of the same directory opened fully resident.
func TestPagedDumpMatchesEager(t *testing.T) {
	dir := t.TempDir()
	db := core.MustOpen(pagedOpts(dir, 32))
	mkEmployees(t, db, 200)
	var paged strings.Builder
	if err := db.DumpDSL(&paged); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// No ceiling, and every instance touched: the whole population is
	// resident when the second dump runs.
	db2 := core.MustOpen(pagedOpts(dir, 0))
	defer db2.Close()
	for _, id := range db2.InstancesOf("Employee") {
		salaryOf(t, db2, id)
	}
	var eager strings.Builder
	if err := db2.DumpDSL(&eager); err != nil {
		t.Fatal(err)
	}
	if paged.String() != eager.String() {
		t.Fatalf("paged dump differs from eager dump:\n-- paged --\n%s\n-- eager --\n%s",
			paged.String(), eager.String())
	}
}

// TestColdOpenLazy: a reopen must NOT materialize the application objects;
// they fault in on first touch.
func TestColdOpenLazy(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	db := core.MustOpen(pagedOpts(dir, 0))
	ids := mkEmployees(t, db, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := core.MustOpen(pagedOpts(dir, 64))
	defer db2.Close()
	s := db2.Stats()
	if s.Objects.Total < n {
		t.Fatalf("Objects.Total = %d after reopen, want >= %d", s.Objects.Total, n)
	}
	if s.Objects.Resident >= n/2 {
		t.Fatalf("cold open materialized %d of %d objects", s.Objects.Resident, n)
	}
	for i, id := range ids {
		if got := salaryOf(t, db2, id); got != float64(1000+i) {
			t.Fatalf("employee %d after cold open: salary = %v, want %d", i, got, 1000+i)
		}
	}
	if s2 := db2.Stats(); s2.Storage.Faults < uint64(n) {
		t.Fatalf("Faults = %d after touching %d cold objects", s2.Storage.Faults, n)
	}
	db2.MustBeConsistent()
}

// TestPagedCrashRecovery: paging and the no-steal redo protocol compose.
func TestPagedCrashRecovery(t *testing.T) {
	const n = 120
	dir := t.TempDir()
	db := core.MustOpen(pagedOpts(dir, 32))
	ids := mkEmployees(t, db, n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint committed updates live only in the WAL.
	if err := db.Atomically(func(tx *core.Tx) error {
		for _, id := range ids[:10] {
			if err := db.SetSys(tx, id, "salary", value.Float(7)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}

	db2, err := core.Open(pagedOpts(dir, 32))
	if err != nil {
		t.Fatalf("crash recovery with paging: %v", err)
	}
	defer db2.Close()
	for i, id := range ids {
		want := float64(1000 + i)
		if i < 10 {
			want = 7
		}
		if got := salaryOf(t, db2, id); got != want {
			t.Fatalf("employee %d after recovery: salary = %v, want %v", i, got, want)
		}
	}
	db2.MustBeConsistent()
}

// heapReadFS counts the bytes read from objects.dat.
type heapReadFS struct {
	vfs.FS
	read atomic.Int64
}

func (fs *heapReadFS) OpenFile(path string, flag int, perm iofs.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != "objects.dat" {
		return f, err
	}
	return &heapReadFile{File: f, read: &fs.read}, nil
}

type heapReadFile struct {
	vfs.File
	read *atomic.Int64
}

func (f *heapReadFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// TestReopenHeapPasses: a crash reopen reads objects.dat twice (the free-space
// pass at open, then the page scan that rebuilds the object table with each
// record's class), a clean reopen once. The pool is far smaller than the
// file, so every pass really goes to the file.
func TestReopenHeapPasses(t *testing.T) {
	fs := &heapReadFS{FS: vfs.NewMem()}
	opts := pagedOpts("db", 0)
	opts.VFS, opts.PoolPages = fs, 8
	db := core.MustOpen(opts)
	ids := mkEmployees(t, db, 20000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Atomically(func(tx *core.Tx) error {
		return db.SetSys(tx, ids[0], "salary", value.Float(7))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseAbrupt(); err != nil {
		t.Fatal(err)
	}
	reopen := func() (*core.Database, float64) {
		t.Helper()
		fs.read.Store(0)
		db, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		dat, err := fs.ReadFile("db/objects.dat")
		if err != nil {
			t.Fatal(err)
		}
		return db, float64(fs.read.Load()) / float64(len(dat))
	}

	db, crash := reopen()
	if got := salaryOf(t, db, ids[0]); got != 7 {
		t.Fatalf("salary after crash reopen = %v, want 7", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, clean := reopen()
	defer db.Close()
	t.Logf("objects.dat passes: crash reopen %.2f, clean reopen %.2f", crash, clean)
	if crash > 2.1 {
		t.Errorf("crash reopen read objects.dat %.2f times, want at most 2.1", crash)
	}
	if clean > 1.01 {
		t.Errorf("clean reopen read objects.dat %.2f times, want 1.00", clean)
	}
}

// TestPagedDeleteAndAbort: deleting a cold object faults it in, tombstones
// it (invisible, not resurrectable), and abort restores it untouched.
func TestPagedDeleteAndAbort(t *testing.T) {
	dir := t.TempDir()
	db := core.MustOpen(pagedOpts(dir, 0))
	ids := mkEmployees(t, db, 100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := core.MustOpen(pagedOpts(dir, 16))
	defer db2.Close()
	victim := ids[42]

	// Abort path.
	tx := db2.Begin()
	if err := db2.DeleteObject(tx, victim); err != nil {
		t.Fatal(err)
	}
	db2.Abort(tx)
	if got := salaryOf(t, db2, victim); got != 1042 {
		t.Fatalf("aborted delete: salary = %v, want 1042", got)
	}

	// Commit path.
	if err := db2.Atomically(func(tx *core.Tx) error {
		return db2.DeleteObject(tx, victim)
	}); err != nil {
		t.Fatal(err)
	}
	if db2.Exists(victim) {
		t.Fatal("deleted object still visible")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := core.MustOpen(pagedOpts(dir, 16))
	defer db3.Close()
	if db3.Exists(victim) {
		t.Fatal("deleted object resurrected on reopen")
	}
	db3.MustBeConsistent()
}

// TestAutoCheckpoint: with a tiny CheckpointBytes threshold every commit
// triggers a checkpoint, the counter advances, and the WAL stays short.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := pagedOpts(dir, 0)
	opts.CheckpointBytes = 1
	db := core.MustOpen(opts)
	defer db.Close()

	before := db.Stats().Storage.Checkpoints
	mkEmployees(t, db, 100) // 2 batches of 50
	s := db.Stats()
	if s.Storage.Checkpoints <= before {
		t.Fatalf("Checkpoints = %d (was %d): auto-checkpoint never fired", s.Storage.Checkpoints, before)
	}
	if sz := db.WALSize(); sz > 4096 {
		t.Fatalf("WAL = %d bytes despite per-commit checkpoints", sz)
	}

	// Negative threshold disables the trigger entirely.
	dir2 := t.TempDir()
	opts2 := pagedOpts(dir2, 0)
	opts2.CheckpointBytes = -1
	db2 := core.MustOpen(opts2)
	defer db2.Close()
	b2 := db2.Stats().Storage.Checkpoints
	mkEmployees(t, db2, 100)
	if got := db2.Stats().Storage.Checkpoints; got != b2 {
		t.Fatalf("Checkpoints moved %d -> %d with auto-checkpoint disabled", b2, got)
	}
	if db2.WALSize() == 0 {
		t.Fatal("WAL empty: commits were not logged?")
	}
}

// TestPagedConcurrentChurn hammers a small resident ceiling from several
// goroutines doing reads, writes and scans; meaningful mainly under -race.
func TestPagedConcurrentChurn(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	db := core.MustOpen(pagedOpts(dir, 24))
	defer db.Close()
	ids := mkEmployees(t, db, n)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				id := ids[rng.Intn(n)]
				err := db.Atomically(func(tx *core.Tx) error {
					if i%3 == 0 {
						return db.SetSys(tx, id, "salary", value.Float(float64(rng.Intn(5000))))
					}
					_, err := db.GetSys(tx, id, "salary")
					return err
				})
				if err != nil && !core.IsAbort(err) {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if len(db.InstancesOf("Employee")) != n {
		t.Fatal("population changed under churn")
	}
	db.MustBeConsistent()
}

// TestPagedEvolveColdInstances: schema evolution must migrate instances
// that are not resident (they get faulted in before the registry swap).
func TestPagedEvolveColdInstances(t *testing.T) {
	dir := t.TempDir()
	db := core.MustOpen(core.Options{Dir: dir, Output: io.Discard})
	if err := db.Exec(`
		class Part persistent {
			attr name string
			attr qty int
		}
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := db.Exec(fmt.Sprintf(`new Part(name: "p%d", qty: %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := core.MustOpen(core.Options{Dir: dir, Output: io.Discard, MaxResidentObjects: 16})
	defer db2.Close()
	if r := db2.Stats().Objects.Resident; r >= 120 {
		t.Fatalf("reopen materialized %d objects", r)
	}
	if err := db2.Exec(`
		evolve class Part persistent {
			attr name string
			attr qty int
			attr rating float = 5.0
		}
	`); err != nil {
		t.Fatalf("evolve over cold instances: %v", err)
	}
	insts := db2.InstancesOf("Part")
	if len(insts) != 120 {
		t.Fatalf("InstancesOf(Part) = %d, want 120", len(insts))
	}
	for _, id := range insts {
		if err := db2.Atomically(func(tx *core.Tx) error {
			r, err := db2.GetSys(tx, id, "rating")
			if err != nil {
				return err
			}
			if f, _ := r.Numeric(); f != 5.0 {
				t.Errorf("object %s: rating = %v after evolve", id, r)
			}
			q, err := db2.GetSys(tx, id, "qty")
			if err != nil {
				return err
			}
			if qi, _ := q.AsInt(); qi < 0 || qi >= 120 {
				t.Errorf("object %s: qty = %v lost in migration", id, q)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	db2.MustBeConsistent()
}
