package core_test

// The replica keeps its catalogs, secondary indexes and OID high-water
// current from the shipped stream alone — live, across a reopen, and through
// a base-state install — and a commit's WAL batch is a function of the
// transaction, not of Go map order.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// indexView renders what LookupByAttr(Kit.n = v) answers for a few values,
// OIDs sorted, together with whether an index served each lookup.
func indexView(t *testing.T, db *core.Database) string {
	t.Helper()
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	var sb strings.Builder
	for _, v := range []int64{0, 3, 7, 9} {
		ids, indexed, err := db.LookupByAttr(snap, "Kit", "n", value.Int(v))
		if err != nil {
			t.Fatal(err)
		}
		value.SortRefs(ids)
		fmt.Fprintf(&sb, "n=%d %v indexed=%v; ", v, ids, indexed)
	}
	return sb.String()
}

// kitSteps is a primary history that creates, updates and deletes indexed
// objects around an index, its drop and its re-creation.
var kitSteps = []string{
	coreReplSchema,
	"index Kit.n",
	"K!Set(7) bind K2 new Kit(n: 7) bind K3 new Kit(n: 3)",
	"delete K3",
	"K2!Set(9)",
	"unindex Kit.n",
	"K!Set(3)",
	"index Kit.n",
	"K!Set(9) bind K4 new Kit(n: 0)",
}

// runKitStep runs one kitSteps entry on the primary ("delete X" deletes the
// object bound to X).
func runKitStep(t *testing.T, db *core.Database, step string) {
	t.Helper()
	if name, ok := strings.CutPrefix(step, "delete "); ok {
		id, _ := db.Lookup(name)
		if err := db.Atomically(func(tx *core.Tx) error { return db.DeleteObject(tx, id) }); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := db.Exec(step); err != nil {
		t.Fatalf("%q: %v", step, err)
	}
}

// TestReplicaIndexesFollowPrimary: after every step of kitSteps, a replica
// answers LookupByAttr exactly as the primary does — applying live, reopened
// and then applying, and installing the primary's base state.
func TestReplicaIndexesFollowPrimary(t *testing.T) {
	pri := core.MustOpen(persistentOpts(t.TempDir()))
	defer pri.Close()
	shipped := captureShip(pri)

	openReplica := func(fs *vfs.Mem) *core.Database {
		opts := persistentOpts("r")
		opts.VFS, opts.Replica = fs, true
		return core.MustOpen(opts)
	}
	liveFS, reopenFS, baseFS := vfs.NewMem(), vfs.NewMem(), vfs.NewMem()
	live, reopened, based := openReplica(liveFS), openReplica(reopenFS), openReplica(baseFS)
	defer func() {
		live.Close()
		reopened.Close()
		based.Close()
	}()

	for i, step := range kitSteps {
		runKitStep(t, pri, step)
		want := indexView(t, pri)
		for _, b := range *shipped {
			if b.LSN == 0 {
				continue
			}
			if err := live.ApplyReplicated(b); err != nil {
				t.Fatal(err)
			}
			if err := reopened.ApplyReplicated(b); err != nil {
				t.Fatal(err)
			}
		}
		*shipped = (*shipped)[:0]
		base, err := pri.ReplBaseState()
		if err != nil {
			t.Fatal(err)
		}
		if err := based.ApplyBaseState(base.LSN, base.Objects); err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			how string
			db  *core.Database
		}{{"live apply", live}, {"apply after reopen", reopened}, {"base state", based}} {
			if got := indexView(t, r.db); got != want {
				t.Errorf("step %d %q, %s:\n got  %s\n want %s", i, step, r.how, got, want)
			}
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
		reopened = openReplica(reopenFS)
		if got := indexView(t, reopened); got != want {
			t.Errorf("step %d %q, reopen:\n got  %s\n want %s", i, step, got, want)
		}
	}
}

const kitEvolved = `evolve class Kit reactive persistent {
	attr rating int = 5
	attr n int
	event end method Set(v int) { self.n := v }
}`

// TestReplicaAppliesEvolve: a shipped `evolve class` takes effect on the
// replica at once. The evolved layout puts the new attribute in front of n,
// so an instance's prior image only reads right under the old layout: a
// reopened replica (K not resident) must still keep the index and an older
// snapshot on the pre-evolve state.
func TestReplicaAppliesEvolve(t *testing.T) {
	pri := core.MustOpen(persistentOpts(t.TempDir()))
	defer pri.Close()
	shipped := captureShip(pri)
	for _, step := range []string{coreReplSchema, "index Kit.n", "K!Set(7)"} {
		runKitStep(t, pri, step)
	}
	setup := len(*shipped)
	runKitStep(t, pri, kitEvolved)
	runKitStep(t, pri, "K!Set(9)")

	for _, reopen := range []bool{false, true} {
		fs := vfs.NewMem()
		opts := persistentOpts("r")
		opts.VFS, opts.Replica = fs, true
		rep := core.MustOpen(opts)
		if err := rep.ApplyReplicated((*shipped)[:setup]...); err != nil {
			t.Fatal(err)
		}
		if reopen {
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
			rep = core.MustOpen(opts)
		}
		k, _ := rep.Lookup("K")
		old := rep.BeginSnapshot()
		if err := rep.ApplyReplicated((*shipped)[setup:]...); err != nil {
			t.Fatal(err)
		}
		snap := rep.BeginSnapshot()
		for attr, want := range map[string]string{"rating": "5", "n": "9"} {
			if v, err := rep.Get(snap, k, attr); err != nil || v.String() != want {
				t.Errorf("reopen=%v: K.%s = %v (%v), want %s", reopen, attr, v, err, want)
			}
		}
		if v, err := rep.Get(old, k, "n"); err != nil || v.String() != "7" {
			t.Errorf("reopen=%v: pre-evolve snapshot K.n = %v (%v), want 7", reopen, v, err)
		}
		rep.Abort(snap)
		rep.Abort(old)
		if got, want := indexView(t, rep), indexView(t, pri); got != want {
			t.Errorf("reopen=%v:\n got  %s\n want %s", reopen, got, want)
		}
		rep.Close()
	}
}

// TestSameScriptSameBytes: one multi-object script run twice on fresh
// in-memory file systems writes byte-identical WAL, heap and object-table
// files (the last carries each object's class).
func TestSameScriptSameBytes(t *testing.T) {
	run := func() map[string][]byte {
		fs := vfs.NewMem()
		db := core.MustOpen(core.Options{Dir: "db", VFS: fs, Output: io.Discard,
			MaxResidentObjects: 0, CheckpointBytes: -1})
		for _, step := range kitSteps {
			runKitStep(t, db, step)
		}
		img := make(map[string][]byte)
		read := func(name string) {
			b, err := fs.ReadFile("db/" + name)
			if err != nil {
				t.Fatal(err)
			}
			img[name] = b
		}
		read("sentinel.wal")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		read("objects.dat")
		read("objects.idx")
		return img
	}
	first := run()
	for i := 0; i < 3; i++ {
		for name, b := range run() {
			if !bytes.Equal(first[name], b) {
				t.Fatalf("run %d: %s differs (%d vs %d bytes)", i+2, name, len(first[name]), len(b))
			}
		}
	}
}

// TestPromotedReplicaKeepsOIDHighWater: a replica follows the primary's OID
// high-water, so once promoted it never reissues an OID the primary handed
// out and deleted again (here the __Index object `unindex` deletes).
func TestPromotedReplicaKeepsOIDHighWater(t *testing.T) {
	pri := core.MustOpen(persistentOpts(t.TempDir()))
	defer pri.Close()
	shipped := captureShip(pri)
	for _, step := range []string{coreReplSchema, "index Kit.n", "unindex Kit.n"} {
		runKitStep(t, pri, step)
	}
	opts := persistentOpts("r")
	opts.VFS, opts.Replica = vfs.NewMem(), true
	rep := core.MustOpen(opts)
	if err := rep.ApplyReplicated(*shipped...); err != nil {
		t.Fatal(err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	opts.Replica = false
	promoted := core.MustOpen(opts)
	defer promoted.Close()
	runKitStep(t, pri, "bind Z new Kit(n: 1)")
	runKitStep(t, promoted, "bind Z new Kit(n: 1)")
	want, _ := pri.Lookup("Z")
	if got, _ := promoted.Lookup("Z"); got != want {
		t.Fatalf("promoted replica created Z as %v, the primary as %v", got, want)
	}
}
