package core

// Tests for LookupByAttr on a 2PL transaction: the index holds committed
// state, so another transaction's uncommitted writes never show, and the
// transaction's own writes do (read-your-writes, also through the
// SentinelQL lookup(...) builtin in a rule condition). Plus the allocation
// pins of writes to an indexed class.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// lookupClass defines LX (x indexed) with a Probe event whose class-level
// rule prints "seen <who>" when lookup("LX", "x", v) finds exactly n
// objects, and creates LX instances 0..11 with x = 0..11.
func lookupClass(t *testing.T, db *Database) []oid.OID {
	t.Helper()
	if err := db.Exec(`
		class LX reactive persistent {
			attr x float
			event end method Probe(v float, n int, who string) { }
		}
		index LX.x
	`); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`rule Seen for LX on end LX::Probe(float v, int n, string who) if len(lookup("LX", "x", v)) == n then print("seen", who)`); err != nil {
		t.Fatal(err)
	}
	var ids []oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		for i := 0; i < 12; i++ {
			id, err := db.NewObject(tx, "LX", map[string]value.Value{"x": value.Float(float64(i))})
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestLookup2PLIsolation: another open transaction's Set to the probed
// value, NewObject with it and DeleteObject of a matching object are all
// invisible to a second 2PL transaction's lookup, before and after that
// writer aborts; the writer's own lookups, and its rule conditions' lookup
// builtin, see all three. In memory and with a 4-object resident cap.
func TestLookup2PLIsolation(t *testing.T) {
	type want struct{ four, five []int } // indexes into ids; -1 is the created object
	cases := []struct {
		name      string
		write     func(db *Database, w *Tx, ids []oid.OID) (oid.OID, error)
		committed want
		own       want
	}{
		{
			name: "set",
			write: func(db *Database, w *Tx, ids []oid.OID) (oid.OID, error) {
				return oid.Nil, db.Set(w, ids[4], "x", value.Float(5))
			},
			committed: want{four: []int{4}, five: []int{5}},
			own:       want{four: nil, five: []int{4, 5}},
		},
		{
			name: "new",
			write: func(db *Database, w *Tx, ids []oid.OID) (oid.OID, error) {
				return db.NewObject(w, "LX", map[string]value.Value{"x": value.Float(5)})
			},
			committed: want{four: []int{4}, five: []int{5}},
			own:       want{four: []int{4}, five: []int{5, -1}},
		},
		{
			name: "delete",
			write: func(db *Database, w *Tx, ids []oid.OID) (oid.OID, error) {
				return oid.Nil, db.DeleteObject(w, ids[5])
			},
			committed: want{four: []int{4}, five: []int{5}},
			own:       want{four: []int{4}, five: nil},
		},
	}
	for _, paged := range []bool{false, true} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/paged=%v", c.name, paged), func(t *testing.T) {
				var out bytes.Buffer
				opts := Options{Output: &out}
				if paged {
					opts = Options{Dir: "db", VFS: vfs.NewMem(), MaxResidentObjects: 4, Output: &out}
				}
				db := MustOpen(opts)
				defer db.Close()
				ids := lookupClass(t, db)
				var born oid.OID
				expect := func(tx *Tx, x float64, idx []int) {
					t.Helper()
					var wantIDs []oid.OID
					for _, i := range idx {
						if i < 0 {
							wantIDs = append(wantIDs, born)
						} else {
							wantIDs = append(wantIDs, ids[i])
						}
					}
					got, indexed, err := db.LookupByAttr(tx, "LX", "x", value.Float(x))
					if err != nil || !indexed {
						t.Fatalf("lookup of %v: indexed=%v err=%v", x, indexed, err)
					}
					got = slices.Clone(got)
					value.SortRefs(got)
					value.SortRefs(wantIDs)
					if !slices.Equal(got, wantIDs) {
						t.Fatalf("lookup of x=%v = %v, want %v", x, got, wantIDs)
					}
				}
				probe := func(tx *Tx, on oid.OID, n int, who string) {
					t.Helper()
					out.Reset()
					if _, err := db.Send(tx, on, "Probe", value.Float(5), value.Int(int64(n)), value.Str(who)); err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(out.String(), "seen "+who) {
						t.Fatalf("rule condition's lookup of 5 did not find %d objects for %s (output %q)", n, who, out.String())
					}
				}

				r := db.Begin()
				w := db.Begin()
				var err error
				if born, err = c.write(db, w, ids); err != nil {
					t.Fatal(err)
				}
				expect(r, 4, c.committed.four)
				expect(r, 5, c.committed.five)
				probe(r, ids[11], len(c.committed.five), "reader")
				expect(w, 4, c.own.four)
				expect(w, 5, c.own.five)
				probe(w, ids[10], len(c.own.five), "writer")
				db.Abort(w)
				expect(r, 4, c.committed.four)
				expect(r, 5, c.committed.five)
				if err := db.Commit(r); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCreateIndexBackfillsCommitted: an index created by a transaction that
// already wrote an instance is backfilled with the committed value, so
// another transaction's lookup does not see the write before it commits,
// while the creator's own lookup does.
func TestCreateIndexBackfillsCommitted(t *testing.T) {
	db := MustOpen(Options{Output: &bytes.Buffer{}})
	defer db.Close()
	mkPersistentClass(t, db)
	ids := mkPersistentObjects(t, db, 3)
	w := db.Begin()
	if err := db.Set(w, ids[0], "x", value.Float(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex(w, "PX", "x"); err != nil {
		t.Fatal(err)
	}
	expect := func(tx *Tx, x float64, want ...oid.OID) {
		t.Helper()
		got, indexed, err := db.LookupByAttr(tx, "PX", "x", value.Float(x))
		if err != nil || !indexed || !slices.Equal(got, want) {
			t.Fatalf("lookup of %v = %v (indexed=%v, err=%v), want %v", x, got, indexed, err, want)
		}
	}
	r := db.Begin()
	expect(r, 9)
	expect(r, 0, ids[0])
	expect(w, 9, ids[0])
	expect(w, 0)
	if err := db.Commit(w); err != nil {
		t.Fatal(err)
	}
	expect(r, 9, ids[0])
	expect(r, 0)
	if err := db.Commit(r); err != nil {
		t.Fatal(err)
	}
}

// TestLookupEndedHandle: a committed and an aborted 2PL handle — whose
// transaction state is gone — get txn.ErrNotActive from LookupByAttr, with
// and without an index, and neither panics.
func TestLookupEndedHandle(t *testing.T) {
	db := MustOpen(Options{Output: &bytes.Buffer{}})
	defer db.Close()
	lookupClass(t, db)
	committed, aborted := db.Begin(), db.Begin()
	if err := db.Commit(committed); err != nil {
		t.Fatal(err)
	}
	db.Abort(aborted)
	for _, attr := range []string{"x", "nope"} { // indexed, then the scan path
		for name, tx := range map[string]*Tx{"committed": committed, "aborted": aborted} {
			if _, _, err := db.LookupByAttr(tx, "LX", attr, value.Float(1)); !errors.Is(err, txn.ErrNotActive) {
				t.Errorf("lookup of %s through the %s handle: %v, want ErrNotActive", attr, name, err)
			}
		}
	}
}

// TestIndexedWriteAllocs pins Atomically{Set} on an in-memory database
// with an index on Q.x. A write of the unindexed Q.y allocates exactly what
// a write to an unindexed class does (TestSynchronousCommitAllocs' 3): the
// install's index pass finds the value unchanged without building a key. A
// write that moves Q.x adds the two bucket keys and the new bucket's slice
// (6); it was 18 while the write moved the entry inline, with a
// covering-index slice, an undo closure and each key built twice.
func TestIndexedWriteAllocs(t *testing.T) {
	db := MustOpen(Options{Output: &bytes.Buffer{}})
	defer db.Close()
	p := hotPathClass(t, db, 1)[0]
	cls := schema.NewClass("Q")
	cls.Attr("x", value.TypeFloat)
	cls.Attr("y", value.TypeFloat)
	db.MustRegisterClass(cls)
	var q oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		q, err = db.NewObject(tx, "Q", nil)
		if err != nil {
			return err
		}
		_, err = db.CreateIndex(tx, "Q", "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	set := func(id oid.OID, attr string, v float64) float64 {
		return testing.AllocsPerRun(200, func() {
			v++
			if err := db.Atomically(func(tx *Tx) error { return db.Set(tx, id, attr, value.Float(v)) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	unindexed := set(p, "x", 0)
	if n := set(q, "y", 0); n != unindexed {
		t.Errorf("Set of an unindexed attribute of an indexed class: %v allocs/op, want %v as on an unindexed class", n, unindexed)
	}
	if n := set(q, "x", 0); n != unindexed+3 {
		t.Errorf("Set that moves an indexed attribute: %v allocs/op, want %v", n, unindexed+3)
	}
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	if got, _, _ := db.LookupByAttr(snap, "Q", "x", value.Float(201)); len(got) != 1 || got[0] != q {
		t.Fatalf("index after the moves: lookup of the last value = %v, want [%v]", got, q)
	}
}

// TestLookupOIDOrder: a lookup answers in OID order on every path — a
// transaction's own writes laid over the probe, a 2PL and a snapshot
// lookup after commit, and after a reopen — however the commit that moved
// the entries ordered its installs. Each round creates objects with x=1 in
// one transaction and moves them to x=2, in reverse order, in another.
func TestLookupOIDOrder(t *testing.T) {
	const n = 6
	for round := 0; round < 8; round++ {
		fs := vfs.NewMem()
		open := func() *Database {
			return MustOpen(Options{Dir: "db", VFS: fs, Output: &bytes.Buffer{}})
		}
		db := open()
		if err := db.Exec(`
			class LO persistent { attr x float }
			index LO.x
		`); err != nil {
			t.Fatal(err)
		}
		expect := func(db *Database, tx *Tx, x float64, want []oid.OID) {
			t.Helper()
			got, indexed, err := db.LookupByAttr(tx, "LO", "x", value.Float(x))
			if err != nil || !indexed || !slices.Equal(got, want) {
				t.Fatalf("round %d: lookup of %v = %v (indexed=%v, err=%v), want %v", round, x, got, indexed, err, want)
			}
		}
		var ids []oid.OID
		if err := db.Atomically(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				id, err := db.NewObject(tx, "LO", map[string]value.Value{"x": value.Float(1)})
				if err != nil {
					return err
				}
				ids = append(ids, id)
			}
			expect(db, tx, 1, ids)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Atomically(func(tx *Tx) error {
			for i := n - 1; i >= 0; i-- {
				if err := db.Set(tx, ids[i], "x", value.Float(2)); err != nil {
					return err
				}
			}
			expect(db, tx, 2, ids)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for reopen := 0; reopen < 2; reopen++ {
			if err := db.Atomically(func(tx *Tx) error { expect(db, tx, 2, ids); return nil }); err != nil {
				t.Fatal(err)
			}
			snap := db.BeginSnapshot()
			expect(db, snap, 2, ids)
			db.Abort(snap)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = open()
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
