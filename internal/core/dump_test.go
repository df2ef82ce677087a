package core_test

import (
	"io"
	"strings"
	"testing"

	"sentinel/internal/bench"
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/value"
)

const dumpFixture = `
	class Dept reactive persistent {
		attr name string
		attr head Staff
	}
	class Staff reactive persistent {
		attr name string
		private attr pay float
		attr dept Dept
		event end method SetPay(x float) { self.pay := x }
		method Pay() float { return self.pay }
	}

	event PayChange = end Staff::SetPay(float x)

	rule PayCap for Staff on PayChange
		if x > 100000.0
		then abort "cap"
		priority 3

	rule PayAudit on PayChange
		then print("audit", x)
		coupling deferred
		scope transaction

	index Staff.name

	let eng := new Dept(name: "eng")
	let ann := new Staff(name: "ann", pay: 50000.0)
	let bob := new Staff(name: "bob", pay: 60000.0)
	ann.dept := eng
	bob.dept := eng
	eng.head := bob
	bind Eng eng
	bind Ann ann
	subscribe PayAudit to ann
	disable PayAudit
`

func buildDumpFixture(t *testing.T) *core.Database {
	t.Helper()
	db := core.MustOpen(core.Options{Output: io.Discard})
	// The fixture writes the private `pay` through initializers and the
	// dept refs through shell assignment, so build it with RestoreDSL
	// (system visibility), which is also what a real restore uses.
	if err := db.RestoreDSL(dumpFixture); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDumpRestoreRoundtrip(t *testing.T) {
	db := buildDumpFixture(t)
	var dump strings.Builder
	if err := db.DumpDSL(&dump); err != nil {
		t.Fatal(err)
	}
	text := dump.String()

	// Restore into a fresh database.
	db2 := core.MustOpen(core.Options{Output: io.Discard})
	if err := db2.RestoreDSL(text); err != nil {
		t.Fatalf("restore failed: %v\n--- dump ---\n%s", err, text)
	}

	// Classes and rules.
	for _, cls := range []string{"Dept", "Staff"} {
		if db2.Registry().Lookup(cls) == nil {
			t.Fatalf("class %s not restored", cls)
		}
	}
	cap2 := db2.LookupRule("PayCap")
	if cap2 == nil || cap2.Priority != 3 || cap2.ClassLevel != "Staff" {
		t.Fatalf("PayCap restored wrong: %+v", cap2)
	}
	audit2 := db2.LookupRule("PayAudit")
	if audit2 == nil || !audit2.TxScoped || audit2.Enabled() {
		t.Fatalf("PayAudit restored wrong (txScoped=%v enabled=%v)", audit2.TxScoped, audit2.Enabled())
	}
	if _, ok := db2.LookupEvent("PayChange"); !ok {
		t.Fatal("named event not restored")
	}
	if db2.Index("Staff", "name") == nil {
		t.Fatal("index not restored")
	}

	// Objects, attributes (including private ones), references, bindings.
	ann2, ok := db2.Lookup("Ann")
	if !ok {
		t.Fatal("binding Ann not restored")
	}
	eng2, _ := db2.Lookup("Eng")
	if err := db2.Atomically(func(tx *core.Tx) error {
		pay, err := db2.GetSys(tx, ann2, "pay")
		if err != nil {
			return err
		}
		if f, _ := pay.Numeric(); f != 50000 {
			t.Errorf("ann pay = %v", pay)
		}
		dept, err := db2.GetSys(tx, ann2, "dept")
		if err != nil {
			return err
		}
		if r, _ := dept.AsRef(); r != eng2 {
			t.Errorf("ann.dept = %v, want %v", dept, eng2)
		}
		head, err := db2.GetSys(tx, eng2, "head")
		if err != nil {
			return err
		}
		if r, _ := head.AsRef(); r.IsNil() {
			t.Error("eng.head not restored")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Subscriptions: PayAudit subscribed to ann (even though disabled).
	if subs := db2.Subscribers(ann2); len(subs) != 1 {
		t.Fatalf("ann subscriptions = %v", subs)
	}

	// Behaviour: the class-level cap still enforces in the restored DB.
	err := db2.Atomically(func(tx *core.Tx) error {
		_, err := db2.Send(tx, ann2, "SetPay", value.Float(200000))
		return err
	})
	if !core.IsAbort(err) {
		t.Fatalf("restored PayCap did not fire: %v", err)
	}

	// Idempotence-ish: dumping the restored database reproduces the same
	// logical sections (object variable names differ only if OIDs differ;
	// they shouldn't here since creation order is the dump's order).
	var dump2 strings.Builder
	if err := db2.DumpDSL(&dump2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump2.String(), "rule PayCap for Staff") {
		t.Fatalf("second-generation dump lost the rule:\n%s", dump2.String())
	}
}

func TestDumpFlagsGoClosures(t *testing.T) {
	db := orgDB(t)
	if err := db.Atomically(func(tx *core.Tx) error {
		_, err := db.CreateRule(tx, core.RuleSpec{
			Name:      "opaque",
			EventSrc:  "end Employee::SetSalary(float a)",
			Condition: func(ctx rule.ExecContext, det event.Detection) (bool, error) { return false, nil },
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	if err := db.DumpDSL(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "# rule opaque uses unregistered Go closures") {
		t.Fatalf("closure rule not flagged:\n%s", dump.String())
	}
}

func TestDumpGoRegistryRefsRoundtrip(t *testing.T) {
	fired := 0
	mkOpts := func() core.Options {
		return core.Options{Output: io.Discard, Schema: func(db *core.Database) error {
			if err := bench.InstallOrgSchema(db); err != nil {
				return err
			}
			db.RegisterCondition("big", func(ctx rule.ExecContext, det event.Detection) (bool, error) {
				f, _ := det.Last().Args[0].Numeric()
				return f > 100, nil
			})
			db.RegisterAction("note", func(ctx rule.ExecContext, det event.Detection) error {
				fired++
				return nil
			})
			return nil
		}}
	}
	db := core.MustOpen(mkOpts())
	fred := mkEmployee(t, db, "fred", 1)
	if err := db.Atomically(func(tx *core.Tx) error {
		r, err := db.CreateRule(tx, core.RuleSpec{
			Name:      "reg",
			EventSrc:  "end Employee::SetSalary(float amount)",
			CondSrc:   "go:big",
			ActionSrc: "go:note",
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, fred, r.ID())
	}); err != nil {
		t.Fatal(err)
	}
	_ = fred

	var dump strings.Builder
	if err := db.DumpDSL(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "if go:big") || !strings.Contains(dump.String(), "then go:note") {
		t.Fatalf("go: refs not dumped:\n%s", dump.String())
	}
	db2 := core.MustOpen(mkOpts())
	if err := db2.RestoreDSL(dump.String()); err != nil {
		t.Fatalf("restore: %v\n%s", err, dump.String())
	}
	// The restored rule works through the registry.
	emp2 := db2.InstancesOf("Employee")[0]
	if err := db2.Atomically(func(tx *core.Tx) error {
		_, err := db2.Send(tx, emp2, "SetSalary", value.Float(500))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("restored go: rule fired %d times", fired)
	}
}

// largeDump dumps a ring of n Node objects, each referring to the next:
// one top-level `let` per object and one reference assignment per object,
// so restoring it keeps n bindings in one compilation-unit scope.
func largeDump(t testing.TB, n int) string {
	t.Helper()
	db := core.MustOpen(core.Options{Output: io.Discard})
	if err := db.Exec(`class Node persistent { attr id int attr next Node }`); err != nil {
		t.Fatal(err)
	}
	if err := db.Atomically(func(tx *core.Tx) error {
		ids := make([]oid.OID, n)
		for i := range ids {
			id, err := db.NewObject(tx, "Node", map[string]value.Value{"id": value.Int(int64(i))})
			if err != nil {
				return err
			}
			ids[i] = id
		}
		for i, id := range ids {
			if err := db.Set(tx, id, "next", value.Ref(ids[(i+1)%n])); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	if err := db.DumpDSL(&dump); err != nil {
		t.Fatal(err)
	}
	return dump.String()
}

// TestRestoreLargeDump restores a dump of 10,000 objects and walks the
// restored ring. A restore keeps every object's variable in one scope, so
// name resolution there must not scan all earlier bindings.
func TestRestoreLargeDump(t *testing.T) {
	const n = 10000
	text := largeDump(t, n)
	db := core.MustOpen(core.Options{Output: io.Discard})
	if err := db.RestoreDSL(text); err != nil {
		t.Fatal(err)
	}
	ids := db.InstancesOf("Node")
	if len(ids) != n {
		t.Fatalf("restored %d Nodes, want %d", len(ids), n)
	}
	if err := db.Atomically(func(tx *core.Tx) error {
		cur := ids[0]
		for step := 0; step < n; step++ {
			id, err := db.Get(tx, cur, "id")
			if err != nil {
				return err
			}
			next, err := db.Get(tx, cur, "next")
			if err != nil {
				return err
			}
			nid, _ := next.AsRef()
			want, _ := id.AsInt()
			got, err := db.Get(tx, nid, "id")
			if err != nil {
				return err
			}
			if g, _ := got.AsInt(); g != (want+1)%n {
				t.Fatalf("Node %d.next has id %d, want %d", want, g, (want+1)%n)
			}
			cur = nid
		}
		if cur != ids[0] {
			t.Fatalf("walking %d steps from %v ended at %v", n, ids[0], cur)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRestoreDSL(b *testing.B) {
	text := largeDump(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := core.MustOpen(core.Options{Output: io.Discard})
		if err := db.RestoreDSL(text); err != nil {
			b.Fatal(err)
		}
	}
}
