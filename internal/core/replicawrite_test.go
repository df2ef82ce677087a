package core_test

// The replica write gate, swept across the whole public mutating surface.
// A replica's heap is a projection of the primary's history; any local
// write — object, name, event, rule, subscription, index, schema — would
// fork it. Every mutating entry point must therefore fail with
// ErrReplicaWrite, and fail cleanly: no partial in-memory catalog edits,
// no WAL records, no LSN movement. Each case exercises one public surface
// against a replica seeded with a real primary history (so name/rule/
// index-dependent paths get past their lookups and reach the gate).

import (
	"errors"
	"io"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/schema"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// seedReplica builds a primary with one of everything — class, instances,
// names, a named event, a rule, a subscription, an index — closes it, and
// reopens the same directory as a replica (recovery rebuilds the catalogs,
// exactly as a promoted-then-demoted node would).
func seedReplica(t *testing.T) *core.Database {
	t.Helper()
	fs := vfs.NewMem()
	db := core.MustOpen(core.Options{Dir: "d", VFS: fs, SyncOnCommit: true, Output: io.Discard})
	if err := db.Exec(`class Kit reactive persistent {
		attr n int
		attr tag int
		event end method Set(v int) { self.n := v }
	}
	bind K0 new Kit(n: 0)
	bind K1 new Kit(n: 1)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Atomically(func(tx *core.Tx) error {
		if _, err := db.DefineEvent(tx, "KitSet", "end Kit::Set(int v)"); err != nil {
			return err
		}
		if _, err := db.CreateRule(tx, core.RuleSpec{
			Name: "watch", EventSrc: "end Kit::Set(int v)", ActionSrc: `print("")`,
		}); err != nil {
			return err
		}
		k0, _ := db.Lookup("K0")
		if err := db.SubscribeRule(tx, "watch", k0); err != nil {
			return err
		}
		_, err := db.CreateIndex(tx, "Kit", "n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	replica, err := core.Open(core.Options{Dir: "d", VFS: fs, Replica: true, SyncOnCommit: true, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	return replica
}

// TestReplicaWriteSweep: every public mutating surface on a replica fails
// with ErrReplicaWrite — and leaves no trace (LSN and K0.n unchanged).
func TestReplicaWriteSweep(t *testing.T) {
	db := seedReplica(t)
	k0, ok := db.Lookup("K0")
	if !ok {
		t.Fatal("K0 not rebuilt on the replica")
	}
	k1, _ := db.Lookup("K1")
	watch := db.LookupRule("watch")
	if watch == nil {
		t.Fatal("rule not rebuilt on the replica")
	}
	if db.Index("Kit", "n") == nil {
		t.Fatal("index not rebuilt on the replica")
	}
	preLSN := db.ReplLSN()

	cases := []struct {
		name string
		run  func(tx *core.Tx) error
	}{
		{"NewObject", func(tx *core.Tx) error {
			_, err := db.NewObject(tx, "Kit", map[string]value.Value{"n": value.Int(9)})
			return err
		}},
		{"Set", func(tx *core.Tx) error { return db.Set(tx, k0, "n", value.Int(9)) }},
		{"SetSys", func(tx *core.Tx) error { return db.SetSys(tx, k0, "n", value.Int(9)) }},
		{"DeleteObject", func(tx *core.Tx) error { return db.DeleteObject(tx, k1) }},
		{"Send", func(tx *core.Tx) error {
			_, err := db.Send(tx, k0, "Set", value.Int(9))
			return err
		}},
		{"RaiseExplicit", func(tx *core.Tx) error { return db.RaiseExplicit(tx, k0, "alarm", value.Int(1)) }},
		{"Bind/new", func(tx *core.Tx) error { return db.Bind(tx, "K9", k0) }},
		{"Bind/rebind", func(tx *core.Tx) error { return db.Bind(tx, "K0", k1) }},
		{"DefineEvent", func(tx *core.Tx) error {
			_, err := db.DefineEvent(tx, "KitSet2", "begin Kit::Set(int v)")
			return err
		}},
		{"DeleteEvent", func(tx *core.Tx) error { return db.DeleteEvent(tx, "KitSet") }},
		{"CreateRule", func(tx *core.Tx) error {
			_, err := db.CreateRule(tx, core.RuleSpec{
				Name: "watch2", EventSrc: "end Kit::Set(int v)", ActionSrc: `print("")`,
			})
			return err
		}},
		{"DeleteRule", func(tx *core.Tx) error { return db.DeleteRule(tx, "watch") }},
		{"EnableRule", func(tx *core.Tx) error { return db.EnableRule(tx, "watch") }},
		{"DisableRule", func(tx *core.Tx) error { return db.DisableRule(tx, "watch") }},
		{"Subscribe", func(tx *core.Tx) error { return db.Subscribe(tx, k1, watch.ID()) }},
		{"SubscribeRule", func(tx *core.Tx) error { return db.SubscribeRule(tx, "watch", k1) }},
		{"Unsubscribe", func(tx *core.Tx) error { return db.Unsubscribe(tx, k0, watch.ID()) }},
		{"UnsubscribeRule", func(tx *core.Tx) error { return db.UnsubscribeRule(tx, "watch", k0) }},
		{"CreateIndex", func(tx *core.Tx) error {
			_, err := db.CreateIndex(tx, "Kit", "tag")
			return err
		}},
		{"ExecScript", func(tx *core.Tx) error { return db.ExecScript(tx, "K0!Set(9)") }},
		{"DropIndex", func(tx *core.Tx) error { return db.DropIndex(tx, "Kit", "n") }},
		{"EvolveClass", func(tx *core.Tx) error {
			c := schema.NewClass("Kit")
			c.AddAttribute(&schema.Attribute{Name: "n", Type: value.TypeInt, Visibility: schema.Public})
			c.AddAttribute(&schema.Attribute{Name: "m", Type: value.TypeInt, Visibility: schema.Public})
			return db.EvolveClass(tx, c, "")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := db.Atomically(func(tx *core.Tx) error { return tc.run(tx) })
			if err == nil {
				t.Fatalf("%s succeeded on a replica", tc.name)
			}
			if !errors.Is(err, core.ErrReplicaWrite) {
				t.Fatalf("%s rejected with %v, want ErrReplicaWrite", tc.name, err)
			}
		})
	}

	// Script-level entry points: same gate through the interpreter.
	for name, src := range map[string]string{
		"Exec/send":  "K0!Set(9)",
		"Exec/bind":  "bind K9 new Kit(n: 9)",
		"Exec/class": "class Fresh persistent { attr a int }",
	} {
		t.Run(name, func(t *testing.T) {
			err := db.Exec(src)
			if err == nil {
				t.Fatalf("%q succeeded on a replica", src)
			}
			if !errors.Is(err, core.ErrReplicaWrite) {
				t.Fatalf("%q rejected with %v, want ErrReplicaWrite", src, err)
			}
		})
	}
	t.Run("RestoreDSL", func(t *testing.T) {
		err := db.RestoreDSL("class Fresh2 persistent { attr a int }")
		if err == nil {
			t.Fatal("RestoreDSL succeeded on a replica")
		}
		if !errors.Is(err, core.ErrReplicaWrite) {
			t.Fatalf("RestoreDSL rejected with %v, want ErrReplicaWrite", err)
		}
	})

	// The gate must be a clean bounce: nothing written, nothing half-done.
	if got := db.ReplLSN(); got != preLSN {
		t.Fatalf("replica LSN moved %d -> %d under rejected writes", preLSN, got)
	}
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	if v, err := db.Get(snap, k0, "n"); err != nil || v.String() != "0" {
		t.Fatalf("K0.n = %v (%v) after rejected writes, want 0", v, err)
	}
	if db.LookupRule("watch") == nil || db.Index("Kit", "n") == nil {
		t.Fatal("catalog entries lost under rejected writes")
	}
	if _, ok := db.Lookup("K9"); ok {
		t.Fatal("rejected bind left K9 visible")
	}
}
