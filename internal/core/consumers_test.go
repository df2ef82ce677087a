package core

// Internal tests for selective consumer-cache invalidation: blast-radius
// precision (a mutation stales exactly the entries derived from its keys),
// map hygiene (per-key bookkeeping is pruned when objects die and classes
// evolve — the old epoch scheme leaked stale entries forever), abort-path
// re-invalidation through the consolidated invalidateConsumers helper, and
// the zero-allocation hot-path pin with churn idle. Package core (not
// core_test) because they inspect the cache maps directly.

import (
	"fmt"
	"io"
	"testing"

	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// hierClasses registers a small reactive hierarchy — Base ← Mid ← Leaf plus
// an unrelated Other — each with an end-event method Set(float v), and
// returns one instance of each of the four classes.
func hierClasses(t *testing.T, db *Database) map[string]oid.OID {
	t.Helper()
	mk := func(name string, bases ...*schema.Class) *schema.Class {
		c := schema.NewClass(name, bases...)
		c.Classification = schema.ReactiveClass
		if len(bases) == 0 {
			c.Attr("x", value.TypeFloat)
			c.AddMethod(&schema.Method{
				Name:       "Set",
				Params:     []schema.Param{{Name: "v", Type: value.TypeFloat}},
				Visibility: schema.Public,
				EventGen:   schema.GenEnd,
				Body: func(ctx schema.CallContext) (value.Value, error) {
					return value.Nil, ctx.Set("x", ctx.Arg(0))
				},
			})
		}
		return db.MustRegisterClass(c)
	}
	base := mk("Base")
	mid := mk("Mid", base)
	mk("Leaf", mid)
	mk("Other")

	ids := make(map[string]oid.OID, 4)
	if err := db.Atomically(func(tx *Tx) error {
		for _, name := range []string{"Base", "Mid", "Leaf", "Other"} {
			id, err := db.NewObject(tx, name, nil)
			if err != nil {
				return err
			}
			ids[name] = id
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// warm raises one event on each object so every entry is cached, then
// returns a probe func reporting which objects currently hit the cache.
func warmAll(t *testing.T, db *Database, ids map[string]oid.OID) func() map[string]bool {
	t.Helper()
	raise := func() {
		for _, id := range ids {
			if err := db.Atomically(func(tx *Tx) error {
				_, err := db.Send(tx, id, "Set", value.Float(1))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	raise()
	return func() map[string]bool {
		cached := make(map[string]bool, len(ids))
		epoch := db.subEpoch.Load()
		db.ccMu.RLock()
		for name, id := range ids {
			e := db.objConsumers[id]
			cached[name] = e != nil && e.epoch == epoch
		}
		db.ccMu.RUnlock()
		return cached
	}
}

func wantCached(t *testing.T, got map[string]bool, want map[string]bool) {
	t.Helper()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("entry for %s cached = %v, want %v (all: %v)", name, got[name], w, got)
		}
	}
}

// TestClassScopeBlastRadius: a class-level rule mutation on Mid must stale
// exactly Mid and Leaf (its registered subtree) — Base and the unrelated
// Other keep their entries.
func TestClassScopeBlastRadius(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	ids := hierClasses(t, db)
	probe := warmAll(t, db, ids)

	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.CreateRule(tx, RuleSpec{
			Name: "midrule", EventSrc: "end Base::Set(float v)", ClassLevel: "Mid",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wantCached(t, probe(), map[string]bool{"Base": true, "Other": true, "Mid": false, "Leaf": false})

	// The class entries for the subtree are gone too.
	db.ccMu.RLock()
	_, midOK := db.classConsumers["Mid"]
	_, leafOK := db.classConsumers["Leaf"]
	_, baseOK := db.classConsumers["Base"]
	db.ccMu.RUnlock()
	if midOK || leafOK || !baseOK {
		t.Errorf("class entries after Mid rule: Mid=%v Leaf=%v Base=%v, want false/false/true", midOK, leafOK, baseOK)
	}

	// After re-warming, the subtree instances see the rule through their
	// MRO, the others do not.
	warmAll(t, db, ids)
	for name, id := range ids {
		rules, _ := db.consumersOf(db.objectByID(id))
		want := 0
		if name == "Mid" || name == "Leaf" {
			want = 1
		}
		if len(rules) != want {
			t.Errorf("%s sees %d rules, want %d", name, len(rules), want)
		}
	}
}

// TestObjScopeBlastRadius: an instance subscription stales only that
// object's entry.
func TestObjScopeBlastRadius(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	ids := hierClasses(t, db)

	var rid oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "inst", EventSrc: "end Base::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		if err != nil {
			return err
		}
		rid = r.ID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	probe := warmAll(t, db, ids)
	if err := db.Atomically(func(tx *Tx) error {
		return db.Subscribe(tx, ids["Leaf"], rid)
	}); err != nil {
		t.Fatal(err)
	}
	wantCached(t, probe(), map[string]bool{"Base": true, "Mid": true, "Other": true, "Leaf": false})

	if err := db.Atomically(func(tx *Tx) error {
		return db.Unsubscribe(tx, ids["Leaf"], rid)
	}); err != nil {
		t.Fatal(err)
	}
	wantCached(t, probe(), map[string]bool{"Base": true, "Mid": true, "Other": true, "Leaf": false})
}

// TestAbortReinvalidates: the single undo closure registered by
// invalidateConsumers must restore the catalog *and then* re-invalidate,
// so an aborted mutation leaves neither its effect nor a stale entry.
func TestAbortReinvalidates(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	ids := hierClasses(t, db)
	warmAll(t, db, ids)

	// Inside a tx: create a class rule, raise (fires and caches an entry
	// containing the rule), abort.
	var fired int
	tx := db.Begin()
	if _, err := db.CreateRule(tx, RuleSpec{
		Name: "doomed", EventSrc: "end Base::Set(float v)", ClassLevel: "Base",
		Action: func(rule.ExecContext, event.Detection) error {
			fired++
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Send(tx, ids["Base"], "Set", value.Float(2)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("rule fired %d times inside tx, want 1", fired)
	}
	db.Abort(tx)

	// After abort the cached entry from inside the tx must be stale: the
	// rule is gone and must not fire again.
	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.Send(tx, ids["Base"], "Set", value.Float(3))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("aborted rule fired again (%d total): stale consumer entry survived abort", fired)
	}
}

// TestConsumerStatePruning is the map-hygiene regression test: per-object
// bookkeeping (entry, generation, classDeps back-reference) disappears when
// the object's delete commits, and class entries for an evolved class are
// removed rather than left to accumulate per evolve round.
func TestConsumerStatePruning(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	const n = 32
	ids := hotPathClass(t, db, n)

	// Subscribe/unsubscribe churn on each object (to populate objGen),
	// then raise to warm every entry.
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "churn", EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := db.Subscribe(tx, id, r.ID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, id, "Set", value.Float(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.ccMu.RLock()
	entries, gens := len(db.objConsumers), len(db.objGen)
	deps := len(db.classDeps["P"])
	db.ccMu.RUnlock()
	if entries < n || gens < n || deps < n {
		t.Fatalf("warm state: %d entries, %d gens, %d deps; want ≥%d each", entries, gens, deps, n)
	}

	// Delete every object; commit must prune all per-object state.
	if err := db.Atomically(func(tx *Tx) error {
		for _, id := range ids {
			if err := db.DeleteObject(tx, id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.ccMu.RLock()
	for _, id := range ids {
		if _, ok := db.objConsumers[id]; ok {
			t.Errorf("objConsumers[%s] survived delete commit", id)
		}
		if _, ok := db.objGen[id]; ok {
			t.Errorf("objGen[%s] survived delete commit", id)
		}
		if _, ok := db.classDeps["P"][id]; ok {
			t.Errorf("classDeps[P][%s] survived delete commit", id)
		}
	}
	db.ccMu.RUnlock()

	// Evolve churn: the class entry must be dropped each round, not
	// accumulate stale versions; the maps stay bounded by live keys.
	surv := hotPathClass2(t, db, "Q")
	for round := 0; round < 10; round++ {
		if err := db.Atomically(func(tx *Tx) error {
			c := schema.NewClass("Q")
			c.Classification = schema.ReactiveClass
			c.Attr("x", value.TypeFloat)
			c.Attr(fmt.Sprintf("extra%d", round), value.TypeInt)
			c.AddMethod(&schema.Method{
				Name:       "Set",
				Params:     []schema.Param{{Name: "v", Type: value.TypeFloat}},
				Visibility: schema.Public,
				EventGen:   schema.GenEnd,
				Body: func(ctx schema.CallContext) (value.Value, error) {
					return value.Nil, ctx.Set("x", ctx.Arg(0))
				},
			})
			return db.EvolveClass(tx, c, "")
		}); err != nil {
			t.Fatal(err)
		}
		db.ccMu.RLock()
		_, present := db.classConsumers["Q"]
		db.ccMu.RUnlock()
		if present {
			t.Fatalf("round %d: classConsumers[Q] survived EvolveClass", round)
		}
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, surv, "Set", value.Float(float64(round)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.ccMu.RLock()
	classEntries := len(db.classConsumers)
	classGens := len(db.classGen)
	db.ccMu.RUnlock()
	// Bounded by distinct class names ever raised on (P died with its
	// instances' entries; Q live; no per-round growth).
	if classEntries > 4 || classGens > 4 {
		t.Errorf("class maps grew with churn: %d entries, %d gens", classEntries, classGens)
	}
}

// hotPathClass2 registers one reactive class with the given name and a
// Set(float v) end-event method, returning a single instance.
func hotPathClass2(t *testing.T, db *Database, name string) oid.OID {
	t.Helper()
	cls := schema.NewClass(name)
	cls.Classification = schema.ReactiveClass
	cls.Attr("x", value.TypeFloat)
	cls.AddMethod(&schema.Method{
		Name:       "Set",
		Params:     []schema.Param{{Name: "v", Type: value.TypeFloat}},
		Visibility: schema.Public,
		EventGen:   schema.GenEnd,
		Body: func(ctx schema.CallContext) (value.Value, error) {
			return value.Nil, ctx.Set("x", ctx.Arg(0))
		},
	})
	db.MustRegisterClass(cls)
	var id oid.OID
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		id, err = db.NewObject(tx, name, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestZeroAllocsAfterChurn re-pins the hot-path allocation contract after
// heavy invalidation traffic: once churn goes idle and the cache re-warms,
// a raise is again one epoch load + one map read with zero allocations
// (including the hit-counter increment).
func TestZeroAllocsAfterChurn(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	ids := hotPathClass(t, db, 2)
	watched := ids[1]

	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "w", EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, watched, r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	// Churn: 50 rounds of rule create/delete, subscribe/unsubscribe and
	// enable/disable against the same class and object.
	for k := 0; k < 50; k++ {
		name := fmt.Sprintf("c%d", k)
		if err := db.Atomically(func(tx *Tx) error {
			r, err := db.CreateRule(tx, RuleSpec{
				Name: name, EventSrc: "end P::Set(float v)", ClassLevel: "P",
				Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
			})
			if err != nil {
				return err
			}
			if err := db.Subscribe(tx, watched, r.ID()); err != nil {
				return err
			}
			return db.DisableRule(tx, name)
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Atomically(func(tx *Tx) error {
			return db.DeleteRule(tx, name)
		}); err != nil {
			t.Fatal(err)
		}
	}

	tx := db.Begin()
	defer db.Abort(tx)
	quietSrc := db.objectByID(ids[0])
	src := db.objectByID(watched)
	args := []value.Value{value.Float(1)}
	for i := 0; i < 3; i++ {
		if err := db.raise(tx, quietSrc, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := db.raise(tx, quietSrc, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("no-consumer raise after churn: %v allocs/op, want 0", n)
	}
	db.consumersOf(src) // warm
	if n := testing.AllocsPerRun(200, func() {
		rules, fns := db.consumersOf(src)
		if len(rules) != 1 || len(fns) != 0 {
			t.Fatalf("consumersOf = %d rules, %d fns; want 1, 0", len(rules), len(fns))
		}
	}); n != 0 {
		t.Errorf("cached consumersOf after churn: %v allocs/op, want 0", n)
	}

	// The cache counters saw the workload and are surfaced in Stats.
	s := db.Stats().Rules
	if s.CacheHits == 0 || s.CacheMisses == 0 || s.CacheInvalidations == 0 || s.CacheEntries == 0 {
		t.Errorf("cache stats missed the workload: %+v", s)
	}
}

// TestChurnKeepsHotEntriesWarm is the rule-churn headline as a
// deterministic test: hot objects are raised on round after round while,
// between rounds, a churner flips a class-level rule's enable bit and
// subscribes/unsubscribes a rule on another object. Selective invalidation
// never stales a hot entry (enable/disable is filtered at Notify, the
// subscription's blast radius is the other object), so after warm-up every
// hot raise is a cache hit. The global reference mode stales the whole
// cache on each mutation: at least one miss per mutation.
func TestChurnKeepsHotEntriesWarm(t *testing.T) {
	for _, tc := range []struct {
		name   string
		global bool
	}{{"selective", false}, {"global", true}} {
		t.Run(tc.name, func(t *testing.T) {
			db := MustOpen(Options{Output: io.Discard, GlobalConsumerInvalidation: tc.global})
			ids := hotPathClass(t, db, 9)
			hot, churnObj := ids[:8], ids[8]
			noCond := func(rule.ExecContext, event.Detection) (bool, error) { return false, nil }
			var subtgt oid.OID
			if err := db.Atomically(func(tx *Tx) error {
				for i, id := range hot {
					r, err := db.CreateRule(tx, RuleSpec{Name: fmt.Sprintf("w%d", i), EventSrc: "end P::Set(float v)", Condition: noCond})
					if err != nil {
						return err
					}
					if err := db.Subscribe(tx, id, r.ID()); err != nil {
						return err
					}
				}
				if _, err := db.CreateRule(tx, RuleSpec{Name: "flip", EventSrc: "end P::Set(float v)", ClassLevel: "P", Condition: noCond}); err != nil {
					return err
				}
				r, err := db.CreateRule(tx, RuleSpec{Name: "subtgt", EventSrc: "end P::Set(float v)", Condition: noCond})
				if err != nil {
					return err
				}
				subtgt = r.ID()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			raiseHot := func() {
				for _, id := range hot {
					if err := db.Atomically(func(tx *Tx) error {
						_, err := db.Send(tx, id, "Set", value.Float(1))
						return err
					}); err != nil {
						t.Fatal(err)
					}
				}
			}

			churn := func(k int) {
				if err := db.Atomically(func(tx *Tx) error {
					switch k % 4 {
					case 0:
						return db.DisableRule(tx, "flip")
					case 1:
						return db.Subscribe(tx, churnObj, subtgt)
					case 2:
						return db.EnableRule(tx, "flip")
					default:
						return db.Unsubscribe(tx, churnObj, subtgt)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}

			// Warm-up: one churn cycle too, since enable/disable raises on
			// the rule object itself and its first raise is a miss.
			raiseHot()
			for k := 0; k < 4; k++ {
				churn(k)
			}
			raiseHot()
			before := db.Stats().Rules
			const mutations = 20
			for k := 0; k < mutations; k++ {
				churn(k)
				raiseHot()
			}
			after := db.Stats().Rules
			misses := after.CacheMisses - before.CacheMisses
			if hits := after.CacheHits - before.CacheHits; hits+misses < mutations*uint64(len(hot)) {
				t.Fatalf("cache saw %d lookups, want ≥ %d hot raises", hits+misses, mutations*len(hot))
			}
			if tc.global {
				if misses < mutations {
					t.Errorf("global mode: %d misses over %d mutations, want ≥ 1 per mutation", misses, mutations)
				}
			} else if misses != 0 {
				t.Errorf("selective mode: %d misses after warm-up, want 0 (churn staled a hot entry)", misses)
			}
		})
	}
}

// TestGlobalReferenceMode pins the GlobalConsumerInvalidation escape
// hatch: every mutation — including enable/disable, which the selective
// scheme ignores — bumps the global epoch, and firing behaviour matches
// the selective mode.
func TestGlobalReferenceMode(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, GlobalConsumerInvalidation: true})
	ids := hierClasses(t, db)
	probe := warmAll(t, db, ids)

	before := db.subEpoch.Load()
	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.CreateRule(tx, RuleSpec{
			Name: "g", EventSrc: "end Base::Set(float v)", ClassLevel: "Mid",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if db.subEpoch.Load() == before {
		t.Fatal("global mode did not bump the epoch on CreateRule")
	}
	// Everything is stale, not just the subtree.
	wantCached(t, probe(), map[string]bool{"Base": false, "Mid": false, "Leaf": false, "Other": false})

	epoch := db.subEpoch.Load()
	if err := db.Atomically(func(tx *Tx) error { return db.DisableRule(tx, "g") }); err != nil {
		t.Fatal(err)
	}
	if db.subEpoch.Load() == epoch {
		t.Fatal("global mode did not bump the epoch on DisableRule")
	}

	warmAll(t, db, ids)
	for name, id := range ids {
		rules, _ := db.consumersOf(db.objectByID(id))
		want := 0
		if name == "Mid" || name == "Leaf" {
			want = 1
		}
		if len(rules) != want {
			t.Errorf("global mode: %s sees %d rules, want %d", name, len(rules), want)
		}
	}
}
