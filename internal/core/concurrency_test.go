package core

// Internal tests for the event-propagation fast path: the zero-allocation
// guarantee of the cached consumer-resolution path, a -race stress test
// exercising concurrent Sends against live rule churn, and the
// parallel-send benchmark (the one measurement with more than one raising
// goroutine). These live in package core (not core_test) because they pin
// down unexported internals (raise, consumersOf) that the public API
// intentionally hides.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// hotPathClass registers a reactive class P with one declared event method
// Set(float v) and returns n fresh instances.
func hotPathClass(t testing.TB, db *Database, n int) []oid.OID {
	t.Helper()
	cls := schema.NewClass("P")
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
	ids := make([]oid.OID, n)
	if err := db.Atomically(func(tx *Tx) error {
		for i := range ids {
			var err error
			if ids[i], err = db.NewObject(tx, "P", nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestRaiseHotPathZeroAllocs pins the allocation contract of the fast path:
// once the consumer cache is warm, raising an event on an object with no
// consumers allocates nothing (the Occurrence is never even built), and
// consumer resolution for a subscribed object is likewise allocation-free
// (the cached slices are returned as-is).
func TestRaiseHotPathZeroAllocs(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	ids := hotPathClass(t, db, 2)
	quiet, watched := ids[0], ids[1]

	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name:     "w",
			EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) {
				return false, nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, watched, r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	defer db.Abort(tx)
	src := db.objectByID(quiet)
	args := []value.Value{value.Float(1)}

	// Warm the cache, then measure.
	if err := db.raise(tx, src, "Set", event.End, args, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := db.raise(tx, src, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("raise with no consumers: %v allocs/op, want 0", n)
	}

	watchedObj := db.objectByID(watched)
	db.consumersOf(watchedObj) // warm
	if n := testing.AllocsPerRun(200, func() {
		rules, fns := db.consumersOf(watchedObj)
		if len(rules) != 1 || len(fns) != 0 {
			t.Fatalf("consumersOf = %d rules, %d fns; want 1, 0", len(rules), len(fns))
		}
	}); n != 0 {
		t.Errorf("cached consumersOf: %v allocs/op, want 0", n)
	}
}

// TestRaiseHotPathZeroAllocsPaged pins the same allocation contract on a
// persistent database under eviction pressure: once a transaction has
// locked (and thereby pinned) an object, re-locking it and raising events
// on it allocate nothing — demand paging must not tax the resident-hit
// fast path.
func TestRaiseHotPathZeroAllocsPaged(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, Dir: t.TempDir(), MaxResidentObjects: 8})
	defer db.Close()
	cls := schema.NewClass("PP")
	cls.Classification = schema.ReactiveClass
	cls.Persistent = true
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
	const pop = 64
	ids := make([]oid.OID, pop)
	if err := db.Atomically(func(tx *Tx) error {
		for i := range ids {
			var err error
			if ids[i], err = db.NewObject(tx, "PP", nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Touch everything so the clock has churned well past the ceiling.
	for _, id := range ids {
		if db.objectByID(id) == nil {
			t.Fatalf("object %s unreachable", id)
		}
	}
	if db.Stats().Storage.Evictions == 0 {
		t.Fatal("no evictions: test is not exercising paging")
	}

	tx := db.Begin()
	defer db.Abort(tx)
	src, err := db.lockObject(tx, ids[0], txn.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	args := []value.Value{value.Float(1)}
	if err := db.raise(tx, src, "Set", event.End, args, nil, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := db.raise(tx, src, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("paged raise with no consumers: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		o, err := db.lockObject(tx, ids[0], txn.Exclusive)
		if err != nil || o == nil {
			t.Fatal("re-lock failed")
		}
	}); n != 0 {
		t.Errorf("pinned re-lock: %v allocs/op, want 0", n)
	}
}

// TestConcurrentSendRuleChurn runs Sends from several goroutines over a
// shared object pool while another goroutine creates and deletes rules
// subscribed to the same objects. Run under -race this validates the lock
// discipline of the fast path; the probe assertions validate the epoch
// semantics: a subscription committed before a Send is seen by it, and a
// rule deleted before a Send never fires in it.
func TestConcurrentSendRuleChurn(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	const pool = 8
	ids := hotPathClass(t, db, pool+1)
	probe := ids[pool]

	// A stable class-level rule keeps the class-cache path hot for every
	// sender.
	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.CreateRule(tx, RuleSpec{
			Name: "stable", EventSrc: "end P::Set(float v)", ClassLevel: "P",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) {
				return false, nil
			},
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var sendErr atomic.Value
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, ids[(g+i)%pool], "Set", value.Float(float64(i)))
					return err
				}); err != nil {
					sendErr.Store(err)
					return
				}
			}
		}(g)
	}

	// Churn: each round subscribes a fresh rule to the probe object and to
	// pool[0] (shared with the senders), verifies it fires for a probe
	// Send, deletes it, and verifies it no longer fires. probeFired counts
	// only probe-sourced firings, so concurrent sender traffic on pool[0]
	// cannot perturb the assertions.
	var probeFired atomic.Uint64
	for k := 0; k < 40; k++ {
		name := fmt.Sprintf("churn%d", k)
		if err := db.Atomically(func(tx *Tx) error {
			r, err := db.CreateRule(tx, RuleSpec{
				Name: name, EventSrc: "end P::Set(float v)",
				Action: func(_ rule.ExecContext, det event.Detection) error {
					if det.Last().Source == probe {
						probeFired.Add(1)
					}
					return nil
				},
			})
			if err != nil {
				return err
			}
			if err := db.Subscribe(tx, probe, r.ID()); err != nil {
				return err
			}
			return db.Subscribe(tx, ids[0], r.ID())
		}); err != nil {
			t.Fatal(err)
		}

		before := probeFired.Load()
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, probe, "Set", value.Float(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := probeFired.Load(); got != before+1 {
			t.Fatalf("round %d: subscribed rule fired %d times for one probe send, want 1", k, got-before)
		}

		if err := db.Atomically(func(tx *Tx) error {
			return db.DeleteRule(tx, name)
		}); err != nil {
			t.Fatal(err)
		}

		before = probeFired.Load()
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, probe, "Set", value.Float(2))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got := probeFired.Load(); got != before {
			t.Fatalf("round %d: rule %s fired after deletion", k, name)
		}
	}

	close(done)
	wg.Wait()
	if err := sendErr.Load(); err != nil {
		t.Fatalf("concurrent sender failed: %v", err)
	}
}

// TestConcurrentSendSchemaChurn races 8 senders against rule
// enable/disable flips AND repeated EvolveClass of the very class being
// sent to — the worst case for selective invalidation, since evolve
// exclusively locks every instance while class-scoped invalidation sweeps
// the subtree's entries. Senders tolerate deadlock aborts (2PL may break a
// cycle with the evolver); any other error fails the test, and a probe
// round at the end verifies the cache converged to the final catalog.
func TestConcurrentSendSchemaChurn(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	const pool = 8
	ids := hotPathClass(t, db, pool+1)
	probe := ids[pool]

	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.CreateRule(tx, RuleSpec{
			Name: "flappy", EventSrc: "end P::Set(float v)", ClassLevel: "P",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) {
				return false, nil
			},
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	var hardErr atomic.Value
	for g := 0; g < pool; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, ids[(g+i)%pool], "Set", value.Float(float64(i)))
					return err
				})
				if err != nil && !errors.Is(err, txn.ErrDeadlock) {
					hardErr.Store(err)
					return
				}
			}
		}(g)
	}

	// Churner 1: enable/disable flips (scopeNone — Notify filters).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			err := db.Atomically(func(tx *Tx) error {
				if i%2 == 0 {
					return db.DisableRule(tx, "flappy")
				}
				return db.EnableRule(tx, "flappy")
			})
			if err != nil && !errors.Is(err, txn.ErrDeadlock) {
				hardErr.Store(err)
				return
			}
		}
	}()

	// Churner 2: evolve P itself, 30 rounds (each exclusively locks every
	// instance, migrates it, and sweeps the class-scope blast radius).
	for round := 0; round < 30; round++ {
		if hardErr.Load() != nil {
			break
		}
		extra := fmt.Sprintf("gen%d", round%3)
		err := db.Atomically(func(tx *Tx) error {
			c := schema.NewClass("P")
			c.Classification = schema.ReactiveClass
			c.Attr("x", value.TypeFloat)
			c.Attr(extra, value.TypeInt)
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
		})
		if err != nil && !errors.Is(err, txn.ErrDeadlock) {
			t.Fatalf("evolve round %d: %v", round, err)
		}
	}

	close(done)
	wg.Wait()
	if err := hardErr.Load(); err != nil {
		t.Fatalf("concurrent worker failed: %v", err)
	}

	// Convergence probe: a fresh instance subscription on the probe object
	// fires exactly once per send, and the stable class rule resolves
	// through the evolved class.
	var probeFired atomic.Uint64
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "probe", EventSrc: "end P::Set(float v)",
			Action: func(_ rule.ExecContext, det event.Detection) error {
				if det.Last().Source == probe {
					probeFired.Add(1)
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, probe, r.ID())
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.Send(tx, probe, "Set", value.Float(9))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := probeFired.Load(); got != 1 {
		t.Fatalf("probe rule fired %d times for one send, want 1", got)
	}
	rules, _ := db.consumersOf(db.objectByID(probe))
	if len(rules) != 2 { // probe (instance) + flappy (class)
		t.Fatalf("probe consumer set has %d rules after churn, want 2", len(rules))
	}
}

// BenchmarkParallelSend: concurrent transactions raising events, scaling
// with GOMAXPROCS. The consumer-resolution cache and the reader/writer
// catalog lock mean propagation takes no exclusive database-wide lock, so
// disjoint-object throughput should rise near-linearly with parallelism;
// the shared variant adds strict-2PL object-lock contention on top and
// bounds the benefit.
func BenchmarkParallelSend(b *testing.B) {
	setup := func(b *testing.B, objects int) (*Database, []oid.OID) {
		db := MustOpen(Options{Output: io.Discard})
		ids := hotPathClass(b, db, objects)
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.CreateRule(tx, RuleSpec{
				Name: "watch", EventSrc: "end P::Set(float v)", ClassLevel: "P",
				Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
			})
			return err
		}); err != nil {
			b.Fatal(err)
		}
		return db, ids
	}
	send := func(db *Database, id oid.OID) error {
		return db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, id, "Set", value.Float(1))
			return err
		})
	}
	b.Run("disjoint", func(b *testing.B) {
		// Each goroutine owns one object: no object-lock contention, pure
		// propagation-path parallelism.
		const objects = 512
		db, ids := setup(b, objects)
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id := ids[int(next.Add(1)-1)%objects]
			for pb.Next() {
				if err := send(db, id); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("shared", func(b *testing.B) {
		// All goroutines draw from the same 8 objects: transactions collide
		// on object locks and the cache entries are shared across CPUs.
		const objects = 8
		db, ids := setup(b, objects)
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := send(db, ids[int(next.Add(1)-1)%objects]); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
