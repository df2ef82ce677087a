package bench

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"sentinel/internal/baseline/adam"
	"sentinel/internal/baseline/ode"
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// openQuiet returns an in-memory database that swallows print() output.
func openQuiet() *core.Database {
	return core.MustOpen(core.Options{Output: io.Discard})
}

func noCond(rule.ExecContext, event.Detection) (bool, error) { return false, nil }

// timeOp runs fn n times and returns ns/op.
func timeOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// p1Stocks is the number of reactive stocks P1 spreads its rules over.
const p1Stocks = 100

// p1Sentinel builds P1's Sentinel side: n rules spread round-robin over
// p1Stocks stocks by subscription. It returns the database and the stock
// P1's updates hit.
func p1Sentinel(n int) (*core.Database, oid.OID) {
	db := openQuiet()
	if err := InstallMarketSchema(db); err != nil {
		panic(err)
	}
	m, err := BuildMarket(db, p1Stocks, 0)
	if err != nil {
		panic(err)
	}
	if err := db.Atomically(func(t *core.Tx) error {
		for i := 0; i < n; i++ {
			r, err := db.CreateRule(t, core.RuleSpec{
				Name:      fmt.Sprintf("watch-%d", i),
				EventSrc:  "end Stock::SetPrice(float p)",
				Condition: noCond,
			})
			if err != nil {
				return err
			}
			if err := db.Subscribe(t, m.Stocks[i%p1Stocks], r.ID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}
	return db, m.Stocks[0]
}

// p1Adam builds P1's centralized side: the same market with n rules in one
// ADAM-style rule base.
func p1Adam(n int) (*core.Database, *adam.System, oid.OID) {
	db := openQuiet()
	if err := InstallMarketSchema(db); err != nil {
		panic(err)
	}
	m, err := BuildMarket(db, p1Stocks, 0)
	if err != nil {
		panic(err)
	}
	sys := adam.New(db)
	if err := db.Atomically(func(t *core.Tx) error { return sys.EnrollClass(t, "Stock") }); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.NewRule(&adam.Rule{
			Name:         fmt.Sprintf("watch-%d", i),
			ActiveClass:  "Stock",
			ActiveMethod: "SetPrice",
			When:         event.End,
			Enabled:      true,
			Cond:         func(rule.ExecContext, event.Occurrence) (bool, error) { return false, nil },
		}); err != nil {
			panic(err)
		}
	}
	return db, sys, m.Stocks[0]
}

// sendPrices sends SetPrice to stock k times in one transaction and
// returns ns/send.
func sendPrices(db *core.Database, stock oid.OID, k int) float64 {
	var ns float64
	if err := db.Atomically(func(t *core.Tx) error {
		ns = timeOp(k, func(i int) {
			if _, err := db.Send(t, stock, "SetPrice", value.Float(float64(i))); err != nil {
				panic(err)
			}
		})
		return nil
	}); err != nil {
		panic(err)
	}
	return ns
}

// RunP1 measures the §3.5 claim: with subscriptions, "only those rules
// which have subscribed to a reactive object are checked", versus the
// centralized (ADAM-style) approach where every event consults the whole
// rule base. N total rules are spread over 100 stocks; one stock's price is
// updated repeatedly. Sentinel should stay flat in N (its cost follows
// N/100, the subscribers of that one object); the centralized engine should
// degrade linearly with N. TestP1CheckedRulesFollowSubscriptions counts the
// same shape.
func RunP1(sizes []int, eventsPer int) *Table {
	if len(sizes) == 0 {
		sizes = []int{10, 100, 1000, 4000}
	}
	tbl := NewTable("P1  Subscription vs. centralized rule checking (ns/event)",
		"total rules N", "sentinel ns/ev", "adam ns/ev", "adam/sentinel")
	tbl.Note = "100 reactive stocks; rules spread round-robin; updates hit one stock."
	for _, n := range sizes {
		sdb, hot := p1Sentinel(n)
		sNS := sendPrices(sdb, hot, eventsPer)
		adb, _, ahot := p1Adam(n)
		aNS := sendPrices(adb, ahot, eventsPer)
		tbl.Row(n, sNS, aNS, aNS/sNS)
	}
	return tbl
}

// pointClass builds a Point-like class; reactive and eventGen control the
// classification and whether SetX is an event generator.
func pointClass(name string, reactive bool, gen schema.EventGen) *schema.Class {
	c := schema.NewClass(name)
	if reactive {
		c.Classification = schema.ReactiveClass
	}
	c.Attr("x", value.TypeFloat)
	c.AddMethod(&schema.Method{
		Name:       "SetX",
		Params:     []schema.Param{{Name: "v", Type: value.TypeFloat}},
		Visibility: schema.Public,
		EventGen:   gen,
		Body: func(ctx schema.CallContext) (value.Value, error) {
			return value.Nil, ctx.Set("x", ctx.Arg(0))
		},
	})
	return c
}

// p2Points opens P2's database — PassivePoint, QuietPoint (reactive, SetX
// not in its event interface) and LoudPoint (reactive, SetX generates an
// end event) — and returns it with a constructor for their instances.
func p2Points() (*core.Database, func(class string) oid.OID) {
	db := openQuiet()
	for _, c := range []*schema.Class{
		pointClass("PassivePoint", false, schema.GenNone),
		pointClass("QuietPoint", true, schema.GenNone),
		pointClass("LoudPoint", true, schema.GenEnd),
	} {
		if err := db.RegisterClass(c); err != nil {
			panic(err)
		}
	}
	mk := func(class string) oid.OID {
		var id oid.OID
		if err := db.Atomically(func(t *core.Tx) error {
			var err error
			id, err = db.NewObject(t, class, nil)
			return err
		}); err != nil {
			panic(err)
		}
		return id
	}
	return db, mk
}

// p2Subscribe subscribes rules from..to-1 (condition false) to a LoudPoint.
func p2Subscribe(db *core.Database, id oid.OID, from, to int) {
	if err := db.Atomically(func(t *core.Tx) error {
		for i := from; i < to; i++ {
			r, err := db.CreateRule(t, core.RuleSpec{
				Name:      fmt.Sprintf("p2-sub-%d-%d", id, i),
				EventSrc:  "end LoudPoint::SetX(float v)",
				Condition: noCond,
			})
			if err != nil {
				return err
			}
			if err := db.Subscribe(t, id, r.ID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}
}

// RunP2 measures the §3.2 claim that passive objects pay no event
// overhead, across the escalation passive → reactive-undeclared →
// reactive-declared-unsubscribed → 1 subscriber → 10 subscribers. Each row
// is measured once; TestP2PassiveSendsRaiseNothing counts the same shape.
func RunP2(sends int) *Table {
	tbl := NewTable("P2  Method-send cost vs. reactivity (ns/send)",
		"configuration", "ns/send", "vs passive")
	db, mk := p2Points()
	measure := func(id oid.OID) float64 {
		var ns float64
		if err := db.Atomically(func(t *core.Tx) error {
			ns = timeOp(sends, func(i int) {
				if _, err := db.Send(t, id, "SetX", value.Float(float64(i))); err != nil {
					panic(err)
				}
			})
			return nil
		}); err != nil {
			panic(err)
		}
		return ns
	}

	passive := measure(mk("PassivePoint"))
	tbl.Row("passive class", passive, 1.0)
	quiet := measure(mk("QuietPoint"))
	tbl.Row("reactive class, method not in event interface", quiet, quiet/passive)

	loud := mk("LoudPoint")
	unsubscribed := measure(loud)
	tbl.Row("reactive, declared, 0 subscribers", unsubscribed, unsubscribed/passive)
	p2Subscribe(db, loud, 0, 1)
	one := measure(loud)
	tbl.Row("reactive, declared, 1 subscriber (cond=false)", one, one/passive)
	p2Subscribe(db, loud, 1, 10)
	ten := measure(loud)
	tbl.Row("reactive, declared, 10 subscribers (cond=false)", ten, ten/passive)
	return tbl
}

// RunP3 measures event-detection cost per operator and per operator-tree
// depth, feeding occurrences straight into detectors (§1 performance
// issue 3: event management cost).
func RunP3(feeds int) *Table {
	tbl := NewTable("P3  Composite-event detection cost (ns/occurrence fed)",
		"event definition", "ns/feed")
	prim := func(m string) *event.Expr { return event.Primitive(event.End, "C", m) }
	cases := []struct {
		name string
		e    *event.Expr
	}{
		{"primitive", prim("m0")},
		{"or(2)", event.Or(prim("m0"), prim("m1"))},
		{"and(2)", event.And(prim("m0"), prim("m1"))},
		{"seq(2)", event.Seq(prim("m0"), prim("m1"))},
		{"not", event.Not(prim("m0"), prim("m1"), prim("m2"))},
		{"any(2 of 4)", event.Any(2, prim("m0"), prim("m1"), prim("m2"), prim("m3"))},
	}
	// Left-deep And chains of growing depth.
	for _, depth := range []int{4, 8, 16} {
		e := prim("m0")
		for i := 1; i < depth; i++ {
			e = event.And(e, prim(fmt.Sprintf("m%d", i%4)))
		}
		cases = append(cases, struct {
			name string
			e    *event.Expr
		}{fmt.Sprintf("and-chain depth %d", depth), e})
	}
	for _, c := range cases {
		d := event.MustDetector(c.e, nil, event.ContextPaper)
		ns := timeOp(feeds, func(i int) {
			d.Feed(event.Occurrence{Class: "C", Method: fmt.Sprintf("m%d", i%4), When: event.End, Seq: uint64(i + 1)})
		})
		tbl.Row(c.name, ns)
	}
	return tbl
}

// RunP4 measures runtime rule addition/removal (§1 performance issue 1).
// Sentinel and ADAM add/remove a rule object; the Ode-style baseline must
// rebuild the class definition, touching every stored instance — the cost
// the paper predicts makes compile-time-only rules unsuitable.
func RunP4(instanceCounts []int) *Table {
	if len(instanceCounts) == 0 {
		instanceCounts = []int{100, 1000, 5000}
	}
	tbl := NewTable("P4  Cost of adding/removing one rule at runtime (µs/op)",
		"instances", "sentinel µs", "adam µs", "ode rebuild µs")
	for _, n := range instanceCounts {
		db := openQuiet()
		if err := InstallMarketSchema(db); err != nil {
			panic(err)
		}
		if _, err := BuildMarket(db, n, 0); err != nil {
			panic(err)
		}

		const reps = 20
		sNS := timeOp(reps, func(i int) {
			if err := db.Atomically(func(t *core.Tx) error {
				_, err := db.CreateRule(t, core.RuleSpec{
					Name:      fmt.Sprintf("p4-%d", i),
					EventSrc:  "end Stock::SetPrice(float p)",
					Condition: noCond,
				})
				return err
			}); err != nil {
				panic(err)
			}
			if err := db.Atomically(func(t *core.Tx) error {
				return db.DeleteRule(t, fmt.Sprintf("p4-%d", i))
			}); err != nil {
				panic(err)
			}
		})

		asys := adam.New(db)
		aNS := timeOp(reps, func(i int) {
			if err := asys.NewRule(&adam.Rule{
				Name: fmt.Sprintf("p4a-%d", i), ActiveClass: "Stock",
				ActiveMethod: "SetPrice", When: event.End, Enabled: true,
			}); err != nil {
				panic(err)
			}
			if err := asys.DeleteRule(fmt.Sprintf("p4a-%d", i)); err != nil {
				panic(err)
			}
		})

		osys := ode.New(db)
		section := func(i int) ode.ClassRules {
			return ode.ClassRules{
				Class: "Stock",
				Constraints: []ode.Constraint{{
					Name:     fmt.Sprintf("p4o-%d", i),
					Severity: ode.Soft,
					Pred:     func(rule.ExecContext, oid.OID) (bool, error) { return true, nil },
				}},
			}
		}
		if err := db.Atomically(func(t *core.Tx) error { return osys.EnrollClass(t, section(0)) }); err != nil {
			panic(err)
		}
		oNS := timeOp(5, func(i int) {
			if err := db.Atomically(func(t *core.Tx) error {
				return osys.RebuildClass(t, section(i+1))
			}); err != nil {
				panic(err)
			}
		})

		tbl.Row(n, sNS/1e3, aNS/1e3, oNS/1e3)
	}
	return tbl
}

// RunP5 measures class-level vs instance-level rule association (§1
// performance issue 2): setup cost to cover N instances and per-event
// dispatch cost afterwards.
func RunP5(instanceCounts []int, eventsPer int) *Table {
	if len(instanceCounts) == 0 {
		instanceCounts = []int{100, 1000, 5000}
	}
	tbl := NewTable("P5  Class-level vs instance-level rule association",
		"instances", "class setup µs", "inst setup µs", "class ns/ev", "inst ns/ev")
	for _, n := range instanceCounts {
		// Class-level.
		cdb := openQuiet()
		if err := InstallMarketSchema(cdb); err != nil {
			panic(err)
		}
		cm, err := BuildMarket(cdb, n, 0)
		if err != nil {
			panic(err)
		}
		cSetup := timeOp(1, func(int) {
			if err := cdb.Atomically(func(t *core.Tx) error {
				_, err := cdb.CreateRule(t, core.RuleSpec{
					Name: "p5-class", EventSrc: "end Stock::SetPrice(float p)",
					Condition: noCond, ClassLevel: "Stock",
				})
				return err
			}); err != nil {
				panic(err)
			}
		})
		var cNS float64
		if err := cdb.Atomically(func(t *core.Tx) error {
			cNS = timeOp(eventsPer, func(i int) {
				if _, err := cdb.Send(t, cm.Stocks[i%n], "SetPrice", value.Float(1)); err != nil {
					panic(err)
				}
			})
			return nil
		}); err != nil {
			panic(err)
		}

		// Instance-level: one rule subscribed to every instance.
		idb := openQuiet()
		if err := InstallMarketSchema(idb); err != nil {
			panic(err)
		}
		im, err := BuildMarket(idb, n, 0)
		if err != nil {
			panic(err)
		}
		iSetup := timeOp(1, func(int) {
			if err := idb.Atomically(func(t *core.Tx) error {
				r, err := idb.CreateRule(t, core.RuleSpec{
					Name: "p5-inst", EventSrc: "end Stock::SetPrice(float p)",
					Condition: noCond,
				})
				if err != nil {
					return err
				}
				for _, s := range im.Stocks {
					if err := idb.Subscribe(t, s, r.ID()); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				panic(err)
			}
		})
		var iNS float64
		if err := idb.Atomically(func(t *core.Tx) error {
			iNS = timeOp(eventsPer, func(i int) {
				if _, err := idb.Send(t, im.Stocks[i%n], "SetPrice", value.Float(1)); err != nil {
					panic(err)
				}
			})
			return nil
		}); err != nil {
			panic(err)
		}

		tbl.Row(n, cSetup/1e3, iSetup/1e3, cNS, iNS)
	}
	return tbl
}

// RunP6 measures the three coupling modes (§4.4): transaction latency with
// the rule inline (immediate), at commit (deferred), and in a separate
// post-commit transaction (detached), plus where the action work lands.
func RunP6(sendsPerTx, txs int) *Table {
	tbl := NewTable("P6  Coupling modes (µs/transaction, action placement)",
		"coupling", "µs/tx", "actions in-tx", "actions post-commit")
	for _, mode := range []string{"immediate", "deferred", "detached"} {
		db := openQuiet()
		if err := InstallMarketSchema(db); err != nil {
			panic(err)
		}
		m, err := BuildMarket(db, 1, 0)
		if err != nil {
			panic(err)
		}
		inTx, postTx := 0, 0
		var curTx *core.Tx
		if err := db.Atomically(func(t *core.Tx) error {
			r, err := db.CreateRule(t, core.RuleSpec{
				Name:     "p6",
				EventSrc: "end Stock::SetPrice(float p)",
				Action: func(ctx rule.ExecContext, det event.Detection) error {
					if curTx != nil && curTx.Active() {
						inTx++
					} else {
						postTx++
					}
					return nil
				},
				Coupling: mode,
			})
			if err != nil {
				return err
			}
			return db.Subscribe(t, m.Stocks[0], r.ID())
		}); err != nil {
			panic(err)
		}

		ns := timeOp(txs, func(i int) {
			t := db.Begin()
			curTx = t
			for j := 0; j < sendsPerTx; j++ {
				if _, err := db.Send(t, m.Stocks[0], "SetPrice", value.Float(float64(j))); err != nil {
					panic(err)
				}
			}
			if err := db.Commit(t); err != nil {
				panic(err)
			}
			curTx = nil
		})
		tbl.Row(mode, ns/1e3, inTx, postTx)
	}
	return tbl
}

// RunP7 measures first-class persistence: clean reopen vs crash recovery
// as the database grows (rules, events, subscriptions and objects all come
// back; §3.3/§3.4).
func RunP7(objectCounts []int) *Table {
	if len(objectCounts) == 0 {
		objectCounts = []int{100, 1000, 5000}
	}
	tbl := NewTable("P7  Reopen vs crash recovery (ms)",
		"objects", "clean reopen ms", "crash recovery ms", "wal KiB replayed")
	for _, n := range objectCounts {
		dir, err := os.MkdirTemp("", "sentinel-p7-*")
		if err != nil {
			panic(err)
		}
		build := func() {
			db := core.MustOpen(core.Options{Dir: dir, SyncOnCommit: false, Output: io.Discard})
			if err := InstallMarketSchema(db); err != nil {
				panic(err)
			}
			m, err := BuildMarket(db, n, 0)
			if err != nil {
				panic(err)
			}
			if err := db.Atomically(func(t *core.Tx) error {
				r, err := db.CreateRule(t, core.RuleSpec{
					Name: "p7", EventSrc: "end Stock::SetPrice(float price)", CondSrc: "price > 0", ActionSrc: `print("hi")`,
				})
				if err != nil {
					return err
				}
				return db.Subscribe(t, m.Stocks[0], r.ID())
			}); err != nil {
				panic(err)
			}
			if err := db.Close(); err != nil {
				panic(err)
			}
		}
		build()

		schemaOpt := func(db *core.Database) error { return InstallMarketSchema(db) }

		// Clean reopen (heap + index are current; WAL is one checkpoint).
		start := time.Now()
		db2, err := core.Open(core.Options{Dir: dir, Schema: schemaOpt, Output: io.Discard})
		if err != nil {
			panic(err)
		}
		cleanMS := float64(time.Since(start).Microseconds()) / 1e3

		// Dirty the database and crash.
		if err := db2.Atomically(func(t *core.Tx) error {
			for _, id := range db2.InstancesOf("Stock") {
				if _, err := db2.Send(t, id, "SetPrice", value.Float(42)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			panic(err)
		}
		walKB := float64(db2.WALSize()) / 1024
		if err := db2.CloseAbrupt(); err != nil {
			panic(err)
		}

		start = time.Now()
		db3, err := core.Open(core.Options{Dir: dir, Schema: schemaOpt, Output: io.Discard})
		if err != nil {
			panic(err)
		}
		crashMS := float64(time.Since(start).Microseconds()) / 1e3
		db3.Close()
		os.RemoveAll(dir)

		tbl.Row(n, cleanMS, crashMS, walKB)
	}
	return tbl
}

// RunP8 measures event-interface selectivity (§4.5 fn. 7): a class with 10
// methods, k of which are declared event generators; the workload calls all
// methods uniformly with one subscribed no-op rule.
func RunP8(sends int) *Table {
	tbl := NewTable("P8  Event-interface selectivity (ns/send, 10 methods, k generators)",
		"k declared", "ns/send")
	for _, k := range []int{0, 2, 5, 10} {
		db := openQuiet()
		cls := schema.NewClass(fmt.Sprintf("Sel%d", k))
		cls.Classification = schema.ReactiveClass
		cls.Attr("x", value.TypeFloat)
		for mi := 0; mi < 10; mi++ {
			gen := schema.GenNone
			if mi < k {
				gen = schema.GenEnd
			}
			cls.AddMethod(&schema.Method{
				Name:       fmt.Sprintf("M%d", mi),
				Params:     []schema.Param{{Name: "v", Type: value.TypeFloat}},
				Visibility: schema.Public,
				EventGen:   gen,
				Body: func(ctx schema.CallContext) (value.Value, error) {
					return value.Nil, ctx.Set("x", ctx.Arg(0))
				},
			})
		}
		if err := db.RegisterClass(cls); err != nil {
			panic(err)
		}
		var id oid.OID
		if err := db.Atomically(func(t *core.Tx) error {
			var err error
			id, err = db.NewObject(t, cls.Name, nil)
			if err != nil {
				return err
			}
			if k > 0 {
				ev := event.Primitive(event.End, cls.Name, "M0")
				for mi := 1; mi < k; mi++ {
					ev = event.Or(ev, event.Primitive(event.End, cls.Name, fmt.Sprintf("M%d", mi)))
				}
				r, err := db.CreateRule(t, core.RuleSpec{Name: "p8", Event: ev, Condition: noCond})
				if err != nil {
					return err
				}
				return db.Subscribe(t, id, r.ID())
			}
			return nil
		}); err != nil {
			panic(err)
		}
		var ns float64
		if err := db.Atomically(func(t *core.Tx) error {
			ns = timeOp(sends, func(i int) {
				if _, err := db.Send(t, id, fmt.Sprintf("M%d", i%10), value.Float(1)); err != nil {
					panic(err)
				}
			})
			return nil
		}); err != nil {
			panic(err)
		}
		tbl.Row(k, ns)
	}
	return tbl
}

// RunAll executes every experiment and writes the tables to w.
func RunAll(w io.Writer) {
	fmt.Fprintln(w, "Sentinel reproduction — experiment suite")
	fmt.Fprintln(w, "========================================")
	fmt.Fprintln(w)
	RunE1().Fprint(w)
	RunE2().Fprint(w)
	RunP1(nil, 2000).Fprint(w)
	RunP2(20000).Fprint(w)
	RunP3(200000).Fprint(w)
	RunP4(nil).Fprint(w)
	RunP5(nil, 2000).Fprint(w)
	RunP6(100, 50).Fprint(w)
	RunP7(nil).Fprint(w)
	RunP8(20000).Fprint(w)
	RunP9(nil, 200).Fprint(w)
	RunP10(nil, 100).Fprint(w)
	RunC1().Fprint(w)
}

// RunP9 measures secondary-index lookups vs scans as the population grows —
// derived access paths maintained reactively by the system (§1's "unifying
// paradigm" framing).
func RunP9(sizes []int, lookups int) *Table {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10000}
	}
	tbl := NewTable("P9  Secondary index vs scan (ns/equality lookup)",
		"objects", "scan ns", "indexed ns", "speedup")
	for _, n := range sizes {
		db := openQuiet()
		if err := InstallMarketSchema(db); err != nil {
			panic(err)
		}
		if _, err := BuildMarket(db, n, 0); err != nil {
			panic(err)
		}
		probe := value.Str(fmt.Sprintf("STK%04d", n/2))
		var scanNS float64
		if err := db.Atomically(func(t *core.Tx) error {
			scanNS = timeOp(lookups, func(int) {
				ids, _, err := db.LookupByAttr(t, "Stock", "symbol", probe)
				if err != nil || len(ids) != 1 {
					panic(fmt.Sprintf("scan lookup: %v %v", ids, err))
				}
			})
			return nil
		}); err != nil {
			panic(err)
		}
		if err := db.Atomically(func(t *core.Tx) error {
			_, err := db.CreateIndex(t, "Stock", "symbol")
			return err
		}); err != nil {
			panic(err)
		}
		var idxNS float64
		if err := db.Atomically(func(t *core.Tx) error {
			idxNS = timeOp(lookups, func(int) {
				ids, indexed, err := db.LookupByAttr(t, "Stock", "symbol", probe)
				if err != nil || !indexed || len(ids) != 1 {
					panic(fmt.Sprintf("indexed lookup: %v %v", ids, err))
				}
			})
			return nil
		}); err != nil {
			panic(err)
		}
		tbl.Row(n, scanNS, idxNS, scanNS/idxNS)
	}
	return tbl
}

// RunP10 measures durable (fsync-per-commit) throughput as concurrency
// grows: group commit lets concurrent committers share fsyncs, so
// aggregate commits/sec should scale well past a single writer's fsync
// rate.
func RunP10(workerCounts []int, commitsPerWorker int) *Table {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	tbl := NewTable("P10 Durable commit throughput (group commit, SyncOnCommit=true)",
		"workers", "commits/sec", "vs 1 worker")
	var base float64
	for _, workers := range workerCounts {
		dir, err := os.MkdirTemp("", "sentinel-p10-*")
		if err != nil {
			panic(err)
		}
		db, err := core.Open(core.Options{Dir: dir, SyncOnCommit: true, Output: io.Discard,
			Schema: func(db *core.Database) error { return InstallMarketSchema(db) }})
		if err != nil {
			panic(err)
		}
		m, err := BuildMarket(db, workers, 0)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < commitsPerWorker; i++ {
					if err := db.Atomically(func(t *core.Tx) error {
						_, err := db.Send(t, m.Stocks[w], "SetPrice", value.Float(float64(i)))
						return err
					}); err != nil {
						panic(err)
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		rate := float64(workers*commitsPerWorker) / elapsed
		db.Close()
		os.RemoveAll(dir)
		if base == 0 {
			base = rate
		}
		tbl.Row(workers, rate, rate/base)
	}
	return tbl
}
