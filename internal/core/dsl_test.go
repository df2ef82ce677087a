package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// alertClass is the shape of the benchmark's alert rule: a DSL event
// method and a class-level DSL rule with a condition and an action.
const alertClass = `
class Stock reactive {
	attr price int
	attr limit int
	attr alerts int
	event end method SetPrice(p int) { self.price := p }
	rule alert on end Stock::SetPrice(int p) if p > self.limit then self.alerts := self.alerts + 1
}
bind S new Stock(price: 0, limit: 10, alerts: 0)
`

func mustLookup(t testing.TB, db *Database, name string) oid.OID {
	t.Helper()
	id, ok := db.Lookup(name)
	if !ok {
		t.Fatalf("no binding %s", name)
	}
	return id
}

// TestDSLFiringAllocs pins one Atomically{Send} on a DSL event method
// whose class-level DSL rule has a condition and an action. The method
// body, the condition and the action each run in an interpreter frame on
// the Go stack, so the op allocates what TestSendFiringAllocs's Go-function
// rule does. It was 17 while every frame and block built a heap scope map.
func TestDSLFiringAllocs(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	if err := db.Exec(alertClass); err != nil {
		t.Fatal(err)
	}
	id := mustLookup(t, db, "S")
	send := func() {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, id, "SetPrice", value.Int(20))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	n := testing.AllocsPerRun(200, send)
	if v, err := db.Eval("S.alerts"); err != nil || !v.Equal(value.Int(202)) {
		t.Fatalf("alerts = %v, %v; want 202", v, err)
	}
	if n > 6 {
		t.Fatalf("Atomically{Send} firing a DSL rule: %v allocs/op, want <= 6", n)
	}
}

// TestDSLMethodBlockAllocs pins that the blocks of a DSL method body cost
// no allocation: a body whose parameter and locals (four in all) live in
// an if, a while and the while's body allocates what a one-statement body
// does.
func TestDSLMethodBlockAllocs(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	if err := db.Exec(`
class Blocks {
	attr x int
	method Flat(v int) { self.x := v }
	method Nested(v int) {
		if v > 0 {
			let b := v + 1
			let i := 0
			while i < 3 {
				let c := b + i
				self.x := c
				i := i + 1
			}
		} else {
			self.x := 0
		}
	}
}
bind B new Blocks(x: 0)
`); err != nil {
		t.Fatal(err)
	}
	id := mustLookup(t, db, "B")
	allocs := func(method string) float64 {
		call := func() {
			if err := db.Atomically(func(tx *Tx) error {
				_, err := db.Send(tx, id, method, value.Int(5))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		call()
		return testing.AllocsPerRun(200, call)
	}
	flat, nested := allocs("Flat"), allocs("Nested")
	if v, err := db.Eval("B.x"); err != nil || !v.Equal(value.Int(8)) {
		t.Fatalf("B.x = %v, %v; want 8", v, err)
	}
	if nested != flat {
		t.Fatalf("a body with if/while blocks: %v allocs/op, a flat body %v", nested, flat)
	}
}

// TestDSLRecursiveMethodLocals: each activation of a recursive DSL method
// has its own locals, so a local read after the recursive call still
// holds this activation's value.
func TestDSLRecursiveMethodLocals(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	if err := db.Exec(`
class Rec {
	attr trace string
	method Down(n int) int {
		let mine := n * 10
		let sub := 0
		if n > 0 {
			let mine := -1
			sub := self.Down(n - 1)
		}
		self.trace := self.trace + " " + mine
		return mine + sub
	}
}
bind R new Rec(trace: "")
`); err != nil {
		t.Fatal(err)
	}
	v, err := db.Eval("R.Down(6)")
	if err != nil || !v.Equal(value.Int(210)) {
		t.Fatalf("R.Down(6) = %v, %v; want 210", v, err)
	}
	if tr, err := db.Eval("R.trace"); err != nil || !tr.Equal(value.Str(" 0 10 20 30 40 50 60")) {
		t.Fatalf("trace = %v, %v", tr, err)
	}
}

// TestDSLExecScriptLets: a compilation unit is one scope, so a top-level
// let carries across its statements (declarations in between included),
// a block's let does not outlive the block, and nothing carries into the
// next Exec.
func TestDSLExecScriptLets(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	if err := db.Exec(`
let a := 2
let b := a * 3
class K { attr v int }
bind KK new K(v: b + a)
if a == 2 {
	let a := 100
	KK.v := KK.v + a
}
KK.v := KK.v + a
`); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Eval("KK.v"); err != nil || !v.Equal(value.Int(110)) {
		t.Fatalf("KK.v = %v, %v; want 110", v, err)
	}
	if err := db.Exec("KK.v := a"); err == nil || !strings.Contains(err.Error(), `unknown name "a"`) {
		t.Fatalf("a let carried into the next Exec: %v", err)
	}
}

// TestParallelDSLFiring fires DSL rules and runs DSL method bodies from
// several goroutines on disjoint objects; every goroutine's frames are its
// own, so each object ends with exactly its own sends' effects.
func TestParallelDSLFiring(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	defer db.Close()
	const workers, sends, limit = 4, 200, 10
	var src strings.Builder
	src.WriteString(`
class Meter reactive {
	attr total int
	attr alerts int
	attr limit int
	event end method Add(p int) {
		let i := 0
		while i < 2 {
			let half := p / 2
			self.total := self.total + half
			i := i + 1
		}
	}
	rule over on end Meter::Add(int p) if p > self.limit then {
		let d := p - self.limit
		if d > 0 { self.alerts := self.alerts + 1 }
	}
}
`)
	for w := 0; w < workers; w++ {
		fmt.Fprintf(&src, "bind M%d new Meter(total: 0, alerts: 0, limit: %d)\n", w, limit)
	}
	if err := db.Exec(src.String()); err != nil {
		t.Fatal(err)
	}
	price := func(w, i int) int { return (w*7 + i) % 20 }
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		id := mustLookup(t, db, fmt.Sprintf("M%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sends; i++ {
				if err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, id, "Add", value.Int(int64(price(w, i))))
					return err
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		var total, alerts int64
		for i := 0; i < sends; i++ {
			p := int64(price(w, i))
			total += 2 * (p / 2)
			if p > limit {
				alerts++
			}
		}
		for attr, want := range map[string]int64{"total": total, "alerts": alerts} {
			if v, err := db.Eval(fmt.Sprintf("M%d.%s", w, attr)); err != nil || !v.Equal(value.Int(want)) {
				t.Errorf("M%d.%s = %v, %v; want %d", w, attr, v, err, want)
			}
		}
	}
}
