package bench

import (
	"io"
	"strings"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// TestExperimentsRun exercises every experiment end-to-end at reduced sizes
// and sanity-checks the headline results (full-size runs live in
// cmd/sentinel-bench).
func TestExperimentsRun(t *testing.T) {
	e1 := RunE1().String()
	for _, sys := range []string{"Sentinel", "Ode-style", "ADAM-style"} {
		if !strings.Contains(e1, sys) {
			t.Fatalf("E1 missing row for %s:\n%s", sys, e1)
		}
	}
	// All three systems must allow 12 and block exactly the 12 violating
	// updates.
	if strings.Count(e1, "12       12") != 3 {
		t.Fatalf("E1: expected 12 allowed / 12 blocked on all three systems:\n%s", e1)
	}

	e2 := RunE2().String()
	if !strings.Contains(e2, "Sentinel") || !strings.Contains(e2, "yes") {
		t.Fatalf("E2: malformed table:\n%s", e2)
	}

	RunP1([]int{10, 50}, 200)
	RunP2(1000)
	RunP3(10000)
	RunP4([]int{50})
	RunP5([]int{50}, 200)
	RunP6(10, 5)
	RunP7([]int{50})
	RunP8(1000)
	RunP9([]int{50}, 50)
	RunP10([]int{1, 2}, 10)
	RunC1().Fprint(io.Discard)
}

// TestE1RuleArtifactCounts pins the expressiveness claim: one Sentinel rule
// replaces two Ode constraints and two ADAM rule objects.
func TestE1RuleArtifactCounts(t *testing.T) {
	e1 := RunE1().String()
	if !strings.Contains(e1, "Sentinel    1") {
		t.Errorf("Sentinel should need exactly 1 rule artifact:\n%s", e1)
	}
	if !strings.Contains(e1, "Ode-style   2") {
		t.Errorf("Ode should need 2 constraint declarations:\n%s", e1)
	}
	if !strings.Contains(e1, "ADAM-style  2") {
		t.Errorf("ADAM should need 2 rule objects:\n%s", e1)
	}
}

// TestE2SentinelFiresOnce pins the inter-class conjunction behaviour.
func TestE2SentinelFiresOnce(t *testing.T) {
	e2 := RunE2().String()
	if !strings.Contains(e2, "Sentinel    1               none                      1") {
		t.Fatalf("E2: Sentinel should express the purchase rule as 1 rule firing once:\n%s", e2)
	}
}

// TestP1CheckedRulesFollowSubscriptions counts P1's claim (§3.5): "only
// those rules which have subscribed to a reactive object are checked". Per
// raise, Sentinel runs the conditions of the rules subscribed to the
// raising stock — N/100 of them, whatever N — while the centralized engine
// examines all N.
func TestP1CheckedRulesFollowSubscriptions(t *testing.T) {
	const sends = 5
	for _, n := range []int{10, 100, 1000} {
		db, hot := p1Sentinel(n)
		subscribed := len(db.Subscribers(hot))
		if want := (n + p1Stocks - 1) / p1Stocks; subscribed != want {
			t.Fatalf("N=%d: %d rules subscribed to the hot stock, want %d", n, subscribed, want)
		}
		before := db.Stats()
		sendPrices(db, hot, sends)
		after := db.Stats()
		if raised := after.Events.Raised - before.Events.Raised; raised != sends {
			t.Fatalf("N=%d: %d events raised by %d sends", n, raised, sends)
		}
		if run := after.Rules.ConditionsRun - before.Rules.ConditionsRun; run != uint64(sends*subscribed) {
			t.Fatalf("N=%d: %d conditions run for %d raises, want %d per raise (the subscribed rules)",
				n, run, sends, subscribed)
		}

		adb, sys, ahot := p1Adam(n)
		checked := sys.Checked()
		sendPrices(adb, ahot, sends)
		if got := sys.Checked() - checked; got != sends*n {
			t.Fatalf("N=%d: ADAM examined %d rules for %d raises, want %d per raise (the whole rule base)",
				n, got, sends, n)
		}
	}
}

// TestP2PassiveSendsRaiseNothing counts P2's claim (§3.2): a send to a
// passive object, or of a method outside a reactive class's event
// interface, raises no event and notifies nobody, and the undeclared send
// allocates no more than the passive one. A declared send raises one event
// and notifies exactly its subscribers.
func TestP2PassiveSendsRaiseNothing(t *testing.T) {
	db, mk := p2Points()
	passive, quiet, loud := mk("PassivePoint"), mk("QuietPoint"), mk("LoudPoint")
	p2Subscribe(db, loud, 0, 1)
	counts := func(id oid.OID) (raised, notified uint64) {
		before := db.Stats().Events
		if err := db.Atomically(func(tx *core.Tx) error {
			_, err := db.Send(tx, id, "SetX", value.Float(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		after := db.Stats().Events
		return after.Raised - before.Raised, after.Notifications - before.Notifications
	}
	for _, c := range []struct {
		name             string
		id               oid.OID
		raised, notified uint64
	}{
		{"passive", passive, 0, 0},
		{"reactive, undeclared", quiet, 0, 0},
		{"reactive, declared, 1 subscriber", loud, 1, 1},
	} {
		if r, n := counts(c.id); r != c.raised || n != c.notified {
			t.Errorf("%s send: %d raised, %d notifications; want %d, %d", c.name, r, n, c.raised, c.notified)
		}
	}

	allocs := func(id oid.OID) float64 {
		var n float64
		if err := db.Atomically(func(tx *core.Tx) error {
			n = testing.AllocsPerRun(100, func() {
				if _, err := db.Send(tx, id, "SetX", value.Float(2)); err != nil {
					t.Fatal(err)
				}
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if p, q := allocs(passive), allocs(quiet); q > p {
		t.Fatalf("an undeclared send on a reactive class allocates %v/op, a passive send %v/op", q, p)
	}
}
