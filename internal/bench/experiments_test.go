package bench

import (
	"io"
	"strings"
	"testing"
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
