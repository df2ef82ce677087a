package sim

import (
	"os"
	"testing"
)

// TestMarkCells runs each durable-mark failure cell (markcells.go).
func TestMarkCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() ([]string, error)
	}{
		{"PrimaryFsyncFails", MarkCellPrimaryFsyncFails},
		{"FollowerCrashBeforeMark", MarkCellFollowerCrash},
		{"PromoteAfterFollowerRestart", func() ([]string, error) { return MarkCellPromote(false) }},
		{"PromoteKeepsInDoubt", func() ([]string, error) { return MarkCellPromote(true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			violations, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range violations {
				t.Error(v)
			}
		})
	}
}

// TestMarkCrashSweep runs MarkCrashSweep: strided in the ordinary suite,
// every op boundary under SENTINEL_TORTURE=full (`make torture`).
func TestMarkCrashSweep(t *testing.T) {
	stride := 3
	if testing.Short() {
		stride = 17
	}
	if os.Getenv("SENTINEL_TORTURE") == "full" {
		stride = 1
	}
	res, err := MarkCrashSweep(stride)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Violations {
		if i >= 25 {
			t.Errorf("... and %d more violations", len(res.Violations)-i)
			break
		}
		t.Error(v)
	}
	t.Logf("follower crash states %d (%d distinct reopens), %d violations", res.CrashStates, res.Reopens, len(res.Violations))
}
