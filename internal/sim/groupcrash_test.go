package sim

import (
	"os"
	"testing"

	"sentinel/internal/vfs"
)

// TestGroupCommitTorture sweeps power cuts across the group-commit
// workload: concurrent committers coalescing WAL flushes must recover
// atomically (both cells of every transaction agree) at every op boundary
// in every crash mode, with monotone durability and the fsync floor
// respected. -short strides the sweep; SENTINEL_TORTURE=full forces
// stride 1.
func TestGroupCommitTorture(t *testing.T) {
	// Coalescing shrinks the journal (that is the point), so the sweep is
	// cheap enough to run exhaustively by default.
	stride := 1
	if testing.Short() {
		stride = 5
	}
	if os.Getenv("SENTINEL_TORTURE") == "full" {
		stride = 1
	}
	res, err := GroupTorture(4, 8, stride, false)
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
	if res.States < 50 {
		t.Fatalf("enumerated only %d crash states — journal too sparse", res.States)
	}
	t.Logf("enumerated %d crash states (%d distinct reopens), %d violations",
		res.States, res.Reopens, len(res.Violations))
}

// TestGroupWorkloadOracle sanity-checks the workload: every writer
// completes every round, marks are journal-monotone per writer, and the
// run actually exercised the coalescing path.
func TestGroupWorkloadOracle(t *testing.T) {
	o, err := RunGroupWorkload(vfs.NewFault(), 4, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Marks) != 4*6 {
		t.Fatalf("%d marks, want %d", len(o.Marks), 4*6)
	}
	last := make(map[int]int)
	for _, m := range o.Marks {
		if m.Round != last[m.Writer]+1 {
			t.Fatalf("writer %d marks out of order: round %d after %d", m.Writer, m.Round, last[m.Writer])
		}
		last[m.Writer] = m.Round
	}
	if o.Groups == 0 || o.Grouped < o.Groups {
		t.Fatalf("group-commit counters implausible: groups=%d grouped=%d", o.Groups, o.Grouped)
	}
	// The latency-injected fsyncs must have produced at least one genuinely
	// coalesced flush, or the torture sweep never covers a multi-commit
	// batch.
	if o.Grouped == o.Groups {
		t.Fatalf("every flush was a singleton (groups=%d): coalescing path not exercised", o.Groups)
	}
	t.Logf("groups=%d grouped=%d (%.2f commits/flush), %d ops journaled",
		o.Groups, o.Grouped, float64(o.Grouped)/float64(o.Groups), o.TotalOps)
}

// TestDependentChainTorture sweeps power cuts across the dependent chain:
// every transaction also bumps the shared cell S, which it locks as soon as
// the previous bump's batch is queued — it reads a write still in flight.
// In every crash state no commit survives without the one it read (S equals
// the number of recovered rounds), on top of TestGroupCommitTorture's
// atomicity, floor and monotonicity checks. The run must also show the
// dependent commits sharing flushes, which only early lock release allows.
// The default run strides the sweep; SENTINEL_TORTURE=full forces stride 1.
func TestDependentChainTorture(t *testing.T) {
	stride := 3
	if testing.Short() {
		stride = 9
	}
	if os.Getenv("SENTINEL_TORTURE") == "full" {
		stride = 1
	}
	o, err := RunGroupWorkload(vfs.NewFault(), 4, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.Grouped <= o.Groups {
		t.Fatalf("dependent commits never shared a flush (groups=%d grouped=%d): locks outlive the enqueue", o.Groups, o.Grouped)
	}
	res, err := GroupTorture(4, 8, stride, true)
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
	t.Logf("groups=%d grouped=%d; enumerated %d crash states (%d distinct reopens), %d violations",
		o.Groups, o.Grouped, res.States, res.Reopens, len(res.Violations))
}
