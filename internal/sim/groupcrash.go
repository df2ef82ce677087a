package sim

// groupcrash.go tortures the group-commit path: concurrent committers
// coalesce their WAL batches through the leader/follower protocol while a
// fault VFS journals every storage op, and the crash-state enumerator then
// proves that a power cut at ANY op boundary leaves a state where (a)
// every transaction inside a coalesced flush is atomic — each writer's
// two cells always agree, no batch is ever torn mid-transaction, (b)
// durability is monotone in the cut position, and (c) every commit whose
// shared fsync completed before the cut survives recovery. Together these
// show coalescing never weakens the single-commit crash contract. The
// dependent-chain variant adds (d): every transaction also bumps one shared
// cell, which under early lock release it reads while the previous bump is
// still in flight — no state may hold a commit without the one it read.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
)

// GroupDir is the database directory for the group-commit workload.
const GroupDir = "gdb"

// GroupMark records the journal position right after one writer's commit
// returned. The commit's (possibly shared) fsync is part of those ops, so
// any crash at or beyond Ops must recover at least Round for that writer.
type GroupMark struct {
	Writer, Round, Ops int
}

// GroupOracle is the ground truth for the group-commit sweep.
type GroupOracle struct {
	Writers, Rounds int
	Chain           bool // every round also bumped the shared cell S
	SetupOps        int  // journal position after the schema/bind commit
	Marks           []GroupMark
	TotalOps        int
	Groups          uint64 // coalesced flushes the run produced
	Grouped         uint64 // commits carried by those flushes
}

// floor returns the highest round writer w durably committed within the
// first k journaled ops.
func (o *GroupOracle) floor(w, k int) int {
	r := 0
	for _, m := range o.Marks {
		if m.Writer == w && m.Ops <= k && m.Round > r {
			r = m.Round
		}
	}
	return r
}

// groupSchema builds the Cell class, one left/right pair per writer and, for
// the dependent chain, the shared cell S; DSL-defined so recovery needs no
// Go schema hook.
func groupSchema(writers int, chain bool) string {
	var b strings.Builder
	b.WriteString(`
		class Cell reactive persistent {
			attr v int
			event end method SetV(n int) { self.v := n }
			method Bump() { self.v := self.v + 1 }
		}
	`)
	for w := 0; w < writers; w++ {
		fmt.Fprintf(&b, "bind L%d new Cell(v: 0)\n", w)
		fmt.Fprintf(&b, "bind R%d new Cell(v: 0)\n", w)
	}
	if chain {
		b.WriteString("bind S new Cell(v: 0)\n")
	}
	return b.String()
}

// RunGroupWorkload drives writers concurrent committers, each committing
// rounds transactions that set BOTH its cells to the round number in one
// transaction, through the group-commit path (SyncOnCommit). With chain set
// each transaction then bumps the shared cell S (Send locks it exclusively,
// so the bumps serialize): a committer takes S as soon as the previous
// bump's batch is queued, reads that in-flight write, and its batch joins
// the same or the next group. The fault VFS is wrapped in a latency layer
// that charges each fsync a realistic delay: committers that arrive during
// a leader's fsync queue behind it and ride the next flush together. With instant fsyncs committers never overlap and
// every flush degenerates to a singleton, which would leave the
// coalesced-batch recovery path untested. The latency layer only sleeps;
// the op journal (and hence the crash-state enumeration) is the fault VFS's
// own.
func RunGroupWorkload(fault *vfs.Fault, writers, rounds int, chain bool) (*GroupOracle, error) {
	db, err := core.Open(core.Options{
		Dir:          GroupDir,
		VFS:          vfs.NewLatency(fault, 300*time.Microsecond, 0),
		SyncOnCommit: true,
		Output:       io.Discard,
	})
	if err != nil {
		return nil, err
	}
	defer db.CloseAbrupt()

	if err := db.Exec(groupSchema(writers, chain)); err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	o := &GroupOracle{Writers: writers, Rounds: rounds, Chain: chain, SetupOps: fault.Ops()}
	shared, _ := db.Lookup("S")

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, writers)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l, _ := db.Lookup(fmt.Sprintf("L%d", w))
			r, _ := db.Lookup(fmt.Sprintf("R%d", w))
			for i := 1; i <= rounds; i++ {
				err := db.Atomically(func(t *core.Tx) error {
					if err := db.Set(t, l, "v", value.Int(int64(i))); err != nil {
						return err
					}
					if err := db.Set(t, r, "v", value.Int(int64(i))); err != nil || !chain {
						return err
					}
					_, err := db.Send(t, shared, "Bump")
					return err
				})
				if err != nil {
					errs[w] = fmt.Errorf("writer %d round %d: %w", w, i, err)
					return
				}
				mu.Lock()
				o.Marks = append(o.Marks, GroupMark{Writer: w, Round: i, Ops: fault.Ops()})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := db.Stats().Storage
	o.Groups, o.Grouped = s.CommitGroups, s.GroupedCommits
	o.TotalOps = fault.Ops()
	return o, nil
}

// GroupTorture sweeps every crash point of the group-commit workload (the
// dependent chain with chain set) at the given journal stride, in every
// crash mode, checking batch atomicity, durability floors and monotonicity,
// and for the chain the shared cell. Harness failures return an error;
// recovery bugs land in Violations.
func GroupTorture(writers, rounds, stride int, chain bool) (*TortureResult, error) {
	if stride < 1 {
		stride = 1
	}
	fault := vfs.NewFault()
	o, err := RunGroupWorkload(fault, writers, rounds, chain)
	if err != nil {
		return nil, fmt.Errorf("group workload: %w", err)
	}

	res := &TortureResult{}
	type cached struct {
		vals []int // recovered round per writer; nil = setup not yet durable
		errs []string
	}
	seen := make(map[uint32]cached)

	for _, mode := range vfs.Modes {
		prev := make([]int, writers)
		for k := 0; k <= o.TotalOps; k += stride {
			res.States++
			st := fault.CrashState(k, mode)
			h := stateHash(st)
			c, ok := seen[h]
			if !ok {
				res.Reopens++
				c.vals, c.errs = checkGroupState(st, o)
				seen[h] = c
			}
			for _, e := range c.errs {
				res.Violations = append(res.Violations, fmt.Sprintf("cut %d/%d, %v: %s", k, o.TotalOps, mode, e))
			}
			if c.vals == nil {
				if k >= o.SetupOps {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"cut %d/%d, %v: setup commit fsynced at op %d but not recovered", k, o.TotalOps, mode, o.SetupOps))
				}
				continue
			}
			for w := 0; w < writers; w++ {
				if floor := o.floor(w, k); c.vals[w] < floor {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"cut %d/%d, %v: writer %d recovered round %d but round %d committed and fsynced within the cut",
						k, o.TotalOps, mode, w, c.vals[w], floor))
				}
				if c.vals[w] < prev[w] {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"cut %d/%d, %v: writer %d recovered round %d < %d at an earlier cut — durability went backwards",
						k, o.TotalOps, mode, w, c.vals[w], prev[w]))
				}
				prev[w] = c.vals[w]
			}
		}
	}
	return res, nil
}

// checkGroupState reopens one crash-state image and verifies per-writer
// batch atomicity and, for the dependent chain, the shared cell. It returns
// the recovered round per writer (nil when the setup transaction itself is
// not durable) and any violations.
func checkGroupState(st map[string][]byte, o *GroupOracle) (vals []int, errs []string) {
	defer func() {
		if r := recover(); r != nil {
			errs = append(errs, fmt.Sprintf("recovery panicked: %v", r))
		}
	}()
	addf := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	mem := vfs.NewMem()
	mem.Install(st)
	db, err := core.Open(core.Options{
		Dir:          GroupDir,
		VFS:          mem,
		SyncOnCommit: true,
		Output:       io.Discard,
	})
	if err != nil {
		addf("reopen failed: %v", err)
		return nil, errs
	}
	defer db.CloseAbrupt()

	if _, ok := db.Lookup("L0"); !ok {
		return nil, errs // setup never became durable; nothing else to check
	}
	if problems := db.CheckIntegrity(); len(problems) > 0 {
		addf("integrity: %v", problems)
	}

	read := func(name string) (int64, bool) {
		v, err := db.Eval(name + ".v")
		if err != nil {
			addf("%s.v unreadable: %v", name, err)
			return 0, false
		}
		n, ok := v.AsInt()
		if !ok {
			addf("%s.v = %v, not an int", name, v)
			return 0, false
		}
		return n, true
	}
	vals = make([]int, o.Writers)
	rounds := 0
	for w := 0; w < o.Writers; w++ {
		l, ok1 := read(fmt.Sprintf("L%d", w))
		r, ok2 := read(fmt.Sprintf("R%d", w))
		if !ok1 || !ok2 {
			continue
		}
		// Atomicity of each transaction inside a coalesced flush: the two
		// cells are written by the same transaction, always together.
		if l != r {
			addf("torn group-commit batch: writer %d recovered L=%d R=%d", w, l, r)
		}
		if l < 0 || l > int64(o.Rounds) {
			addf("writer %d recovered round %d outside [0,%d]", w, l, o.Rounds)
		}
		vals[w] = int(l)
		rounds += int(l)
	}
	if o.Chain {
		// Every recovered round bumped S once, on top of the bump it read;
		// a bump that survived without the one before it shows as S > rounds.
		if s, ok := read("S"); ok && s != int64(rounds) {
			addf("shared cell S = %d but %d rounds recovered: a commit survived without one it read, or lost its own bump", s, rounds)
		}
	}
	return vals, errs
}
