package sim

// Durable-mark failure cells. A primary ships each batch at its WAL enqueue,
// before its fsync; a follower logs, fsyncs and acks the batch on receipt but
// exposes it — reads, index lookups, pushes — only once the primary's durable
// mark covers it. Each cell drives one failure through an in-process cluster
// (a primary on the fault VFS, one follower on its own fault VFS behind a
// pipe that can withhold marks) and returns the violations it saw:
//
//   - MarkCellPrimaryFsyncFails: the primary's fsync fails after the batch
//     shipped. The follower logs the batch but never exposes it, and the
//     restarted primary — whose new epoch reuses the batch's LSN — re-seeds
//     the follower instead of resuming onto it.
//   - MarkCellFollowerCrash: the follower crashes after logging a quorum-acked
//     batch, before the mark reaches it. After reopen the batch is still
//     logged and still invisible; the resumed stream exposes it and delivers
//     its push.
//   - MarkCellPromote: as MarkCellFollowerCrash, but the primary is lost and
//     the reopened follower promoted: the acked commit is present (its push
//     is not: a tail recovered from the log carries no occurrences, and no
//     primary is left to re-ship them). With inDoubt, the batch is the one
//     the primary's failed fsync left in doubt, and promotion keeps it — and
//     pushes it — which an in-doubt commit allows.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/repl"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
	"sentinel/internal/wal"
)

// markWrite is the value every cell writes to O0 in the batch under test.
const markWrite = 4242

// markCluster is one cell's cluster.
type markCluster struct {
	pfs  *vfs.Fault
	pri  *core.Database
	p    *repl.Primary
	node *failNode
	ffs  *vfs.Fault
	errs []string
}

func (c *markCluster) violate(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// newMarkCluster starts a quorum primary (K=1) with one follower attached,
// runs the schema and an index on Item.val, waits for the follower to apply
// it, and subscribes the follower's sink to O0.
func newMarkCluster() (*markCluster, error) {
	c := &markCluster{pfs: vfs.NewFault(), ffs: vfs.NewFault()}
	var err error
	c.pri, err = core.Open(core.Options{
		Dir: "p", VFS: c.pfs, SyncOnCommit: true, Output: io.Discard,
		SyncReplicas: 1, QuorumTimeout: failoverQuorumTimeout,
	})
	if err != nil {
		return nil, err
	}
	c.p = repl.NewPrimary(c.pri, repl.PrimaryOptions{})
	db, err := openSimReplica(c.ffs)
	if err != nil {
		return nil, err
	}
	c.node = &failNode{name: "follower", dir: "r", fs: c.ffs, db: db, sink: newTraceSink()}
	if _, err := c.node.attach(c.p, 1); err != nil {
		return nil, err
	}
	for _, s := range []string{replSimSchema, "index Item.val"} {
		if err := c.pri.Exec(s); err != nil {
			return nil, err
		}
	}
	if !awaitLSN(c.node.db, c.pri.ReplLSN(), failoverConverge) {
		return nil, errors.New("follower never applied the schema")
	}
	return c, c.subscribe(c.node)
}

// subscribe attaches n's sink to O0 under the label "O0".
func (c *markCluster) subscribe(n *failNode) error {
	id, ok := n.db.Lookup("O0")
	if !ok {
		return errors.New("O0 unbound")
	}
	subID, err := n.db.SubscribeSink(id, core.SinkFilter{}, n.sink)
	if err != nil {
		return err
	}
	n.sink.mu.Lock()
	n.sink.labels[subID] = "O0"
	n.sink.mu.Unlock()
	return nil
}

func (c *markCluster) close() {
	if c.node.sess != nil {
		c.node.detach(c.p)
	}
	c.p.Close()
	if c.pri != c.node.db {
		c.pri.CloseAbrupt()
	}
	c.node.db.CloseAbrupt()
}

// markState is what a node shows of the batch under test.
type markState struct {
	val     string // O0.val through a snapshot
	indexed bool   // Item.val = markWrite finds O0
	pushed  bool   // the sink saw SetVal(markWrite)
}

func readMarkState(n *failNode) (markState, error) {
	var st markState
	id, ok := n.db.Lookup("O0")
	if !ok {
		return st, errors.New("O0 unbound")
	}
	snap := n.db.BeginSnapshot()
	defer n.db.Abort(snap)
	v, err := n.db.Get(snap, id, "val")
	if err != nil {
		return st, err
	}
	st.val = v.String()
	ids, _, err := n.db.LookupByAttr(snap, "Item", "val", value.Int(markWrite))
	if err != nil {
		return st, err
	}
	st.indexed = len(ids) > 0
	n.sink.mu.Lock()
	for _, line := range n.sink.lines["O0"] {
		st.pushed = st.pushed || strings.Contains(line, fmt.Sprintf("args=[%d]", markWrite))
	}
	n.sink.mu.Unlock()
	return st, nil
}

// expectHidden records a violation for every way n exposes the batch.
func (c *markCluster) expectHidden(n *failNode, when string) {
	st, err := readMarkState(n)
	if err != nil {
		c.violate("%s: %v", when, err)
		return
	}
	if st.val == fmt.Sprint(markWrite) {
		c.violate("%s: a read sees O0.val = %s above the durable mark", when, st.val)
	}
	if st.indexed {
		c.violate("%s: the Item.val index finds the write above the durable mark", when)
	}
	if st.pushed {
		c.violate("%s: the write above the durable mark was pushed", when)
	}
}

// expectExposed records a violation for every way n fails to show it.
func (c *markCluster) expectExposed(n *failNode, when string, push bool) {
	st, err := readMarkState(n)
	if err != nil {
		c.violate("%s: %v", when, err)
		return
	}
	if st.val != fmt.Sprint(markWrite) || !st.indexed || st.pushed != push {
		c.violate("%s: O0.val = %s, indexed %v, pushed %v; want %d, true, %v", when, st.val, st.indexed, st.pushed, markWrite, push)
	}
}

// awaitLogged polls until db has logged want.
func awaitLogged(db *core.Database, want uint64) bool {
	deadline := time.Now().Add(failoverConverge)
	for db.ReplLogged() < want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// writeInDoubt fails the primary's next WAL fsync under the batch writing
// markWrite, and waits for the follower to log that batch.
func (c *markCluster) writeInDoubt() (uint64, error) {
	c.pfs.FailNthOp(c.pfs.Ops()+2, vfs.FaultEIO) // the group's write, then its fsync
	err := c.pri.Exec(fmt.Sprintf("O0!SetVal(%d)", markWrite))
	if !errors.Is(err, wal.ErrInDoubt) {
		return 0, fmt.Errorf("commit over a failed fsync = %v, want ErrInDoubt", err)
	}
	lsn := c.pri.ReplLSN()
	if !awaitLogged(c.node.db, lsn) {
		return 0, fmt.Errorf("follower never logged the shipped batch %d", lsn)
	}
	// Give a wrongly issued mark time to arrive.
	time.Sleep(20 * time.Millisecond)
	return lsn, nil
}

// writeAcked withholds the follower's marks at the current one, commits
// markWrite (quorum-acked: the follower logs and acks on receipt), waits for
// the follower to log it, and crashes and reopens the follower.
func (c *markCluster) writeAcked() (lsn uint64, err error) {
	c.node.sess.heldMark.Store(c.pri.ReplLSN())
	c.node.sess.withhold.Store(true)
	degraded := c.pri.Stats().Replication.QuorumDegraded
	if err := c.pri.Exec(fmt.Sprintf("O0!SetVal(%d)", markWrite)); err != nil {
		return 0, err
	}
	if c.pri.Stats().Replication.QuorumDegraded != degraded {
		return 0, errors.New("the commit degraded: no follower acked it")
	}
	lsn = c.pri.ReplLSN()
	if !awaitLogged(c.node.db, lsn) {
		return 0, fmt.Errorf("follower never logged the acked batch %d", lsn)
	}
	c.expectHidden(c.node, "before the crash")
	if got := c.node.db.ReplLSN(); got != lsn-1 {
		c.violate("before the crash: applied LSN %d, want %d (the mark is withheld)", got, lsn-1)
	}
	if err := c.crashFollower(); err != nil {
		return 0, err
	}
	if a, l := c.node.db.ReplLSN(), c.node.db.ReplLogged(); a != lsn-1 || l != lsn {
		c.violate("after the crash: applied %d, logged %d; want %d, %d", a, l, lsn-1, lsn)
	}
	c.expectHidden(c.node, "after the crash")
	return lsn, nil
}

// crashFollower detaches the follower, cuts its power (synced data only)
// and reopens the image as a replica with a fresh sink on O0.
func (c *markCluster) crashFollower() error {
	c.node.detach(c.p)
	c.node.db.CloseAbrupt()
	fs := vfs.NewMem()
	fs.Install(c.ffs.CrashState(c.ffs.Ops(), vfs.CrashSynced))
	db, err := openSimReplica(fs)
	if err != nil {
		return fmt.Errorf("follower reopen: %w", err)
	}
	c.node = &failNode{name: "follower", dir: "r", fs: fs, db: db, sink: newTraceSink()}
	return c.subscribe(c.node)
}

// promote loses the primary and promotes the follower, returning the
// promoted database (the cluster's node then holds it).
func (c *markCluster) promote() (*repl.Primary, error) {
	if c.node.sess != nil {
		c.node.detach(c.p)
	}
	c.p.Close()
	c.pri.CloseAbrupt()
	return c.node.promote()
}

// MarkCellPrimaryFsyncFails runs cell (i).
func MarkCellPrimaryFsyncFails() ([]string, error) {
	c, err := newMarkCluster()
	if err != nil {
		return nil, err
	}
	defer func() { c.close() }()
	lsn, err := c.writeInDoubt()
	if err != nil {
		return nil, err
	}
	c.expectHidden(c.node, "after the failed fsync")

	// Power loss: the unsynced batch is gone from the primary. Its restart
	// bumps the epoch with a seal below the follower's logged tail.
	c.node.detach(c.p)
	c.p.Close()
	c.pri.CloseAbrupt()
	pfs := vfs.NewMem()
	pfs.Install(c.pfs.CrashState(c.pfs.Ops(), vfs.CrashSynced))
	if c.pri, err = core.Open(core.Options{Dir: "p", VFS: pfs, SyncOnCommit: true, Output: io.Discard,
		SyncReplicas: 1, QuorumTimeout: failoverQuorumTimeout}); err != nil {
		return nil, err
	}
	c.p = repl.NewPrimary(c.pri, repl.PrimaryOptions{})
	if got := c.pri.ReplLSN(); got != lsn-1 {
		return nil, fmt.Errorf("restarted primary at LSN %d, want %d (the unsynced batch lost)", got, lsn-1)
	}
	needBase, err := c.node.attach(c.p, 2)
	if err != nil {
		return nil, err
	}
	if !needBase {
		c.violate("the follower resumed onto a logged tail (LSN %d) above the new epoch's seal %d", lsn, lsn-1)
	}
	// The new epoch reuses the batch's LSN for a different write.
	if err := c.pri.Exec("O1!SetVal(7)"); err != nil {
		return nil, err
	}
	if !awaitLSN(c.node.db, c.pri.ReplLSN(), failoverConverge) {
		c.violate("follower stuck at LSN %d, restarted primary at %d", c.node.db.ReplLSN(), c.pri.ReplLSN())
	}
	c.node.detach(c.p)
	want, err := captureReplState(c.pri)
	if err != nil {
		return nil, err
	}
	got, err := captureReplState(c.node.db)
	if err != nil {
		return nil, err
	}
	if d := diffReplStates("restarted primary vs follower", want, got); d != "" {
		c.violate("%s", d)
	}
	c.expectHidden(c.node, "after the re-seed")
	return c.errs, nil
}

// MarkCellFollowerCrash runs cell (ii).
func MarkCellFollowerCrash() ([]string, error) {
	c, err := newMarkCluster()
	if err != nil {
		return nil, err
	}
	defer func() { c.close() }()
	lsn, err := c.writeAcked()
	if err != nil {
		return nil, err
	}
	// Resume: the primary re-ships the batch (with its occurrences) and
	// the mark that covers it.
	if _, err := c.node.attach(c.p, 2); err != nil {
		return nil, err
	}
	if !awaitLSN(c.node.db, lsn, failoverConverge) {
		c.violate("follower stuck at LSN %d after the resume, want %d", c.node.db.ReplLSN(), lsn)
	}
	c.node.detach(c.p)
	c.expectExposed(c.node, "after the resume", true)
	return c.errs, nil
}

// MarkCellPromote runs cell (iii); inDoubt selects the in-doubt batch.
func MarkCellPromote(inDoubt bool) ([]string, error) {
	c, err := newMarkCluster()
	if err != nil {
		return nil, err
	}
	defer func() { c.close() }()
	if inDoubt {
		if _, err := c.writeInDoubt(); err != nil {
			return nil, err
		}
		c.expectHidden(c.node, "after the failed fsync")
	} else if _, err := c.writeAcked(); err != nil {
		return nil, err
	}
	p2, err := c.promote()
	if err != nil {
		return nil, err
	}
	c.p, c.pri = p2, c.node.db
	c.expectExposed(c.node, "after the promotion", inDoubt)
	return c.errs, nil
}

// markPoolPages is the follower's buffer pool in MarkCrashSweep, the
// pool's minimum: with markPadSteps' objects spread over twice as many
// pages, exposing a batch writes heap pages back between fsyncs.
const markPoolPages = 4

// markPadSteps is MarkCrashSweep's schedule: padded objects spread over
// several heap pages, then transactions that each set one to three of them.
func markPadSteps(seed int64, n int) []replStep {
	const objs = 32
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("class Pad reactive persistent {\n\tattr body string\n\tattr v int\n\tevent end method Set(x int) { self.v := x }\n}\n")
	for i := 0; i < objs; i++ {
		fmt.Fprintf(&sb, "bind P%d new Pad(body: %q, v: 0)\n", i, strings.Repeat("x", 1500))
	}
	steps := []replStep{{script: sb.String()}}
	for i := 0; i < n; i++ {
		sb.Reset()
		for j := 0; j <= rng.Intn(3); j++ {
			fmt.Fprintf(&sb, "P%d!Set(%d) ", rng.Intn(objs), i*10+j)
		}
		steps = append(steps, replStep{script: sb.String()})
	}
	return steps
}

// MarkCrashSweep crash-models a follower fed the stream a primary sends
// under the durable mark: each batch carries the mark before it and a bare
// mark covering it follows. The follower's buffer pool is tiny, so exposure
// writes images back before the next fsync. Every power cut, in every crash
// mode, must reopen at a consistent prefix (the oracle state of its applied
// LSN) no higher than the last mark sent before the cut, must still hold
// every batch whose fsync completed (logged LSN at or above that floor),
// and must converge when the stream resumes.
func MarkCrashSweep(stride int) (*ReplTortureResult, error) {
	if stride < 1 {
		stride = 1
	}
	res := &ReplTortureResult{}
	pri, err := core.Open(core.Options{Dir: "p", VFS: vfs.NewMem(), Output: io.Discard})
	if err != nil {
		return nil, err
	}
	got := captureBatches(pri)
	for i, s := range markPadSteps(replTortureSeed, 14) {
		if err := runReplStep(pri, s); err != nil {
			pri.Close()
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	var batches []core.ReplBatch // self-marked: the captured stream is sequential
	for _, b := range *got {
		if b.LSN != 0 {
			batches = append(batches, b)
		}
	}
	pri.Close()

	openReplica := func(fs vfs.FS) (*core.Database, error) {
		return core.Open(core.Options{Dir: "r", VFS: fs, Replica: true, SyncOnCommit: true,
			PoolPages: markPoolPages, Output: io.Discard})
	}
	ref, err := openReplica(vfs.NewMem())
	if err != nil {
		return nil, err
	}
	oracle := []*replState{mustState(ref)}
	for _, b := range batches {
		if err := ref.ApplyReplicated(b); err != nil {
			ref.Close()
			return nil, fmt.Errorf("oracle apply LSN %d: %w", b.LSN, err)
		}
		oracle = append(oracle, mustState(ref))
	}
	ref.Close()

	// The stream, and what each element leaves behind: the op count at its
	// start (its mark counts as sent from there) and at its end (a data
	// batch is then fsynced).
	type step struct {
		b              core.ReplBatch
		opsFrom, opsTo int
	}
	var stream []step
	for _, b := range batches {
		lagged := b
		lagged.Mark = b.LSN - 1
		stream = append(stream, step{b: lagged}, step{b: core.ReplBatch{Mark: b.LSN}})
	}
	fault := vfs.NewFault()
	rep, err := openReplica(fault)
	if err != nil {
		return nil, err
	}
	for i := range stream {
		stream[i].opsFrom = fault.Ops()
		if err := rep.ApplyReplicated(stream[i].b); err != nil {
			rep.CloseAbrupt()
			return nil, fmt.Errorf("fault apply: %w", err)
		}
		stream[i].opsTo = fault.Ops()
	}
	rep.CloseAbrupt()

	type cached struct {
		applied, logged uint64
		errs            []string
	}
	seen := make(map[uint32]cached)
	for _, mode := range vfs.Modes {
		for k := 0; k <= fault.Ops(); k += stride {
			res.CrashStates++
			var markSent, floor uint64
			for _, s := range stream {
				if s.opsFrom < k {
					markSent = max(markSent, s.b.Mark)
				}
				if s.opsTo <= k && s.b.LSN != 0 {
					floor = s.b.LSN
				}
			}
			st := fault.CrashState(k, mode)
			h := stateHash(st)
			c, ok := seen[h]
			if !ok {
				res.Reopens++
				c = func() (c cached) {
					mem := vfs.NewMem()
					mem.Install(st)
					db, err := openReplica(mem)
					if err != nil {
						c.errs = append(c.errs, fmt.Sprintf("reopen: %v", err))
						return c
					}
					defer db.CloseAbrupt()
					c.applied, c.logged = db.ReplLSN(), db.ReplLogged()
					if c.applied >= uint64(len(oracle)) {
						c.errs = append(c.errs, fmt.Sprintf("applied LSN %d beyond the stream", c.applied))
						return c
					}
					if d := diffReplStates(fmt.Sprintf("applied LSN %d", c.applied), oracle[c.applied], mustState(db)); d != "" {
						c.errs = append(c.errs, d)
						return c
					}
					c.errs = append(c.errs, applyAndCheck(db, batches, int(c.applied), oracle, fmt.Sprintf("applied LSN %d", c.applied))...)
					return c
				}()
				seen[h] = c
			}
			label := fmt.Sprintf("follower cut %d/%d, %v", k, fault.Ops(), mode)
			for _, e := range c.errs {
				res.Violations = append(res.Violations, label+": "+e)
			}
			if c.applied > markSent {
				res.Violations = append(res.Violations, fmt.Sprintf("%s: applied LSN %d above the last mark sent, %d", label, c.applied, markSent))
			}
			if c.logged < floor {
				res.Violations = append(res.Violations, fmt.Sprintf("%s: logged LSN %d below the fsync floor %d", label, c.logged, floor))
			}
		}
	}
	return res, nil
}
