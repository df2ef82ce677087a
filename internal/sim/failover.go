package sim

// Failover harness: a cluster-in-process — one primary on the fault VFS,
// N followers behind fault-injecting pipes — driven through primary loss
// and follower promotion, with the invariants checked against reference
// replays and cross-node trace comparison:
//
//	(a) durability: every quorum-acked commit survives the promotion (the
//	    promoted follower's applied LSN covers the highest acked LSN, and
//	    the promoted history byte-matches a reference replay of exactly
//	    the surviving transactions);
//	(b) convergence: once the dust settles, every surviving node's
//	    committed heap is byte-identical to the new primary's;
//	(c) traces: per-subscriber push traces never diverge beyond the
//	    documented windows — a node that was base-synced past a gap
//	    misses that gap's deliveries (its trace is a prefix+suffix of the
//	    promoted node's), and the deposed primary's trace agrees with the
//	    promoted node's on their shared history;
//	(d) fencing: once the new epoch exists, the deposed primary can never
//	    get another write acknowledged (ErrFenced), and a deposed primary
//	    rejoining with unacked commits past the seal is re-seeded, never
//	    resumed.
//
// The pipes replace TCP but keep its failure modes: Send blocks (follower
// pacing), a cut pipe fails sends exactly like a dead connection, and the
// delay fault stalls the apply side. The primary's storage runs on the
// fault VFS so the kill fault can crash-enumerate it mid-history in every
// crash mode — the crashed image later rejoins as a follower and must be
// handled by the epoch rules.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/repl"
	"sentinel/internal/vfs"
	"sentinel/internal/wire"
)

// FailoverFault enumerates how the primary is lost.
type FailoverFault int

const (
	// FaultKill crashes the primary's filesystem at a random operation
	// count (in the scenario's crash mode) and kills the process.
	FaultKill FailoverFault = iota
	// FaultPartition cuts every follower pipe; the primary lives on,
	// degrading to async, and must be fenceable after the promotion.
	FaultPartition
	// FaultDelay injects per-frame apply delays for the whole run, then
	// kills the primary as FaultKill does.
	FaultDelay
)

// FailoverFaults lists every fault kind, for sweeps.
var FailoverFaults = []FailoverFault{FaultKill, FaultPartition, FaultDelay}

func (f FailoverFault) String() string {
	switch f {
	case FaultKill:
		return "kill"
	case FaultPartition:
		return "partition"
	case FaultDelay:
		return "delay"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// failoverQuorumTimeout bounds each quorum wait in the harness: long
// enough that a healthy follower always acks in time, short enough that
// the partition scenario's degraded commits don't dominate the sweep.
const failoverQuorumTimeout = 150 * time.Millisecond

// failoverConverge bounds how long the harness waits for followers to
// drain after the final transaction.
const failoverConverge = 10 * time.Second

// pipeFrame is one replication push in flight on a pipe.
type pipeFrame struct {
	op      byte
	payload []byte
}

// pipeSession implements repl.FollowerSession over a channel: the
// in-process stand-in for a follower's TCP session. cut makes every send
// fail exactly like a dead connection (the shipper then drops the
// follower, as it would on a broken socket).
type pipeSession struct {
	id     uint64
	frames chan pipeFrame
	closed chan struct{}
	once   sync.Once
	cut    atomic.Bool
	// withhold, when set, cuts the mark of every replication frame down to
	// heldMark: the follower keeps logging (and acking) batches but learns
	// of no durable mark past heldMark — a mark still in flight.
	withhold atomic.Bool
	heldMark atomic.Uint64
}

func newPipeSession(id uint64) *pipeSession {
	return &pipeSession{id: id, frames: make(chan pipeFrame, 256), closed: make(chan struct{})}
}

func (s *pipeSession) SessionID() uint64 { return s.id }

func (s *pipeSession) Send(op byte, payload []byte, cancel <-chan struct{}) bool {
	if s.cut.Load() {
		return false
	}
	payload = s.holdMark(op, payload)
	select {
	case s.frames <- pipeFrame{op: op, payload: payload}:
		return true
	case <-s.closed:
		return false
	case <-cancel:
		return false
	}
}

func (s *pipeSession) TrySend(op byte, payload []byte) bool {
	if s.cut.Load() {
		return false
	}
	payload = s.holdMark(op, payload)
	select {
	case s.frames <- pipeFrame{op: op, payload: payload}:
		return true
	case <-s.closed:
		return false
	default:
		return false
	}
}

func (s *pipeSession) close() { s.once.Do(func() { close(s.closed) }) }

// holdMark re-encodes a replication frame with its mark cut to heldMark
// while withhold is set.
func (s *pipeSession) holdMark(op byte, payload []byte) []byte {
	if op != wire.OpReplFrames || !s.withhold.Load() {
		return payload
	}
	wb, err := wire.DecodeReplBatch(payload)
	if err != nil || wb.Mark <= s.heldMark.Load() {
		return payload
	}
	wb.Mark = s.heldMark.Load()
	return wire.AppendReplBatch(nil, wb)
}

// failNode is one follower of the in-process cluster: a replica database
// on its own memory filesystem, an apply goroutine draining its pipe, and
// a push-trace sink.
type failNode struct {
	name string
	dir  string
	fs   vfs.FS
	db   *core.Database
	sink *traceSink

	sess     *pipeSession
	wg       sync.WaitGroup
	delayMax time.Duration
	rngSeed  int64
}

// attach handshakes the node into p from its current (applied, logged,
// epoch) position and starts the apply goroutine, mirroring internal/repl's
// follower stream: epoch adoption on resume, epoch-before-install on base
// sync, an ack after every logged batch. Returns whether the primary
// demanded a base sync.
func (n *failNode) attach(p *repl.Primary, sessID uint64) (needBase bool, err error) {
	sess := newPipeSession(sessID)
	primaryEpoch, _, needBase, err := p.AddFollower(sess, n.db.ReplLSN(), n.db.ReplLogged(), n.db.ReplEpoch())
	if err != nil {
		return false, err
	}
	if !needBase && n.db.ReplEpoch() != primaryEpoch {
		n.db.SetReplEpoch(primaryEpoch)
		_ = n.db.Checkpoint()
	}
	n.sess = sess
	n.wg.Add(1)
	go n.applyLoop(p, sess, primaryEpoch, needBase)
	p.StartShipper(sessID)
	return needBase, nil
}

// applyLoop drains the pipe: base chunks accumulate until the snap-end
// installs them (epoch first, so the new position persists atomically
// with the installed state), frames go through ApplyReplicated in order, and
// each logged batch acks back to the primary — the quorum-commit signal.
func (n *failNode) applyLoop(p *repl.Primary, sess *pipeSession, primaryEpoch uint64, syncing bool) {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(n.rngSeed))
	var base []core.ReplBaseObject
	for {
		select {
		case <-sess.closed:
			return
		case m := <-sess.frames:
			if n.delayMax > 0 {
				time.Sleep(time.Duration(rng.Int63n(int64(n.delayMax))))
			}
			switch m.op {
			case wire.OpReplSnap:
				objs, err := wire.DecodeReplSnap(m.payload)
				if err != nil {
					return
				}
				for _, o := range objs {
					base = append(base, core.ReplBaseObject{ID: o.ID, Img: o.Img})
				}
			case wire.OpReplSnapEnd:
				baseLSN, err := wire.DecodeReplSnapEnd(m.payload)
				if err != nil {
					return
				}
				n.db.SetReplEpoch(primaryEpoch)
				if err := n.db.ApplyBaseState(baseLSN, base); err != nil {
					n.db.SetReplEpoch(0)
					return
				}
				base = nil
				syncing = false
				p.Ack(sess.id, n.db.ReplLogged(), n.db.ReplEpoch())
			case wire.OpReplFrames:
				if syncing {
					continue // covered by the in-flight base state
				}
				wb, err := wire.DecodeReplBatch(m.payload)
				if err != nil {
					return
				}
				b := repl.BatchFromWire(wb)
				if err := n.db.ApplyReplicated(b); err != nil {
					return
				}
				if b.LSN != 0 {
					p.Ack(sess.id, n.db.ReplLogged(), n.db.ReplEpoch())
				}
			}
		}
	}
}

// detach tears the node's stream down: deregister from the primary (stops
// the shipper), close the pipe, wait the apply goroutine out. After
// detach the node's applied LSN is final.
func (n *failNode) detach(p *repl.Primary) {
	if n.sess == nil {
		return
	}
	p.RemoveFollower(n.sess.id)
	n.sess.close()
	n.wg.Wait()
	n.sess = nil
}

// promote turns the node into a primary, the harness twin of
// repl.Follower.Promote: expose the logged tail, close (the final checkpoint
// persists the exact (epoch, LSN) position), reopen writable with quorum
// commit on, start a Primary (which bumps the epoch past the old one and
// records the seal).
func (n *failNode) promote() (*repl.Primary, error) {
	if err := n.db.ApplyReplicated(core.ReplBatch{Mark: n.db.ReplLogged()}); err != nil {
		return nil, fmt.Errorf("promote expose: %w", err)
	}
	if err := n.db.Close(); err != nil {
		return nil, fmt.Errorf("promote close: %w", err)
	}
	db, err := core.Open(core.Options{
		Dir: n.dir, VFS: n.fs, SyncOnCommit: true, Output: io.Discard,
		SyncReplicas: 1, QuorumTimeout: failoverQuorumTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("promote reopen: %w", err)
	}
	n.db = db
	return repl.NewPrimary(db, repl.PrimaryOptions{}), nil
}

// FailoverResult summarizes one failover scenario.
type FailoverResult struct {
	Seed  int64
	Fault FailoverFault
	Mode  vfs.CrashMode

	Steps       int    // transactions committed across both epochs
	FaultAt     int    // step index at which the primary was lost
	PromotedLSN uint64 // promoted follower's logged LSN at takeover
	MaxAckedLSN uint64 // highest quorum-acked LSN under the old epoch
	Degraded    uint64 // commits that timed out and degraded to async
	Violations  []string
}

// FailoverScenario runs one seeded failover: primary + 2 followers under
// quorum commit (K=1), fault injection at a seed-random step, promotion
// of the most-advanced survivor, re-handshake of the rest, a post-fault
// workload on the new primary, and the full invariant check.
func FailoverScenario(seed int64, fault FailoverFault, mode vfs.CrashMode) (*FailoverResult, error) {
	res := &FailoverResult{Seed: seed, Fault: fault, Mode: mode}
	rng := rand.New(rand.NewSource(seed ^ 0xfa110))
	steps := genReplSteps(seed, 14+int(seed%7))
	specs := genSubSpecs(rng)
	post := genFailoverPostSteps(rng, 4+rng.Intn(5))
	res.FaultAt = 2 + rng.Intn(len(steps)-2) // after the schema, before the end

	var delayMax time.Duration
	if fault == FaultDelay {
		delayMax = 3 * time.Millisecond
	}

	// Old primary on the fault VFS (crash-enumerable), quorum commit K=1.
	faultFS := vfs.NewFault()
	pri, err := core.Open(core.Options{
		Dir: "p", VFS: faultFS, SyncOnCommit: true, Output: io.Discard,
		SyncReplicas: 1, QuorumTimeout: failoverQuorumTimeout,
	})
	if err != nil {
		return nil, err
	}
	p := repl.NewPrimary(pri, repl.PrimaryOptions{})
	oldEpoch := p.Epoch()

	// Two followers, attached before the first commit so the quorum has
	// someone to ask from LSN 1 on.
	nodes := make([]*failNode, 2)
	for i := range nodes {
		fs := vfs.NewMem()
		db, err := openSimReplica(fs)
		if err != nil {
			return nil, err
		}
		nodes[i] = &failNode{
			name: fmt.Sprintf("follower%d", i), dir: "r", fs: fs, db: db,
			sink: newTraceSink(), delayMax: delayMax, rngSeed: seed + int64(i)*7919,
		}
		if _, err := nodes[i].attach(p, uint64(i+1)); err != nil {
			return nil, fmt.Errorf("attach %s: %w", nodes[i].name, err)
		}
	}
	priSink := newTraceSink()

	// Schema first, then subscribers everywhere, so every sink observes
	// exactly the post-setup stream.
	degraded := func() uint64 { return pri.Stats().Replication.QuorumDegraded }
	ackedOld := uint64(0)
	runOld := func(s replStep) error {
		before := degraded()
		if err := runReplStep(pri, s); err != nil {
			return err
		}
		res.Steps++
		if degraded() == before {
			if lsn := pri.ReplLSN(); lsn > ackedOld {
				ackedOld = lsn
			}
		}
		return nil
	}
	if err := runOld(steps[0]); err != nil {
		return nil, fmt.Errorf("seed %d schema: %w", seed, err)
	}
	for _, n := range nodes {
		if !awaitLSN(n.db, 1, failoverConverge) {
			return nil, fmt.Errorf("%s never applied the schema", n.name)
		}
		if err := subscribeSpecs(n.db, n.sink, specs); err != nil {
			return nil, err
		}
	}
	if err := subscribeSpecs(pri, priSink, specs); err != nil {
		return nil, err
	}

	// Old-epoch workload up to the fault point.
	for i, s := range steps[1:res.FaultAt] {
		if err := runOld(s); err != nil {
			return nil, fmt.Errorf("seed %d step %d: %w", seed, i+1, err)
		}
	}

	// Inject the fault.
	var priCrash map[string][]byte
	switch fault {
	case FaultPartition:
		for _, n := range nodes {
			n.sess.cut.Store(true)
		}
		// The partitioned primary keeps committing: these degrade (timeout,
		// counted, locally durable) and die with the old epoch — the
		// documented lost-unacked window, so they are deliberately NOT in
		// the reference replay below.
		before := degraded()
		if err := pri.Exec("O0!SetVal(777777)"); err != nil {
			return nil, fmt.Errorf("partitioned commit: %w", err)
		}
		if degraded() != before+1 {
			res.Violations = append(res.Violations,
				"partitioned commit did not degrade: it cannot have been acked by a cut follower")
		}
	case FaultKill, FaultDelay:
		// Crash the primary's filesystem at a random journal point in the
		// scenario's crash mode; the image rejoins as a follower later.
		priCrash = faultFS.CrashState(rng.Intn(faultFS.Ops()+1), mode)
	}

	// The primary is gone (or unreachable): seal every pipe and pick the
	// most-advanced survivor.
	for _, n := range nodes {
		n.detach(p)
	}
	p.Close()
	if fault != FaultPartition {
		pri.CloseAbrupt()
	}

	tgt, other := nodes[0], nodes[1]
	if other.db.ReplLogged() > tgt.db.ReplLogged() {
		tgt, other = other, tgt
	}
	res.PromotedLSN = tgt.db.ReplLogged()
	res.MaxAckedLSN = ackedOld

	// Invariant (a), first half: the promoted follower covers every
	// quorum-acked commit. K=1 acks mean "some follower applied it", and
	// promotion picks the max — so a hole here is a real durability bug.
	if ackedOld > res.PromotedLSN {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"durability: max quorum-acked LSN %d exceeds promoted follower's applied LSN %d", ackedOld, res.PromotedLSN))
	}

	promotedAtTakeover := tgt.sink.snapshotDeduped()
	p2, err := tgt.promote()
	if err != nil {
		return nil, err
	}
	db2 := tgt.db
	if p2.Epoch() <= oldEpoch {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"promotion did not advance the epoch: %d -> %d", oldEpoch, p2.Epoch()))
	}
	if err := subscribeSpecs(db2, tgt.sink, specs); err != nil {
		return nil, err
	}

	// Surviving follower re-handshakes into the new primary. At the seal
	// it resumes; behind it, the empty ring forces a base re-seed — both
	// legal, both converge.
	tgt.sess = nil
	if _, err := other.attach(p2, 10); err != nil {
		return nil, fmt.Errorf("re-attach %s: %w", other.name, err)
	}

	// Invariant (d): the deposed primary can never get another write acked.
	if fault == FaultPartition {
		if !p.FenceIfNewer(p2.Epoch()) {
			res.Violations = append(res.Violations, "FenceIfNewer(newer epoch) did not fence the deposed primary")
		}
		preLSN := pri.ReplLSN()
		err := pri.Exec("O0!SetVal(888888)")
		if !errors.Is(err, core.ErrFenced) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"fenced primary accepted a write (err=%v)", err))
		}
		if pri.ReplLSN() != preLSN {
			res.Violations = append(res.Violations, "fenced primary advanced its LSN")
		}
		pri.Close()
	}

	// New-epoch workload.
	for i, s := range post {
		before := db2.Stats().Replication.QuorumDegraded
		if err := runReplStep(db2, s); err != nil {
			return nil, fmt.Errorf("seed %d post step %d: %w", seed, i, err)
		}
		res.Steps++
		_ = before
	}

	// The deposed primary's crash image rejoins as a follower (kill and
	// delay faults). With unacked commits past the seal it MUST be told to
	// re-seed — resuming would graft a divergent suffix into the new epoch.
	var demoted *failNode
	if priCrash != nil {
		fs := vfs.NewMem()
		fs.Install(priCrash)
		db, err := core.Open(core.Options{Dir: "p", VFS: fs, Replica: true, SyncOnCommit: true, Output: io.Discard})
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"deposed primary's crash image (%v) failed to reopen as a replica: %v", mode, err))
		} else {
			demoted = &failNode{name: "demoted", dir: "p", fs: fs, db: db, sink: newTraceSink()}
			rejoinLSN := db.ReplLSN()
			needBase, err := demoted.attach(p2, 11)
			if err != nil {
				res.Violations = append(res.Violations, fmt.Sprintf("deposed primary rejoin: %v", err))
				demoted.db.CloseAbrupt()
				demoted = nil
			} else if rejoinLSN > res.PromotedLSN && !needBase {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"deposed primary resumed at LSN %d past the seal %d without a base re-seed", rejoinLSN, res.PromotedLSN))
			}
		}
	}

	// Convergence: every surviving node drains to the new primary's LSN,
	// then heaps must be byte-identical (invariant b).
	finalLSN := db2.ReplLSN()
	check := []*failNode{other}
	if demoted != nil {
		check = append(check, demoted)
	}
	for _, n := range check {
		if !awaitLSN(n.db, finalLSN, failoverConverge) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"%s stuck at LSN %d, new primary at %d", n.name, n.db.ReplLSN(), finalLSN))
		}
	}
	for _, n := range check {
		n.detach(p2)
	}
	want, err := captureReplState(db2)
	if err != nil {
		return nil, err
	}
	for _, n := range check {
		got, err := captureReplState(n.db)
		if err != nil {
			return nil, err
		}
		if d := diffReplStates("promoted vs "+n.name, want, got); d != "" {
			res.Violations = append(res.Violations, d)
		}
	}

	// Invariant (a), second half — the reference replay: a fresh database
	// executing exactly the surviving transactions (the applied old-epoch
	// prefix, then the post-fault workload) must reproduce the promoted
	// history byte for byte. Lost-unacked old-epoch commits are excluded:
	// that is the semantics being asserted.
	refSteps := append(append([]replStep{}, steps[:res.PromotedLSN]...), post...)
	if d, err := failoverReference(refSteps, want); err != nil {
		return nil, err
	} else if d != "" {
		res.Violations = append(res.Violations, "reference replay: "+d)
	}

	// Invariant (c): per-subscriber traces. The survivor's deduped trace
	// must be a prefix+suffix of the promoted node's (the gap, if any, is
	// exactly the window a base re-seed documents away); the deposed
	// primary's trace must agree with the promoted node's on the history
	// they shared.
	promoted := tgt.sink.snapshotDeduped()
	survivor := other.sink.snapshotDeduped()
	priTrace := priSink.snapshotDeduped()
	for i := range specs {
		label := fmt.Sprintf("sub%d", i)
		if !prefixPlusSuffix(survivor[label], promoted[label]) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"%s: survivor trace (%d lines) is not a prefix+suffix of the promoted trace (%d lines)",
				label, len(survivor[label]), len(promoted[label])))
		}
		shared := promotedAtTakeover[label]
		if len(priTrace[label]) < len(shared) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"%s: old primary delivered %d pushes, promoted follower applied %d on the shared history",
				label, len(priTrace[label]), len(shared)))
		} else {
			for k, line := range shared {
				if priTrace[label][k] != line {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"%s: shared-history push %d diverged:\n  old primary: %s\n  promoted:    %s",
						label, k, priTrace[label][k], line))
					break
				}
			}
		}
	}

	p2.Close()
	db2.Close()
	other.db.Close()
	if demoted != nil {
		demoted.db.Close()
	}
	return res, nil
}

// genFailoverPostSteps generates the new-epoch workload: sends on the
// fixed objects plus binds/deletes of fresh names (P*, disjoint from
// genReplSteps' N* extras, so a lost old-epoch bind can never leave a
// post-fault step dangling).
func genFailoverPostSteps(rng *rand.Rand, n int) []replStep {
	var steps []replStep
	var extras []string
	next := 0
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 7:
			steps = append(steps, replStep{script: fmt.Sprintf("O%d!SetVal(%d)", rng.Intn(3), 100000+i)})
		case r < 9:
			name := fmt.Sprintf("P%d", next)
			next++
			steps = append(steps, replStep{script: fmt.Sprintf("bind %s new Item(val: %d)", name, i)})
			extras = append(extras, name)
		default:
			if len(extras) == 0 {
				steps = append(steps, replStep{script: "O1!SetVal(424242)"})
				break
			}
			name := extras[len(extras)-1]
			extras = extras[:len(extras)-1]
			steps = append(steps, replStep{deleteName: name})
		}
	}
	return steps
}

// failoverReference replays steps on a fresh database and diffs its
// committed heap against want. The nop ship hook turns LSN accounting on
// so the reference numbers its history like the cluster did.
func failoverReference(steps []replStep, want *replState) (string, error) {
	ref, err := core.Open(core.Options{Dir: "ref", VFS: vfs.NewMem(), Output: io.Discard})
	if err != nil {
		return "", err
	}
	defer ref.Close()
	ref.SetReplicator(core.Replicator{Ship: func(core.ReplBatch) {}})
	for i, s := range steps {
		if err := runReplStep(ref, s); err != nil {
			return "", fmt.Errorf("reference step %d: %w", i, err)
		}
	}
	got, err := captureReplState(ref)
	if err != nil {
		return "", err
	}
	return diffReplStates("reference vs promoted", got, want), nil
}

// awaitLSN polls db's applied LSN until it reaches want.
func awaitLSN(db *core.Database, want uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if db.ReplLSN() >= want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotDeduped copies the sink's per-label traces with at-least-once
// duplicates removed. A duplicate is a byte-identical line: occurrence
// sequence numbers make every distinct delivery distinct (fanoutReplicated
// advances the replica clock precisely so promotions cannot reuse them),
// so line identity IS Seq identity.
func (s *traceSink) snapshotDeduped() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]string, len(s.lines))
	for label, lines := range s.lines {
		seen := make(map[string]bool, len(lines))
		keep := make([]string, 0, len(lines))
		for _, l := range lines {
			if !seen[l] {
				seen[l] = true
				keep = append(keep, l)
			}
		}
		out[label] = keep
	}
	return out
}

// prefixPlusSuffix reports whether sub is exactly a prefix of full
// followed by a suffix of full — i.e. full with one contiguous gap cut
// out (possibly empty: equality counts). This is the only divergence a
// base re-seed may introduce into a follower's delivery trace.
func prefixPlusSuffix(sub, full []string) bool {
	if len(sub) > len(full) {
		return false
	}
	a := 0
	for a < len(sub) && sub[a] == full[a] {
		a++
	}
	b := 0
	for b < len(sub)-a && sub[len(sub)-1-b] == full[len(full)-1-b] {
		b++
	}
	return a+b >= len(sub)
}

// FailoverSweepResult aggregates a failover sweep.
type FailoverSweepResult struct {
	Scenarios  int
	Steps      int
	Violations []string
}

// FailoverSweep enumerates seeds × fault kinds × crash modes (the
// partition fault has no crash state, so it runs once per seed) and runs
// every stride-th cell. stride 1 is the full matrix (the torture target);
// tests stride it down to stay inside the normal budget.
func FailoverSweep(seeds, stride int) (*FailoverSweepResult, error) {
	if stride < 1 {
		stride = 1
	}
	res := &FailoverSweepResult{}
	cell := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, fault := range FailoverFaults {
			modes := vfs.Modes
			if fault == FaultPartition {
				modes = vfs.Modes[:1]
			}
			for _, mode := range modes {
				if cell++; (cell-1)%stride != 0 {
					continue
				}
				r, err := FailoverScenario(seed, fault, mode)
				if err != nil {
					return nil, fmt.Errorf("seed %d %v/%v: %w", seed, fault, mode, err)
				}
				res.Scenarios++
				res.Steps += r.Steps
				for _, v := range r.Violations {
					res.Violations = append(res.Violations,
						fmt.Sprintf("seed %d %v/%v: %s", seed, fault, mode, v))
				}
			}
		}
	}
	return res, nil
}
