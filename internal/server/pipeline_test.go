package server_test

// The pipelined session: an EXEC's durability wait and, with SyncReplicas=1,
// its quorum wait park (core.Pending) and the reader moves on. These tests
// hold the quorum in their hand — a fake follower attached over the wire
// acks only when told — and read the session's frames raw, so the wire order
// is what they check.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/repl"
	"sentinel/internal/rule"
	"sentinel/internal/server"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
	"sentinel/internal/wire"
)

const quorumSchema = `class Item reactive persistent {
	attr val int
	event end method SetVal(v int) { self.val := v }
}
bind A new Item(val: 0)`

// quorumCluster is a persistent SyncReplicas=1 primary behind a server, with
// one fake follower that never acks on its own.
type quorumCluster struct {
	db  *core.Database
	pri *repl.Primary
	srv *server.Server
	fol *client.Client
}

// startQuorum builds the cluster; setup, when set, runs against the database
// before the primary attaches (so its commits wait for no quorum).
func startQuorum(t *testing.T, mutate func(*core.Options), setup func(*core.Database)) *quorumCluster {
	t.Helper()
	opts := core.Options{Dir: "db", VFS: vfs.NewMem(), Output: io.Discard,
		SyncReplicas: 1, QuorumTimeout: time.Minute}
	if mutate != nil {
		mutate(&opts)
	}
	db := core.MustOpen(opts)
	if err := db.Exec(quorumSchema); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(db)
	}
	c := &quorumCluster{db: db, pri: repl.NewPrimary(db, repl.PrimaryOptions{})}
	var err error
	if c.srv, err = server.New(db, server.Options{Addr: "127.0.0.1:0", Primary: c.pri}); err != nil {
		t.Fatal(err)
	}
	// Closing the primary first fails any still-parked quorum wait, so the
	// server's completers can finish.
	t.Cleanup(func() {
		if c.fol != nil {
			c.fol.Close()
		}
		c.pri.Close()
		c.srv.Close()
		db.Close()
	})
	if c.fol, err = client.Dial(context.Background(), c.srv.Addr()); err != nil {
		t.Fatal(err)
	}
	c.fol.OnPush(func(byte, []byte) {})
	if _, _, needBase, err := c.fol.ReplHello(context.Background(), db.ReplLSN(), c.pri.Epoch()); err != nil || needBase {
		t.Fatalf("fake follower hello: needBase=%v err=%v", needBase, err)
	}
	// Its session reads the ack only after the hello is fully handled — the
	// shipper goroutine started — so goroutine counts taken now are stable.
	c.ack(t, db.ReplLSN())
	return c
}

// ack releases every quorum waiter at or below lsn.
func (c *quorumCluster) ack(t *testing.T, lsn uint64) {
	t.Helper()
	if err := c.fol.ReplAck(context.Background(), lsn, c.pri.Epoch()); err != nil {
		t.Fatal(err)
	}
}

// waitLSN blocks until the primary logged and shipped batch lsn: the head of
// the commit that produced it has run.
func (c *quorumCluster) waitLSN(t *testing.T, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.db.ReplLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("primary stuck at LSN %d, want %d", c.db.ReplLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}

// send writes one request frame without waiting for anything.
func (r *rawSession) send(t *testing.T, op byte, payload []byte) uint32 {
	t.Helper()
	r.req++
	if _, err := r.conn.Write(wire.AppendFrame(nil, wire.Frame{Op: op, ReqID: r.req, Payload: payload})); err != nil {
		t.Fatal(err)
	}
	return r.req
}

func (r *rawSession) exec(t *testing.T, src string) uint32 {
	t.Helper()
	return r.send(t, wire.OpExec, wire.AppendValues(nil, value.Str(src)))
}

func (r *rawSession) subscribe(t *testing.T, id oid.OID) uint32 {
	t.Helper()
	return r.send(t, wire.OpSubscribe, wire.AppendValues(nil, value.Ref(id), value.Str("SetVal"), value.Int(wire.MomentAny)))
}

// next reads the session's next frame.
func (r *rawSession) next(t *testing.T) wire.Frame {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer r.conn.SetReadDeadline(time.Time{})
	f, _, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// silent asserts that nothing arrives for a while.
func (r *rawSession) silent(t *testing.T, what string) {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	defer r.conn.SetReadDeadline(time.Time{})
	if _, err := r.br.Peek(1); err == nil {
		t.Fatalf("a frame arrived %s", what)
	}
}

// expectPush reads the next frame and checks it is the SetVal(v) push.
func (r *rawSession) expectPush(t *testing.T, v int64) {
	t.Helper()
	f := r.next(t)
	if f.Op != wire.OpEvent {
		t.Fatalf("got %s (req %d), want the push of SetVal(%d)", wire.OpName(f.Op), f.ReqID, v)
	}
	ev, err := wire.DecodeEvent(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ev.Args[0].AsInt(); got != v {
		t.Fatalf("push of SetVal(%d), want SetVal(%d)", got, v)
	}
}

// expectResp reads the next frame and checks it answers req with op.
func (r *rawSession) expectResp(t *testing.T, req uint32, op byte) {
	t.Helper()
	f := r.next(t)
	if f.Op != op || f.ReqID != req {
		t.Fatalf("got %s for req %d, want %s for req %d", wire.OpName(f.Op), f.ReqID, wire.OpName(op), req)
	}
}

func lookupA(t *testing.T, r *rawSession) oid.OID {
	t.Helper()
	return refFromResult(t, r.roundTrip(t, wire.OpLookup, wire.AppendValues(nil, value.Str("A"))))
}

// TestPipelinedExecsParkTheirQuorumWait: N pipelined EXECs all commit —
// another connection's snapshot sees the last one — before any follower
// ack; nothing is answered until the ack; and an ack releases exactly the
// commits it covers, each push ahead of its response, in request order.
func TestPipelinedExecsParkTheirQuorumWait(t *testing.T) {
	c := startQuorum(t, nil, nil)
	r := rawDial(t, c.srv)
	id := lookupA(t, r)
	r.expectResp(t, r.subscribe(t, id), wire.OpSubOK)
	lsn0 := c.db.ReplLSN()
	const n = 6
	reqs := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		reqs[i] = r.exec(t, fmt.Sprintf("A!SetVal(%d)", i))
	}
	c.waitLSN(t, lsn0+n)
	other := dial(t, c.srv)
	if v, err := other.Get(context.Background(), id, "val"); err != nil || v.String() != fmt.Sprint(n) {
		t.Fatalf("another connection reads val = %v (%v), want %d before any ack", v, err, n)
	}
	r.silent(t, "before any ack")

	c.ack(t, lsn0+2)
	for i := 1; i <= 2; i++ {
		r.expectPush(t, int64(i))
		r.expectResp(t, reqs[i], wire.OpOK)
	}
	r.silent(t, "for commits the ack did not cover")

	c.ack(t, lsn0+n)
	for i := 3; i <= n; i++ {
		r.expectPush(t, int64(i))
		r.expectResp(t, reqs[i], wire.OpOK)
	}
}

// TestSubscribeBehindParkedTails: a SUBSCRIBE pipelined behind parked tails
// waits them out, so it hears none of their events — only the commit that
// came after it — and the request behind the SUBSCRIBE does not execute
// before it.
func TestSubscribeBehindParkedTails(t *testing.T) {
	c := startQuorum(t, nil, nil)
	r := rawDial(t, c.srv)
	id := lookupA(t, r)
	lsn0 := c.db.ReplLSN()
	const n = 3
	reqs := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		reqs[i] = r.exec(t, fmt.Sprintf("A!SetVal(%d)", i))
	}
	sub := r.subscribe(t, id)
	last := r.exec(t, "A!SetVal(100)")
	c.waitLSN(t, lsn0+n)
	r.silent(t, "before any ack")
	if got := c.db.ReplLSN(); got != lsn0+n {
		t.Fatalf("the EXEC behind the SUBSCRIBE ran before the parked tails finished (LSN %d)", got)
	}

	c.ack(t, lsn0+n)
	for i := 1; i <= n; i++ {
		r.expectResp(t, reqs[i], wire.OpOK)
	}
	r.expectResp(t, sub, wire.OpSubOK)
	c.waitLSN(t, lsn0+n+1)
	c.ack(t, lsn0+n+1)
	r.expectPush(t, 100)
	r.expectResp(t, last, wire.OpOK)
}

// TestFencedParkedTail: a tail parked in its quorum wait when the primary is
// fenced answers OpErr carrying ErrFenced.
func TestFencedParkedTail(t *testing.T) {
	c := startQuorum(t, nil, nil)
	r := rawDial(t, c.srv)
	lsn0 := c.db.ReplLSN()
	req := r.exec(t, "A!SetVal(1)")
	c.waitLSN(t, lsn0+1)
	if err := dial(t, c.srv).ReplFence(context.Background(), c.pri.Epoch()+1); err != nil {
		t.Fatal(err)
	}
	f := r.next(t)
	if f.Op != wire.OpErr || f.ReqID != req || !strings.Contains(wire.DecodeErr(f.Payload), core.ErrFenced.Error()) {
		t.Fatalf("fenced tail answered %s for req %d: %q", wire.OpName(f.Op), f.ReqID, wire.DecodeErr(f.Payload))
	}
}

// TestTeardownFinishesParkedTails: a session that dies with a tail parked
// still finishes it once the ack comes — reclaim (here: the automatic
// checkpoint) and the detached firing both run — and leaves no goroutine.
func TestTeardownFinishesParkedTails(t *testing.T) {
	var fired atomic.Int64
	c := startQuorum(t, func(o *core.Options) { o.CheckpointBytes = 1 }, func(db *core.Database) {
		if err := db.Atomically(func(tx *core.Tx) error {
			_, err := db.CreateRule(tx, core.RuleSpec{
				Name: "audit", EventSrc: "end Item::SetVal(int v)", Coupling: "detached", ClassLevel: "Item",
				Action: func(rule.ExecContext, event.Detection) error {
					fired.Add(1)
					return nil
				},
			})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
	baseline := runtime.NumGoroutine()
	checkpoints := c.db.Stats().Storage.Checkpoints
	r := rawDial(t, c.srv)
	lsn0 := c.db.ReplLSN()
	r.exec(t, "A!SetVal(1)")
	c.waitLSN(t, lsn0+1)
	if fired.Load() != 0 || c.db.Stats().Storage.Checkpoints != checkpoints {
		t.Fatal("tail stages ran before the quorum ack")
	}
	r.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.srv.Sessions() != 1 { // the fake follower's
		if time.Now().After(deadline) {
			t.Fatalf("session not torn down: %d sessions", c.srv.Sessions())
		}
		time.Sleep(time.Millisecond)
	}

	c.ack(t, lsn0+1)
	for fired.Load() != 1 || c.db.Stats().Storage.Checkpoints == checkpoints {
		if time.Now().After(deadline) {
			t.Fatalf("parked tail never finished: fired=%d checkpoints %d → %d",
				fired.Load(), checkpoints, c.db.Stats().Storage.Checkpoints)
		}
		time.Sleep(time.Millisecond)
	}
	if got := stableGoroutines(5*time.Second, baseline); got > baseline {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}

// TestPipelinedReadSeesOwnWrite: a GET pipelined behind an EXEC whose flush
// is still in progress (a slow fsync, no quorum) waits for that EXEC's tail,
// so the session reads its own write.
func TestPipelinedReadSeesOwnWrite(t *testing.T) {
	c := startQuorum(t, func(o *core.Options) {
		o.VFS = vfs.NewLatency(vfs.NewMem(), 50*time.Millisecond, 0)
		o.SyncOnCommit, o.SyncReplicas, o.QuorumTimeout = true, 0, 0
	}, nil)
	r := rawDial(t, c.srv)
	id := lookupA(t, r)
	exec := r.exec(t, "A!SetVal(7)")
	get := r.send(t, wire.OpGet, wire.AppendValues(nil, value.Ref(id), value.Str("val")))
	r.expectResp(t, exec, wire.OpOK)
	f := r.next(t)
	if f.Op != wire.OpResult || f.ReqID != get {
		t.Fatalf("got %s for req %d, want the GET's result", wire.OpName(f.Op), f.ReqID)
	}
	vals, err := wire.DecodeValues(f.Payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vals[0].AsInt(); v != 7 {
		t.Fatalf("pipelined GET read val = %v, want the session's own 7", vals[0])
	}
}

// TestParkedTailsAcrossAutoCheckpoint: with a checkpoint after every commit,
// 200 EXECs pipelined 4 deep — their quorum acks first withheld, then
// flowing — are all answered OK. The completer's checkpoint awaits the
// batches the reader queued meanwhile and must not wait on those EXECs'
// tails, which only the completer itself would run.
func TestParkedTailsAcrossAutoCheckpoint(t *testing.T) {
	c := startQuorum(t, func(o *core.Options) { o.CheckpointBytes = 1 }, nil)
	r := rawDial(t, c.srv)
	checkpoints := c.db.Stats().Storage.Checkpoints
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		time.Sleep(100 * time.Millisecond) // withheld: the first tails wait in their quorum waits
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if c.fol.ReplAck(context.Background(), c.db.ReplLSN(), c.pri.Epoch()) != nil {
				return
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	const n, depth = 200, 4
	deadline := time.Now().Add(30 * time.Second)
	var window []uint32
	for i := 1; i <= n || len(window) > 0; {
		if i <= n && len(window) < depth {
			window = append(window, r.exec(t, fmt.Sprintf("A!SetVal(%d)", i)))
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d EXECs still unanswered after 30 s", n-i+1+len(window))
		}
		f := r.next(t)
		if f.Op != wire.OpOK || f.ReqID != window[0] {
			t.Fatalf("got %s for req %d (%q), want OK for req %d", wire.OpName(f.Op), f.ReqID, wire.DecodeErr(f.Payload), window[0])
		}
		window = window[1:]
	}
	if c.db.Stats().Storage.Checkpoints == checkpoints {
		t.Fatal("no automatic checkpoint ran")
	}
}

// TestParkedTailsInDoubt: EXECs parked behind a tail in its quorum wait have
// their own batches flushed meanwhile; when that flush's fsync fails, none of
// them — the failed group or anything queued behind it — is answered OK, the
// next EXEC is a clean refusal, and a power cut keeps every commit that was
// answered OK.
func TestParkedTailsInDoubt(t *testing.T) {
	fs := vfs.NewFault()
	c := startQuorum(t, func(o *core.Options) { o.VFS, o.SyncOnCommit = fs, true }, nil)
	r := rawDial(t, c.srv)
	lsn0 := c.db.ReplLSN()
	first := r.exec(t, "A!SetVal(1)")
	c.waitLSN(t, lsn0+1)                   // durable and shipped; its tail waits for the ack
	fs.FailNthOp(fs.Ops()+2, vfs.FaultEIO) // the next group's WAL write succeeds, its fsync fails
	const k = 4
	parked := make([]uint32, k)
	for i := range parked {
		parked[i] = r.exec(t, fmt.Sprintf("A!SetVal(%d)", 10+i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for fs.Injected() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the parked EXECs' batches were never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	r.silent(t, "before the ack")

	c.ack(t, lsn0+1)
	r.expectResp(t, first, wire.OpOK)
	inDoubt := map[int64]bool{}
	for i, req := range parked {
		f := r.next(t)
		if f.ReqID != req || f.Op != wire.OpErr {
			t.Fatalf("parked EXEC %d answered %s for req %d, want an error for req %d", i, wire.OpName(f.Op), f.ReqID, req)
		}
		if strings.Contains(wire.DecodeErr(f.Payload), "in doubt") {
			inDoubt[int64(10+i)] = true
		}
	}
	if len(inDoubt) == 0 {
		t.Fatal("no parked EXEC was answered in doubt")
	}
	f := r.roundTrip(t, wire.OpExec, wire.AppendValues(nil, value.Str("A!SetVal(99)")))
	if f.Op != wire.OpErr || !strings.Contains(wire.DecodeErr(f.Payload), "aborted") {
		t.Fatalf("EXEC after the failed flush answered %s %q, want a clean abort", wire.OpName(f.Op), wire.DecodeErr(f.Payload))
	}

	crashed := vfs.NewMem()
	crashed.Install(fs.CrashState(fs.Ops(), vfs.CrashSynced))
	db, err := core.Open(core.Options{Dir: "db", VFS: crashed, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseAbrupt()
	id, _ := db.Lookup("A")
	snap := db.BeginSnapshot()
	v, err := db.Get(snap, id, "val")
	db.Abort(snap)
	if got, _ := v.AsInt(); err != nil || (got != 1 && !inDoubt[got]) {
		t.Fatalf("after the power cut val = %v (%v), want the acknowledged 1 or an in-doubt value", v, err)
	}
}

// TestIdleSessionIsTwoGoroutines: the completer exists only while tails are
// parked; a session whose commits all finished is its reader and writer.
func TestIdleSessionIsTwoGoroutines(t *testing.T) {
	c := startQuorum(t, nil, nil)
	baseline := stableGoroutines(time.Second, runtime.NumGoroutine())
	r := rawDial(t, c.srv)
	lsn0 := c.db.ReplLSN()
	req := r.exec(t, "A!SetVal(1)")
	c.waitLSN(t, lsn0+1)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != baseline+3 { // reader, writer, completer
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with one tail parked, want 3", runtime.NumGoroutine()-baseline)
		}
		time.Sleep(time.Millisecond)
	}
	c.ack(t, lsn0+1)
	r.expectResp(t, req, wire.OpOK)
	if got := stableGoroutines(5*time.Second, baseline+2); got != baseline+2 {
		t.Fatalf("idle session runs %d goroutines, want 2", got-baseline)
	}
}
