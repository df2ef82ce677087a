package server_test

// The pipelined-session oracle: one connection to a quorum primary pipelines
// a random program of EXEC and GET requests k deep, and every response must
// equal what sequential embedded execution of the same program returns — in
// session program order, which for a single session is the primary's WAL
// commit order. A subscription through a follower must see exactly the
// model's stream of pushes: no lost, phantom, duplicated or reordered push.
// `go test` runs a few seeds; SENTINEL_TORTURE=full (`make torture`) widens
// the sweep.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/repl"
	"sentinel/internal/server"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
	"sentinel/internal/wire"
)

const oracleSchema = `class Item reactive persistent {
	attr val int
	attr hits int = 0
	event end method SetVal(v int) { self.val := v }
}
rule Guard for Item on end Item::SetVal(int v) if v < 0 then abort "negative"
rule Count for Item on end Item::SetVal(int v) if v > 500 then self.hits := self.hits + 1
bind O0 new Item(val: 0)
bind O1 new Item(val: 1)
bind O2 new Item(val: 2)`

// pushLog records each push's arguments; the embedded model's sink and
// the follower subscriber's handler both feed one.
type pushLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *pushLog) add(args []value.Value) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprint(args))
	l.mu.Unlock()
}

func (l *pushLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func (l *pushLog) DeliverEvent(_ uint64, occ event.Occurrence) { l.add(occ.Args) }

func TestPipelineOracle(t *testing.T) {
	seeds, ops := 3, 60
	if os.Getenv("SENTINEL_TORTURE") == "full" {
		seeds, ops = 24, 240
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runPipelineOracle(t, seed, ops) })
	}
}

// oracleOp is one request of the program with the model's answer.
type oracleOp struct {
	script string // EXEC; "" for a GET
	obj    int    // GET target
	attr   string
	want   string // GET: the value; EXEC: "" for OK, else the model's error
	call   *client.Call
}

func runPipelineOracle(t *testing.T, seed int64, n int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	depth := 1 + rng.Intn(8)
	const fsync = 200 * time.Microsecond

	model := core.MustOpen(core.Options{Output: io.Discard})
	defer model.Close()
	if err := model.Exec(oracleSchema); err != nil {
		t.Fatal(err)
	}
	modelPushes := &pushLog{}
	o0, _ := model.Lookup("O0")
	if _, err := model.SubscribeSink(o0, core.SinkFilter{Method: "SetVal"}, modelPushes); err != nil {
		t.Fatal(err)
	}

	db := core.MustOpen(core.Options{Dir: "p", VFS: vfs.NewLatency(vfs.NewMem(), fsync, 0), Output: io.Discard,
		SyncOnCommit: true, SyncReplicas: 1, QuorumTimeout: 10 * time.Second})
	if err := db.Exec(oracleSchema); err != nil {
		t.Fatal(err)
	}
	pri := repl.NewPrimary(db, repl.PrimaryOptions{})
	srv, err := server.New(db, server.Options{Addr: "127.0.0.1:0", Primary: pri})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := repl.StartFollower(repl.FollowerOptions{
		PrimaryAddr: srv.Addr(),
		Core:        core.Options{Dir: "f", VFS: vfs.NewLatency(vfs.NewMem(), fsync, 0), SyncOnCommit: true, Output: io.Discard},
		MaxBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv, err := server.New(fol.DB, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.Dial(ctx, fsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sub.Close()
		sess.Close()
		fsrv.Close()
		srv.Close()
		pri.Close()
		fol.Close()
		db.Close()
	}()
	awaitApplied(t, fol.DB, db.ReplLSN())
	for pri.Followers() == 0 {
		time.Sleep(time.Millisecond)
	}

	followerPushes := &pushLog{}
	fo0, ok, err := sub.Lookup(ctx, "O0")
	if err != nil || !ok {
		t.Fatalf("follower lookup O0: %v %v", ok, err)
	}
	if _, err := sub.Subscribe(ctx, fo0, "SetVal", wire.MomentAny, func(ev wire.Event) { followerPushes.add(ev.Args) }); err != nil {
		t.Fatal(err)
	}
	ids := make([]oid.OID, 3)
	for i := range ids {
		if ids[i], ok, err = sess.Lookup(ctx, fmt.Sprintf("O%d", i)); err != nil || !ok {
			t.Fatalf("lookup O%d: %v %v", i, ok, err)
		}
	}

	var inflight []oracleOp
	complete := func(op oracleOp) {
		f, err := op.call.Wait(ctx)
		if err != nil {
			t.Fatalf("seed %d: %q: %v", seed, op.script, err)
		}
		if op.script == "" {
			v, err := wire.DecodeValues(f.Payload, 1)
			if f.Op != wire.OpResult || err != nil || v[0].String() != op.want {
				t.Fatalf("seed %d: GET O%d.%s = %s %v %v, model says %s", seed, op.obj, op.attr, wire.OpName(f.Op), v, err, op.want)
			}
			return
		}
		switch got := respText(f); {
		case op.want == "" && f.Op != wire.OpOK:
			t.Fatalf("seed %d: EXEC %q failed (%s), model committed it", seed, op.script, got)
		case op.want != "" && (f.Op != wire.OpErr || !strings.Contains(got, "negative")):
			t.Fatalf("seed %d: EXEC %q answered %s %q, model failed with %q", seed, op.script, wire.OpName(f.Op), got, op.want)
		}
	}
	for i := 0; i < n; i++ {
		var op oracleOp
		if rng.Intn(5) < 3 {
			var sb strings.Builder
			for j := 0; j <= rng.Intn(2); j++ {
				v := rng.Intn(1000)
				if rng.Intn(10) == 0 {
					v = -v - 1
				}
				fmt.Fprintf(&sb, "O%d!SetVal(%d)\n", rng.Intn(3), v)
			}
			op.script = sb.String()
			if err := model.Exec(op.script); err != nil {
				op.want = err.Error()
			}
			op.call = sess.GoExec(ctx, op.script)
		} else {
			op.obj, op.attr = rng.Intn(3), [2]string{"val", "hits"}[rng.Intn(2)]
			id, _ := model.Lookup(fmt.Sprintf("O%d", op.obj))
			snap := model.BeginSnapshot()
			v, err := model.Get(snap, id, op.attr)
			model.Abort(snap)
			if err != nil {
				t.Fatal(err)
			}
			op.want = v.String()
			op.call = sess.GoGet(ctx, ids[op.obj], op.attr)
		}
		if inflight = append(inflight, op); len(inflight) >= depth {
			complete(inflight[0])
			inflight = inflight[1:]
		}
	}
	for _, op := range inflight {
		complete(op)
	}

	awaitApplied(t, fol.DB, db.ReplLSN())
	want := modelPushes.snapshot()
	if len(want) == 0 {
		t.Fatalf("seed %d: the program pushed nothing to check", seed)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(followerPushes.snapshot()) < len(want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let a duplicate or phantom push show
	if got := followerPushes.snapshot(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("seed %d (depth %d): follower pushes differ from the model's\n follower: %v\n model:    %v", seed, depth, got, want)
	}
}

// respText renders a response frame's payload for messages.
func respText(f wire.Frame) string {
	if v, err := wire.DecodeValues(f.Payload, 1); err == nil {
		if s, ok := v[0].AsString(); ok {
			return s
		}
		return v[0].String()
	}
	return ""
}

// awaitApplied blocks until db applied lsn.
func awaitApplied(t *testing.T, db *core.Database, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.ReplLSN() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, want %d", db.ReplLSN(), lsn)
		}
		time.Sleep(time.Millisecond)
	}
}
