package server_test

// End-to-end tests over real TCP: the acceptance path (subscribe from one
// client, commit from another, receive the push without polling),
// pipelining, filters, the slow-consumer policies, and the guarantee that
// a stalled subscriber never stalls the commit path.

import (
	"bufio"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/repl"
	"sentinel/internal/server"
	"sentinel/internal/value"
	"sentinel/internal/wire"
)

// itemSchema is the shared test schema: a reactive persistent-free class
// with one end-generating method.
const itemSchema = `class Item reactive {
	attr val int
	event end method SetVal(v int) { self.val := v }
}
bind A new Item(val: 1)
bind B new Item(val: 2)`

func startServer(t *testing.T, srvOpts server.Options) (*core.Database, *server.Server) {
	t.Helper()
	db := core.MustOpen(core.Options{Output: io.Discard})
	if err := db.Exec(itemSchema); err != nil {
		db.Close()
		t.Fatal(err)
	}
	if srvOpts.Addr == "" {
		srvOpts.Addr = "127.0.0.1:0"
	}
	srv, err := server.New(db, srvOpts)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, srv
}

func dial(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEndPush is the acceptance criterion: client A subscribes over
// TCP, client B's committed transaction raises the event, and A receives
// the firing frame without polling.
func TestEndToEndPush(t *testing.T) {
	_, srv := startServer(t, server.Options{})
	a := dial(t, srv)
	b := dial(t, srv)

	id, ok, err := a.Lookup(context.Background(), "A")
	if err != nil || !ok {
		t.Fatalf("lookup A: %v ok=%v", err, ok)
	}
	got := make(chan wire.Event, 4)
	subID, err := a.Subscribe(context.Background(), id, "SetVal", wire.MomentAny, func(ev wire.Event) { got <- ev })
	if err != nil {
		t.Fatal(err)
	}

	// B commits a transaction that raises end Item::SetVal on A's object.
	if err := b.Exec(context.Background(), `A!SetVal(42)`); err != nil {
		t.Fatal(err)
	}

	select {
	case ev := <-got:
		if ev.SubID != subID {
			t.Fatalf("push subID = %d, want %d", ev.SubID, subID)
		}
		if ev.Source != id || ev.Class != "Item" || ev.Method != "SetVal" {
			t.Fatalf("push = %+v", ev)
		}
		if ev.Moment != uint8(event.End) {
			t.Fatalf("push moment = %d, want end", ev.Moment)
		}
		if len(ev.Args) != 1 {
			t.Fatalf("push args = %v", ev.Args)
		}
		if v, ok := ev.Args[0].AsInt(); !ok || v != 42 {
			t.Fatalf("push arg = %v, want 42", ev.Args[0])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push never arrived")
	}

	// The subscriber's own reads confirm the committed state.
	v, err := a.Get(context.Background(), id, "val")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 42 {
		t.Fatalf("val = %v, want 42", v)
	}
}

func TestPipelinedCommands(t *testing.T) {
	_, srv := startServer(t, server.Options{})
	c := dial(t, srv)
	id, _, err := c.Lookup(context.Background(), "A")
	if err != nil {
		t.Fatal(err)
	}
	// Launch a window of in-flight reads before waiting on any: responses
	// must come back matched by request id.
	const inflight = 64
	calls := make([]*client.Call, inflight)
	for i := range calls {
		calls[i] = c.GoGet(context.Background(), id, "val")
	}
	for i, call := range calls {
		v, err := c.GetCall(context.Background(), call)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if n, _ := v.AsInt(); n != 1 {
			t.Fatalf("call %d: val = %v", i, v)
		}
	}
}

func TestCommandSurface(t *testing.T) {
	_, srv := startServer(t, server.Options{})
	c := dial(t, srv)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	v, err := c.Eval(context.Background(), "1 + 2")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.AsInt(); n != 3 {
		t.Fatalf("eval = %v", v)
	}
	if _, ok, _ := c.Lookup(context.Background(), "nosuch"); ok {
		t.Fatal("lookup of unbound name succeeded")
	}
	ids, err := c.Instances(context.Background(), "Item")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("instances = %v, want 2", ids)
	}
	if err := c.Exec(context.Background(), "syntax error here"); err == nil {
		t.Fatal("bad script accepted")
	}
	if _, err := c.Get(context.Background(), 999999, "val"); err == nil {
		t.Fatal("get of nonexistent object succeeded")
	}
}

func TestSubscribeFilterOverWire(t *testing.T) {
	_, srv := startServer(t, server.Options{})
	c := dial(t, srv)
	idA, _, _ := c.Lookup(context.Background(), "A")
	gotA := make(chan wire.Event, 8)
	if _, err := c.Subscribe(context.Background(), idA, "", wire.MomentAny, func(ev wire.Event) { gotA <- ev }); err != nil {
		t.Fatal(err)
	}
	// Fire on B: A's subscription must stay silent.
	if err := c.Exec(context.Background(), `B!SetVal(7)`); err != nil {
		t.Fatal(err)
	}
	// Then fire on A to have a positive signal to wait for.
	if err := c.Exec(context.Background(), `A!SetVal(8)`); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-gotA:
		if ev.Source != idA {
			t.Fatalf("subscription leaked: push from %v", ev.Source)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push never arrived")
	}
	select {
	case ev := <-gotA:
		t.Fatalf("unexpected second push: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUnsubscribeStopsPushes(t *testing.T) {
	_, srv := startServer(t, server.Options{})
	c := dial(t, srv)
	id, _, _ := c.Lookup(context.Background(), "A")
	got := make(chan wire.Event, 8)
	subID, err := c.Subscribe(context.Background(), id, "", wire.MomentAny, func(ev wire.Event) { got <- ev })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(context.Background(), subID); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec(context.Background(), `A!SetVal(5)`); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		t.Fatalf("push after unsubscribe: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	// Unsubscribing someone else's (or a bogus) id errors.
	if err := c.Unsubscribe(context.Background(), 99999); err == nil {
		t.Fatal("bogus unsubscribe succeeded")
	}
}

// rawSession is a hand-driven wire connection for tests that need a client
// which deliberately stops reading.
type rawSession struct {
	conn net.Conn
	br   *bufio.Reader
	req  uint32
}

func rawDial(t *testing.T, srv *server.Server) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawSession{conn: conn, br: bufio.NewReader(conn)}
	resp := r.roundTrip(t, wire.OpHello, wire.AppendValues(nil, value.Int(wire.ProtocolVersion)))
	if resp.Op != wire.OpWelcome {
		t.Fatalf("handshake: %s", wire.OpName(resp.Op))
	}
	return r
}

// refFromResult unwraps an OpResult frame holding a ref.
func refFromResult(t *testing.T, f wire.Frame) oid.OID {
	t.Helper()
	if f.Op != wire.OpResult {
		t.Fatalf("expected RESULT, got %s", wire.OpName(f.Op))
	}
	vals, err := wire.DecodeValues(f.Payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := vals[0].AsRef()
	if !ok {
		t.Fatalf("result is not a ref: %v", vals[0])
	}
	return id
}

func (r *rawSession) roundTrip(t *testing.T, op byte, payload []byte) wire.Frame {
	t.Helper()
	r.req++
	if _, err := r.conn.Write(wire.AppendFrame(nil, wire.Frame{Op: op, ReqID: r.req, Payload: payload})); err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// commitUntil commits SetVal events on id until cond holds (checked every
// few commits) and returns how many it committed. A stalled subscriber's
// writer goroutine keeps draining into the loopback socket until the kernel
// buffers are full — how many pushes that takes depends on the machine and
// on scheduling (the race detector slows the committer, not the kernel) — so
// the tests below commit until the stall is observable instead of assuming
// a count. Every commit must complete promptly; one that blocked on the dead
// consumer would hang the loop.
func commitUntil(t *testing.T, db *core.Database, id oid.OID, what string, cond func() bool) int {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	n := 0
	for n%16 != 0 || !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s not observed after %d commits", what, n)
		}
		if err := db.Atomically(func(tx *core.Tx) error {
			_, err := db.Send(tx, id, "SetVal", value.Int(int64(n)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

func counter(db *core.Database, name string) uint64 {
	n, _ := db.Metrics().Counter(name)
	return n
}

// TestSlowConsumerNeverStallsCommit is the backpressure acceptance
// criterion: a subscriber that stops reading fills its bounded queue, and
// committers keep committing at full speed — pushes drop, commits never
// block, and every committed event is either sent or counted as dropped.
func TestSlowConsumerNeverStallsCommit(t *testing.T) {
	db, srv := startServer(t, server.Options{QueueLen: 4})
	slow := rawDial(t, srv)
	id := refFromResult(t, slow.roundTrip(t, wire.OpLookup, wire.AppendValues(nil, value.Str("A"))))
	sub := slow.roundTrip(t, wire.OpSubscribe,
		wire.AppendValues(nil, value.Ref(id), value.Str(""), value.Int(wire.MomentAny)))
	if sub.Op != wire.OpSubOK {
		t.Fatalf("subscribe: %s", wire.OpName(sub.Op))
	}
	// The slow session now reads nothing.
	commits := commitUntil(t, db, id, "a dropped push", func() bool {
		return counter(db, "sentinel_server_push_drops_total") > 0
	})
	drops := counter(db, "sentinel_server_push_drops_total")
	sent := counter(db, "sentinel_server_pushes_sent_total")
	if sent+drops != uint64(commits) {
		t.Fatalf("sent (%d) + dropped (%d) != committed events (%d)", sent, drops, commits)
	}
	// DropEvents keeps the session alive.
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1 (DropEvents must not disconnect)", srv.Sessions())
	}
}

// TestDisconnectSlowPolicy: with Overflow = DisconnectSlow a consumer that
// overflows its queue loses the session (and its subscriptions).
func TestDisconnectSlowPolicy(t *testing.T) {
	db, srv := startServer(t, server.Options{QueueLen: 2, Overflow: server.DisconnectSlow})
	slow := rawDial(t, srv)
	id := refFromResult(t, slow.roundTrip(t, wire.OpLookup, wire.AppendValues(nil, value.Str("A"))))
	if f := slow.roundTrip(t, wire.OpSubscribe,
		wire.AppendValues(nil, value.Ref(id), value.Str(""), value.Int(wire.MomentAny))); f.Op != wire.OpSubOK {
		t.Fatalf("subscribe: %s", wire.OpName(f.Op))
	}
	commitUntil(t, db, id, "a slow-consumer disconnect", func() bool {
		return counter(db, "sentinel_server_push_disconnects_total") > 0
	})
	deadline := time.Now().Add(5 * time.Second)
	for db.SinkSubscriptions() != 0 || srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow session not disconnected: sessions=%d subs=%d",
				srv.Sessions(), db.SinkSubscriptions())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBadHandshake(t *testing.T) {
	db := core.MustOpen(core.Options{Output: io.Discard})
	pri := repl.NewPrimary(db, repl.PrimaryOptions{})
	srv, err := server.New(db, server.Options{Addr: "127.0.0.1:0", Primary: pri})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		pri.Close()
		db.Close()
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	// Wrong protocol version.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{
		Op: wire.OpHello, ReqID: 1,
		Payload: wire.AppendValues(nil, value.Int(999)),
	})); err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpErr {
		t.Fatalf("bad version answered %s", wire.OpName(f.Op))
	}
	// Request id 0 is reserved for pushes.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Op: wire.OpPing, ReqID: 0})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpErr {
		t.Fatalf("reqid 0 answered %s", wire.OpName(f.Op))
	}
	// Unknown opcode.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Op: 99, ReqID: 2})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != wire.OpErr || f.ReqID != 2 {
		t.Fatalf("unknown opcode answered %s reqid %d", wire.OpName(f.Op), f.ReqID)
	}
	// A replication ack is [appliedLSN, epoch]; the epoch-less one-value
	// form is a protocol error, not an epoch-0 ack.
	for _, tc := range []struct {
		vals []value.Value
		want byte
	}{
		{[]value.Value{value.Int(7), value.Int(1)}, wire.OpOK},
		{[]value.Value{value.Int(7)}, wire.OpErr},
	} {
		if _, err := conn.Write(wire.AppendFrame(nil, wire.Frame{
			Op: wire.OpReplAck, ReqID: 3, Payload: wire.AppendValues(nil, tc.vals...),
		})); err != nil {
			t.Fatal(err)
		}
		f, _, err = wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if f.Op != tc.want || f.ReqID != 3 {
			t.Fatalf("%d-value ack answered %s reqid %d, want %s", len(tc.vals), wire.OpName(f.Op), f.ReqID, wire.OpName(tc.want))
		}
	}
}

// TestMetricsSurface: the per-session/connection counters land in the
// database's registry.
func TestMetricsSurface(t *testing.T) {
	db, srv := startServer(t, server.Options{})
	c := dial(t, srv)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if n, ok := m.Counter("sentinel_server_sessions_total"); !ok || n == 0 {
		t.Fatalf("sessions_total = %d ok=%v", n, ok)
	}
	if n, ok := m.Counter("sentinel_server_frames_in_total"); !ok || n < 2 { // hello + ping
		t.Fatalf("frames_in_total = %d ok=%v", n, ok)
	}
	if g, ok := m.Gauge("sentinel_server_sessions"); !ok || g != 1 {
		t.Fatalf("sessions gauge = %d ok=%v", g, ok)
	}
}
