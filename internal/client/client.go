// Package client is the minimal Go client for sentinel-server's wire
// protocol, used by the shell (.connect), the replication follower, the
// tests, and the benchmarks.
//
// Every blocking method takes a context.Context: the context bounds that
// one call (dial, request/response round-trip), and cancelling it abandons
// the call without leaking its futures-map entry — the response, if it
// later arrives, is dropped on the floor. Cancellation is per-call, not
// per-connection: the transport stays usable after an abandoned call.
//
// Calls pipeline: Go* methods send without waiting and return a Call whose
// wait blocks for that request's response, matched by request id. Two
// goroutines drive the connection — a writer coalescing queued frames into
// single flushes, and a reader dispatching responses to their Calls and
// push frames to subscription handlers — so N in-flight calls cost N
// channel slots, not N goroutines.
//
// Push handlers run on the reader goroutine: keep them short and never
// call back into the Client's blocking methods from one (Wait from a
// handler deadlocks the reader against itself).
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sentinel/internal/oid"
	"sentinel/internal/value"
	"sentinel/internal/wire"
)

// ErrClosed reports a call against a closed (or transport-failed) client.
var ErrClosed = errors.New("client: connection closed")

// ErrPrimaryLost wraps the transport error when a connection that was
// streaming replication dies: callers (the follower's reconnect loop, admin
// tooling deciding whether to promote) can errors.Is for it instead of
// pattern-matching transport strings.
var ErrPrimaryLost = errors.New("client: primary connection lost")

// outQueueLen bounds the writer queue; senders block when it fills (the
// transport is the limit, more buffering would just hide it).
const outQueueLen = 256

// Client is one connection to a sentinel-server.
type Client struct {
	conn net.Conn

	out  chan wire.Frame
	done chan struct{}

	mu         sync.Mutex
	reqSeq     uint32
	pending    map[uint32]*Call
	handlers   map[uint64]func(wire.Event)
	orphans    map[uint64][]wire.Event // pushes that raced their SubOK
	orphanCnt  int
	closeErr   error
	closing    bool
	replStream bool // set by ReplHello: transport loss means a lost primary

	// rawPush receives non-OpEvent pushes (the replication stream). Set
	// once via OnPush before any replication traffic; read on the reader
	// goroutine without locking thereafter.
	rawPush func(op byte, payload []byte)

	closeOnce sync.Once
	wg        sync.WaitGroup

	// SessionID is the server-assigned session id from the handshake.
	SessionID uint64
}

// result is a completed call: the response frame (payload owned by the
// call) or a transport error.
type result struct {
	f   wire.Frame
	err error
}

// Call is one in-flight request.
type Call struct {
	c  *Client
	id uint32
	ch chan result
}

// wait blocks for the response frame or the context. An abandoned call is
// unregistered from the pending map immediately: a response racing the
// cancellation lands in the call's one-slot buffer and is garbage-collected
// with it, so cancellation never leaks map entries or frames.
func (call *Call) wait(ctx context.Context) (wire.Frame, error) {
	select {
	case r := <-call.ch:
		return r.f, r.err
	case <-ctx.Done():
		call.c.abandon(call.id)
		return wire.Frame{}, ctx.Err()
	}
}

// Wait blocks for the response of a pipelined Go* call.
func (call *Call) Wait(ctx context.Context) (wire.Frame, error) { return call.wait(ctx) }

// abandon forgets an in-flight call after its waiter gave up.
func (c *Client) abandon(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Dial connects and performs the version handshake; ctx bounds both.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		out:      make(chan wire.Frame, outQueueLen),
		done:     make(chan struct{}),
		pending:  make(map[uint32]*Call),
		handlers: make(map[uint64]func(wire.Event)),
		orphans:  make(map[uint64][]wire.Event),
	}
	c.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	f, err := c.start(ctx, wire.OpHello, wire.AppendValues(nil, value.Int(wire.ProtocolVersion))).wait(ctx)
	if err != nil {
		c.Close()
		return nil, err
	}
	if f.Op != wire.OpWelcome {
		c.Close()
		return nil, fmt.Errorf("client: handshake rejected: %s", respErr(f))
	}
	vals, err := wire.DecodeValues(f.Payload, 2)
	if err != nil {
		c.Close()
		return nil, err
	}
	sid, _ := vals[1].AsInt()
	c.SessionID = uint64(sid)
	return c, nil
}

// DialRetry dials with jittered exponential backoff (50ms doubling to
// maxBackoff, each sleep randomized ±50%) until it connects or ctx is
// cancelled. The replication follower runs its reconnect loop on this;
// anything needing a patient dial can share it. The jitter matters exactly
// when the dial matters most: after a primary failure every follower starts
// retrying at once, and unjittered backoff keeps them retrying in lockstep
// against the freshly promoted (or restarted) primary.
func DialRetry(ctx context.Context, addr string, maxBackoff time.Duration) (*Client, error) {
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	backoff := 50 * time.Millisecond
	for {
		c, err := Dial(ctx, addr)
		if err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// jitter spreads d over [d/2, 3d/2): full ±50%, so two followers that lost
// the same primary at the same instant decorrelate within one retry round.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Close tears the connection down; every in-flight call fails with
// ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	c.wg.Wait()
	return nil
}

// Done is closed when the connection dies (remote close, transport error,
// or Close). The follower's apply loop selects on it to notice a lost
// primary without a read in flight.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the error that tore the connection down, once Done is
// closed: ErrClosed for a local Close, or the transport error (wrapped in
// ErrPrimaryLost for a replication stream) otherwise. Nil while the
// connection is alive.
func (c *Client) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeErr
}

// fail closes the transport once and completes all pending calls with err.
func (c *Client) fail(err error) {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closing = true
		if c.replStream && !errors.Is(err, ErrClosed) {
			err = fmt.Errorf("%w: %v", ErrPrimaryLost, err)
		}
		c.closeErr = err
		pend := c.pending
		c.pending = make(map[uint32]*Call)
		c.mu.Unlock()
		close(c.done)
		c.conn.Close()
		for _, call := range pend {
			call.ch <- result{err: err}
		}
	})
}

// start registers a Call and enqueues its request frame. The returned Call
// always completes: on transport death it yields the close error, on
// context cancellation (while the out-queue is full) the context error.
func (c *Client) start(ctx context.Context, op byte, payload []byte) *Call {
	call := &Call{c: c, ch: make(chan result, 1)}
	c.mu.Lock()
	if c.closing {
		err := c.closeErr
		c.mu.Unlock()
		call.ch <- result{err: err}
		return call
	}
	c.reqSeq++
	if c.reqSeq == 0 { // 0 is the push id; skip it on wraparound
		c.reqSeq = 1
	}
	call.id = c.reqSeq
	c.pending[call.id] = call
	c.mu.Unlock()
	select {
	case c.out <- wire.Frame{Op: op, ReqID: call.id, Payload: payload}:
	case <-c.done:
		// fail() already completed (or will complete) this call.
	case <-ctx.Done():
		c.abandon(call.id)
		call.ch <- result{err: ctx.Err()}
	}
	return call
}

// writeLoop drains the out-queue, coalescing pending frames per flush.
func (c *Client) writeLoop() {
	defer c.wg.Done()
	bw := wire.NewWriter(c.conn)
	var buf []byte
	for {
		var f wire.Frame
		select {
		case f = <-c.out:
		case <-c.done:
			return
		}
		for {
			var err error
			buf, err = wire.WriteFrame(bw, buf, f)
			if err != nil {
				c.fail(err)
				return
			}
			select {
			case f = <-c.out:
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			c.fail(err)
			return
		}
	}
}

// readLoop dispatches responses to pending calls and pushes to handlers.
func (c *Client) readLoop() {
	defer c.wg.Done()
	br := wire.NewReader(c.conn)
	var scratch []byte
	for {
		var (
			f   wire.Frame
			err error
		)
		f, scratch, err = wire.ReadFrame(br, scratch)
		if err != nil {
			c.fail(fmt.Errorf("client: transport: %w", err))
			return
		}
		if f.ReqID == 0 {
			if f.Op == wire.OpEvent {
				c.dispatchEvent(f.Payload)
			} else if h := c.rawPush; h != nil {
				h(f.Op, f.Payload)
			}
			continue
		}
		c.mu.Lock()
		call := c.pending[f.ReqID]
		delete(c.pending, f.ReqID)
		c.mu.Unlock()
		if call == nil {
			continue // response to an abandoned or already-failed request
		}
		// The payload aliases the read scratch; the call owns its copy.
		owned := wire.Frame{Op: f.Op, ReqID: f.ReqID, Payload: append([]byte(nil), f.Payload...)}
		call.ch <- result{f: owned}
	}
}

// orphanCap bounds pushes buffered for subscriptions whose SubOK has not
// been processed yet (a push can overtake its own subscription's response
// when a commit lands in between). Beyond it, oldest-sub orphans drop.
const orphanCap = 1024

// dispatchEvent routes one push to its handler, or buffers it while the
// subscription's SubOK is still in flight.
func (c *Client) dispatchEvent(payload []byte) {
	ev, err := wire.DecodeEvent(payload)
	if err != nil {
		return // malformed push: drop, the protocol stream itself is intact
	}
	c.mu.Lock()
	h := c.handlers[ev.SubID]
	if h == nil && !c.closing {
		if c.orphanCnt < orphanCap {
			c.orphans[ev.SubID] = append(c.orphans[ev.SubID], ev)
			c.orphanCnt++
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if h != nil {
		h(ev)
	}
}

// OnPush installs the raw handler for non-OpEvent pushes (the replication
// stream: OpReplFrames, OpReplSnap, OpReplSnapEnd). Must be set before the
// traffic it handles can arrive (i.e. before ReplHello); the handler runs
// on the reader goroutine and its payload is only valid for the duration of
// the call.
func (c *Client) OnPush(h func(op byte, payload []byte)) { c.rawPush = h }

// respErr renders a non-OK response as an error.
func respErr(f wire.Frame) error {
	if f.Op == wire.OpErr {
		return errors.New(wire.DecodeErr(f.Payload))
	}
	return fmt.Errorf("unexpected response %s", wire.OpName(f.Op))
}

// ---- typed calls (each has a Go* pipelined form and a blocking form) ----

// GoPing starts a ping.
func (c *Client) GoPing(ctx context.Context) *Call { return c.start(ctx, wire.OpPing, nil) }

// Ping round-trips a no-op frame.
func (c *Client) Ping(ctx context.Context) error {
	f, err := c.GoPing(ctx).wait(ctx)
	if err != nil {
		return err
	}
	if f.Op != wire.OpPong {
		return respErr(f)
	}
	return nil
}

// GoExec starts a script execution.
func (c *Client) GoExec(ctx context.Context, src string) *Call {
	return c.start(ctx, wire.OpExec, wire.AppendValues(nil, value.Str(src)))
}

// Exec runs a SentinelQL script in its own server-side transaction.
func (c *Client) Exec(ctx context.Context, src string) error {
	f, err := c.GoExec(ctx, src).wait(ctx)
	if err != nil {
		return err
	}
	if f.Op != wire.OpOK {
		return respErr(f)
	}
	return nil
}

// GoEval starts an expression evaluation.
func (c *Client) GoEval(ctx context.Context, src string) *Call {
	return c.start(ctx, wire.OpEval, wire.AppendValues(nil, value.Str(src)))
}

// Eval evaluates a SentinelQL expression and returns its value.
func (c *Client) Eval(ctx context.Context, src string) (value.Value, error) {
	return resultValue(c.GoEval(ctx, src).wait(ctx))
}

// GoLookup starts a name lookup.
func (c *Client) GoLookup(ctx context.Context, name string) *Call {
	return c.start(ctx, wire.OpLookup, wire.AppendValues(nil, value.Str(name)))
}

// Lookup resolves a bound name to its OID.
func (c *Client) Lookup(ctx context.Context, name string) (oid.OID, bool, error) {
	v, err := resultValue(c.GoLookup(ctx, name).wait(ctx))
	if err != nil {
		return oid.Nil, false, err
	}
	id, ok := v.AsRef()
	return id, ok, nil
}

// GoGet starts a snapshot attribute read.
func (c *Client) GoGet(ctx context.Context, id oid.OID, attr string) *Call {
	return c.start(ctx, wire.OpGet, wire.AppendValues(nil, value.Ref(id), value.Str(attr)))
}

// Get reads one attribute from a server-side MVCC snapshot.
func (c *Client) Get(ctx context.Context, id oid.OID, attr string) (value.Value, error) {
	return resultValue(c.GoGet(ctx, id, attr).wait(ctx))
}

// GetCall completes a GoGet (exported for pipelined callers).
func (c *Client) GetCall(ctx context.Context, call *Call) (value.Value, error) {
	return resultValue(call.wait(ctx))
}

// Instances lists the live instances of a class (snapshot read).
func (c *Client) Instances(ctx context.Context, class string) ([]oid.OID, error) {
	v, err := resultValue(c.start(ctx, wire.OpInstances, wire.AppendValues(nil, value.Str(class))).wait(ctx))
	if err != nil {
		return nil, err
	}
	lst, ok := v.AsList()
	if !ok {
		return nil, errors.New("client: INSTANCES result is not a list")
	}
	ids := make([]oid.OID, 0, len(lst))
	for _, e := range lst {
		if id, ok := e.AsRef(); ok {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// resultValue unwraps an OpResult response.
func resultValue(f wire.Frame, err error) (value.Value, error) {
	if err != nil {
		return value.Nil, err
	}
	if f.Op != wire.OpResult {
		return value.Nil, respErr(f)
	}
	vals, err := wire.DecodeValues(f.Payload, 1)
	if err != nil {
		return value.Nil, err
	}
	return vals[0], nil
}

// Subscribe registers for pushes of the object's occurrences. method ""
// matches every event the object generates; moment wire.MomentAny matches
// every moment. handler runs on the reader goroutine for each delivered
// event — including any that arrived while the subscription's own
// confirmation was still in flight.
func (c *Client) Subscribe(ctx context.Context, id oid.OID, method string, moment uint8, handler func(wire.Event)) (uint64, error) {
	if handler == nil {
		return 0, errors.New("client: nil handler")
	}
	f, err := c.start(ctx, wire.OpSubscribe,
		wire.AppendValues(nil, value.Ref(id), value.Str(method), value.Int(int64(moment)))).wait(ctx)
	if err != nil {
		return 0, err
	}
	if f.Op != wire.OpSubOK {
		return 0, respErr(f)
	}
	vals, err := wire.DecodeValues(f.Payload, 1)
	if err != nil {
		return 0, err
	}
	sid, _ := vals[0].AsInt()
	subID := uint64(sid)
	// Install the handler and replay pushes that overtook the SubOK. Both
	// under mu, so an event is either replayed here or dispatched directly
	// by the reader — never both, never lost.
	c.mu.Lock()
	replay := c.orphans[subID]
	delete(c.orphans, subID)
	c.orphanCnt -= len(replay)
	c.handlers[subID] = handler
	c.mu.Unlock()
	for _, ev := range replay {
		handler(ev)
	}
	return subID, nil
}

// Unsubscribe releases a subscription.
func (c *Client) Unsubscribe(ctx context.Context, subID uint64) error {
	f, err := c.start(ctx, wire.OpUnsubscribe, wire.AppendValues(nil, value.Int(int64(subID)))).wait(ctx)
	if err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.handlers, subID)
	c.mu.Unlock()
	if f.Op != wire.OpOK {
		return respErr(f)
	}
	return nil
}

// ---- replication calls (used by internal/repl's follower) ----

// ReplHello asks the primary to start shipping from startLSN+1 to a
// follower that logged nothing past it (see ReplResume).
func (c *Client) ReplHello(ctx context.Context, startLSN, epoch uint64) (primaryEpoch, shippedLSN uint64, needBase bool, err error) {
	return c.ReplResume(ctx, startLSN, startLSN, epoch)
}

// ReplResume asks the primary to resume shipping to a follower that applied
// appliedLSN and holds loggedLSN in its log. epoch is the primary epoch the
// follower stored with its data (0 = none). The primary answers with its own
// epoch, its shipped LSN, and whether the follower must install a fresh base
// state first (unshared history — a logged tail the new epoch reuses the
// LSNs of included — or a position outside what the primary can serve
// incrementally).
func (c *Client) ReplResume(ctx context.Context, appliedLSN, loggedLSN, epoch uint64) (primaryEpoch, shippedLSN uint64, needBase bool, err error) {
	c.mu.Lock()
	c.replStream = true
	c.mu.Unlock()
	f, err := c.start(ctx, wire.OpReplHello,
		wire.AppendValues(nil, value.Int(int64(appliedLSN)), value.Int(int64(epoch)), value.Int(int64(loggedLSN)))).wait(ctx)
	if err != nil {
		return 0, 0, false, err
	}
	if f.Op != wire.OpReplWelcome {
		return 0, 0, false, respErr(f)
	}
	vals, err := wire.DecodeValues(f.Payload, 3)
	if err != nil {
		return 0, 0, false, err
	}
	pe, _ := vals[0].AsInt()
	sl, _ := vals[1].AsInt()
	nb, _ := vals[2].AsInt()
	return uint64(pe), uint64(sl), nb != 0, nil
}

// ReplAck reports the follower's logged LSN (and the epoch it logged
// under) for the primary's lag accounting and quorum commit. A follower
// still on an older epoch acks with that epoch; the primary counts only
// current-epoch acks toward a quorum.
func (c *Client) ReplAck(ctx context.Context, loggedLSN, epoch uint64) error {
	f, err := c.start(ctx, wire.OpReplAck,
		wire.AppendValues(nil, value.Int(int64(loggedLSN)), value.Int(int64(epoch)))).wait(ctx)
	if err != nil {
		return err
	}
	if f.Op != wire.OpOK {
		return respErr(f)
	}
	return nil
}

// ReplPromote asks a follower server to promote itself to primary (admin
// operation; the server must have been started with a promote hook).
func (c *Client) ReplPromote(ctx context.Context) error {
	f, err := c.start(ctx, wire.OpReplPromote, nil).wait(ctx)
	if err != nil {
		return err
	}
	if f.Op != wire.OpOK {
		return respErr(f)
	}
	return nil
}

// ReplFence tells a primary server that newEpoch exists: if it is newer
// than the primary's own epoch the primary fences itself (every subsequent
// local commit fails with core.ErrFenced). Idempotent; an older or equal
// epoch is a no-op.
func (c *Client) ReplFence(ctx context.Context, newEpoch uint64) error {
	f, err := c.start(ctx, wire.OpReplFence, wire.AppendValues(nil, value.Int(int64(newEpoch)))).wait(ctx)
	if err != nil {
		return err
	}
	if f.Op != wire.OpOK {
		return respErr(f)
	}
	return nil
}
