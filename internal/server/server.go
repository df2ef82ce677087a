// Package server exposes a Database over TCP: the sentinel-server network
// boundary. Each accepted connection becomes a session speaking the
// internal/wire protocol — pipelined request/response frames plus
// unsolicited push frames for subscriptions the session registered.
//
// Session shape (the ≤2-goroutines-per-idle-session rule):
//
//	reader    ── decodes frames, executes each opcode inline (so execution
//	             order is exactly TCP arrival order and no two requests of
//	             a session ever execute concurrently), enqueues the
//	             response — or, for an EXEC/EVAL whose commit must wait
//	             for its WAL flush (and a replication quorum), parks the
//	             commit's tail (core.Pending) and reads the next request,
//	             whose batch may then share the parked one's fsync
//	writer    ── drains the bounded out-queue into the socket, coalescing
//	             whatever is pending into one flush
//	completer ── exists only while tails are parked: finishes them —
//	             durability, quorum, pushes — strictly in request order,
//	             so each commit's pushes enqueue before its response and
//	             responses leave in request order (a request arriving
//	             behind parked tails is answered through the same queue)
//
// GET, INSTANCES, LOOKUP, SUBSCRIBE, UNSUBSCRIBE, HELLO and the REPL*
// opcodes are barriers: they wait until every parked tail finished, so a
// read sees the session's own writes and a subscription never hears an
// event committed before it. At most QueueLen tails park; then the reader
// waits.
//
// Responses enqueue blocking: the reader (or the completer) stalls when the
// client does not drain its socket, which is exactly TCP backpressure
// surfacing to the protocol layer. Pushes (core commit fan-out →
// DeliverEvent) must NEVER block — they run on committing goroutines and
// completers — so they enqueue non-blocking and overflow is handled by
// policy: drop the event (default, counted) or disconnect the slow
// session. Either way the commit path proceeds
// untouched; this is the detached executor's bounded-queue discipline with
// drops in place of backpressure, because a remote subscriber — unlike a
// rule — has no transactional claim on the commit.
//
// Reads (OpGet, OpInstances) ride MVCC snapshots (Database.BeginSnapshot):
// a snapshot is a registration and a transaction ID, not a lock-manager
// transaction, and a GET reads its one attribute in place, so reads take
// no locks and never contend with other sessions' committers.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/repl"
	"sentinel/internal/value"
	"sentinel/internal/wire"
)

// OverflowPolicy says what happens when a push arrives and the session's
// out-queue is full.
type OverflowPolicy int

const (
	// DropEvents drops the pushed event (counted in
	// sentinel_server_push_drops_total) and keeps the session. Subscribers
	// observe a gap, never a stall.
	DropEvents OverflowPolicy = iota
	// DisconnectSlow tears the session down: a consumer that cannot keep
	// up loses its connection (and its subscriptions), not just frames.
	DisconnectSlow
)

// Options configures a Server.
type Options struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7707", ":0").
	Addr string
	// QueueLen bounds each session's out-queue (responses + pushes).
	// Default 128.
	QueueLen int
	// Overflow is the slow-consumer policy for pushes. Default DropEvents.
	Overflow OverflowPolicy
	// Primary, when set, makes this server a replication primary: sessions
	// may attach as followers (OpReplHello) and the server hands them to
	// the Primary for log shipping. Nil servers reject replication opcodes.
	Primary *repl.Primary
	// Promote, when set, accepts the OpReplPromote admin opcode: a follower
	// server exposes its promotion path through it (typically signalling the
	// process main loop, which tears this server down, promotes the
	// follower, and restarts serving over the new primary database). It runs
	// on the requesting session's reader goroutine; return before the
	// teardown happens so the OK can still be written.
	Promote func() error
}

// Server accepts wire-protocol sessions against one Database. Create at
// most one Server per Database: its metrics register once in the
// database's registry.
type Server struct {
	db   *core.Database
	ln   net.Listener
	opts Options

	mu       sync.Mutex
	sessions map[uint64]*session
	closed   bool

	sidSeq atomic.Uint64
	wg     sync.WaitGroup

	met serverMetrics
}

type serverMetrics struct {
	sessionsTotal   *obs.Counter
	framesIn        *obs.Counter
	framesOut       *obs.Counter
	pushesSent      *obs.Counter
	pushDrops       *obs.Counter
	pushDisconnects *obs.Counter
	cmdErrors       *obs.Counter
}

// New binds the listener and starts accepting sessions.
func New(db *core.Database, opts Options) (*Server, error) {
	if opts.QueueLen <= 0 {
		opts.QueueLen = 128
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		db:       db,
		ln:       ln,
		opts:     opts,
		sessions: make(map[uint64]*session),
	}
	reg := db.MetricsRegistry()
	s.met = serverMetrics{
		sessionsTotal:   reg.Counter("sentinel_server_sessions_total", "sessions accepted"),
		framesIn:        reg.Counter("sentinel_server_frames_in_total", "request frames received"),
		framesOut:       reg.Counter("sentinel_server_frames_out_total", "response frames sent"),
		pushesSent:      reg.Counter("sentinel_server_pushes_sent_total", "push event frames enqueued for delivery"),
		pushDrops:       reg.Counter("sentinel_server_push_drops_total", "push events dropped on a full session queue"),
		pushDisconnects: reg.Counter("sentinel_server_push_disconnects_total", "sessions disconnected for falling behind on pushes"),
		cmdErrors:       reg.Counter("sentinel_server_cmd_errors_total", "commands answered with OpErr"),
	}
	reg.Gauge("sentinel_server_sessions", "live sessions", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.sessions))
	})
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close stops accepting, tears down every live session (their
// subscriptions release), and waits for all session goroutines to exit.
// The Database is untouched — close it after the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sess := range live {
		sess.teardown()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.startSession(conn)
	}
}

// startSession registers and launches a session, unless the server is
// already closing (then the connection is refused by closing it).
func (s *Server) startSession(conn net.Conn) {
	sess := &session{
		srv:  s,
		id:   s.sidSeq.Add(1),
		conn: conn,
		out:  make(chan wire.Frame, s.opts.QueueLen),
		done: make(chan struct{}),
		subs: make(map[uint64]bool),
	}
	sess.tailCond.L = &sess.tailMu
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.met.sessionsTotal.Inc()
	s.wg.Add(2)
	go sess.readLoop()
	go sess.writeLoop()
}

func (s *Server) removeSession(id uint64) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// session is one connection. The reader goroutine owns subs (no lock: all
// subscribe/unsubscribe commands execute on it); teardown releases them
// through UnsubscribeAllSinks, which matches by sink identity and needs no
// view of the map.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn

	out  chan wire.Frame
	done chan struct{}

	closeOnce sync.Once
	subs      map[uint64]bool

	// follower marks a session attached to the replication primary; its
	// teardown must detach it (stopping its shipper goroutine).
	follower atomic.Bool

	// drops counts pushes this session lost to a full queue (DropEvents).
	drops atomic.Uint64

	// tails are the responses waiting behind a parked commit tail, in
	// request order; a completer goroutine runs while it is non-empty. An
	// entry leaves only once its response is enqueued, so an empty queue
	// means every earlier response is on the out-queue. tailCond (on
	// tailMu) signals each departure.
	tailMu   sync.Mutex
	tailCond sync.Cond
	tails    []parked
}

// parked is one request answered behind the parked tails: its commit's tail
// (the zero Pending when there is none) and the response sent on success.
type parked struct {
	p    core.Pending
	resp wire.Frame
}

// teardown shuts the session down exactly once, from any goroutine:
// subscriptions release first (no new pushes target the queue), then done
// unblocks the writer and any blocked response enqueue, then the
// connection closes (unblocking the reader). The out channel is never
// closed — senders race teardown, and a buffered frame beyond done is
// simply garbage-collected.
func (s *session) teardown() {
	s.closeOnce.Do(func() {
		if s.follower.Load() {
			s.srv.opts.Primary.RemoveFollower(s.id)
		}
		s.srv.db.UnsubscribeAllSinks(s)
		close(s.done)
		s.conn.Close()
		s.srv.removeSession(s.id)
	})
}

// enqueue queues a response frame, blocking while the out-queue is full
// (reader-side backpressure: the client is not draining its socket).
// Returns false when the session died instead.
func (s *session) enqueue(f wire.Frame) bool {
	select {
	case s.out <- f:
		return true
	case <-s.done:
		return false
	}
}

// SessionID implements repl.FollowerSession.
func (s *session) SessionID() uint64 { return s.id }

// Send implements repl.FollowerSession: enqueue a push frame, blocking
// while the out-queue is full (the shipper paces itself to this follower).
// cancel aborts the wait when the follower is being detached; false means
// the frame was not enqueued and the stream is over.
func (s *session) Send(op byte, payload []byte, cancel <-chan struct{}) bool {
	select {
	case s.out <- wire.Frame{Op: op, Payload: payload}:
		return true
	case <-s.done:
		return false
	case <-cancel:
		return false
	}
}

// TrySend implements repl.FollowerSession: wait-free enqueue for
// event-only batches (droppable — nothing durable rides on them).
func (s *session) TrySend(op byte, payload []byte) bool {
	select {
	case s.out <- wire.Frame{Op: op, Payload: payload}:
		return true
	case <-s.done:
		return false
	default:
		s.srv.met.pushDrops.Inc()
		s.drops.Add(1)
		return false
	}
}

// DeliverEvent implements core.EventSink: called on a committing
// goroutine after the raising transaction became durable. It must not
// block — a full queue invokes the overflow policy, never a wait.
func (s *session) DeliverEvent(subID uint64, occ event.Occurrence) {
	ev := wire.Event{
		SubID:      subID,
		Source:     occ.Source,
		Class:      occ.Class,
		Method:     occ.Method,
		Moment:     uint8(occ.When),
		Seq:        occ.Seq,
		Args:       occ.Args,
		ParamNames: occ.ParamNames,
	}
	f := wire.Frame{Op: wire.OpEvent, Payload: wire.AppendEvent(nil, ev)}
	select {
	case <-s.done:
		// Session dying: its subscriptions are going away; drop quietly.
	case s.out <- f:
		s.srv.met.pushesSent.Inc()
	default:
		s.srv.met.pushDrops.Inc()
		s.drops.Add(1)
		if s.srv.opts.Overflow == DisconnectSlow {
			s.srv.met.pushDisconnects.Inc()
			// Teardown takes the sink-registry and server locks; spawn it
			// off the commit path so delivery stays wait-free.
			go s.teardown()
		}
	}
}

// readLoop decodes and executes frames until the connection dies, then
// tears the session down.
func (s *session) readLoop() {
	defer s.srv.wg.Done()
	defer s.teardown()
	br := wire.NewReader(s.conn)
	var scratch []byte
	for {
		var (
			f   wire.Frame
			err error
		)
		f, scratch, err = wire.ReadFrame(br, scratch)
		if err != nil {
			return
		}
		s.srv.met.framesIn.Inc()
		if isBarrier(f.Op) {
			s.drainTails()
		}
		var tail core.Pending
		resp := s.handle(f, &tail)
		if resp.Op == 0 {
			// Sentinel: the handler enqueued its response itself (the
			// replication handshake, whose welcome must precede the
			// stream's first push).
			continue
		}
		if !s.respond(tail, resp) {
			return
		}
	}
}

// isBarrier reports the opcodes that first wait out every parked tail: a
// snapshot read must see the session's own commits, which become visible
// only once durable; a subscription must not hear an event committed before
// it; and the handshake and replication opcodes change what the session is.
func isBarrier(op byte) bool {
	switch op {
	case wire.OpGet, wire.OpInstances, wire.OpLookup,
		wire.OpSubscribe, wire.OpUnsubscribe, wire.OpHello,
		wire.OpReplHello, wire.OpReplAck, wire.OpReplPromote, wire.OpReplFence:
		return true
	}
	return false
}

// respond sends a request's response — after finishing its commit's tail p —
// in request order. With nothing parked and a tail that does not block, both
// happen here; otherwise the request parks behind the tails already
// outstanding (the reader blocks while QueueLen of them are) and the
// completer answers it. A tail queued behind a busy completer starts its
// flush at once (Park), so it overlaps the earlier tails' waits. False means
// the session died.
func (s *session) respond(p core.Pending, resp wire.Frame) bool {
	s.tailMu.Lock()
	if len(s.tails) == 0 && !p.Blocks() {
		s.tailMu.Unlock()
		return s.enqueue(s.finish(p, resp))
	}
	if len(s.tails) > 0 {
		p.Park()
	}
	for len(s.tails) >= s.srv.opts.QueueLen {
		s.tailCond.Wait()
	}
	s.tails = append(s.tails, parked{p, resp})
	if len(s.tails) == 1 {
		s.srv.wg.Add(1)
		go s.complete()
	}
	s.tailMu.Unlock()
	return true
}

// finish runs p's tail and returns the response it earned.
func (s *session) finish(p core.Pending, resp wire.Frame) wire.Frame {
	if err := p.Finish(); err != nil {
		return s.errFrame(resp.ReqID, err)
	}
	return resp
}

// complete is the completer: it finishes the parked tails strictly in
// request order — each commit's pushes enqueue inside Finish, before its
// response — and exits when none is left. A dead session's tails still
// finish (their reclaim and detached dispatch must run); only their
// responses go nowhere.
func (s *session) complete() {
	defer s.srv.wg.Done()
	s.tailMu.Lock()
	for len(s.tails) > 0 {
		pt := s.tails[0]
		s.tailMu.Unlock()
		s.enqueue(s.finish(pt.p, pt.resp))
		s.tailMu.Lock()
		n := copy(s.tails, s.tails[1:])
		s.tails[n] = parked{}
		s.tails = s.tails[:n]
		s.tailCond.Broadcast()
	}
	s.tailMu.Unlock()
}

// drainTails blocks until every parked tail finished and its response is
// enqueued.
func (s *session) drainTails() {
	s.tailMu.Lock()
	for len(s.tails) > 0 {
		s.tailCond.Wait()
	}
	s.tailMu.Unlock()
}

// writeLoop drains the out-queue into the socket. Consecutive pending
// frames coalesce into one flush, amortizing syscalls under pipelining and
// fan-out bursts.
func (s *session) writeLoop() {
	defer s.srv.wg.Done()
	bw := wire.NewWriter(s.conn)
	var buf []byte
	for {
		var f wire.Frame
		select {
		case f = <-s.out:
		case <-s.done:
			return
		}
		for {
			var err error
			buf, err = wire.WriteFrame(bw, buf, f)
			if err != nil {
				s.teardown()
				return
			}
			s.srv.met.framesOut.Inc()
			select {
			case f = <-s.out:
				continue
			default:
			}
			break
		}
		if bw.Flush() != nil {
			s.teardown()
			return
		}
	}
}

// errFrame builds an OpErr response.
func (s *session) errFrame(reqID uint32, err error) wire.Frame {
	s.srv.met.cmdErrors.Inc()
	return wire.Frame{Op: wire.OpErr, ReqID: reqID, Payload: wire.ErrPayload(err.Error())}
}

var errZeroReqID = errors.New("request id 0 is reserved for pushes")

// handle executes one request frame and returns its response; for EXEC and
// EVAL it stores in tail the commit's tail, still to finish before the
// response may go out. The frame's payload aliases the read scratch, so
// anything retained (strings decode by copy already) must not outlive the
// call — responses carry freshly built payloads.
func (s *session) handle(f wire.Frame, tail *core.Pending) wire.Frame {
	if f.ReqID == 0 {
		return s.errFrame(0, errZeroReqID)
	}
	db := s.srv.db
	switch f.Op {
	case wire.OpHello:
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		ver, ok := vals[0].AsInt()
		if !ok || ver != wire.ProtocolVersion {
			return s.errFrame(f.ReqID, fmt.Errorf("unsupported protocol version %v (server speaks %d)", vals[0], wire.ProtocolVersion))
		}
		return wire.Frame{Op: wire.OpWelcome, ReqID: f.ReqID,
			Payload: wire.AppendValues(nil, value.Int(wire.ProtocolVersion), value.Int(int64(s.id)))}

	case wire.OpPing:
		return wire.Frame{Op: wire.OpPong, ReqID: f.ReqID}

	case wire.OpExec:
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		src, ok := vals[0].AsString()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("EXEC payload is not a string"))
		}
		*tail = db.ExecPending(src)
		return wire.Frame{Op: wire.OpOK, ReqID: f.ReqID}

	case wire.OpEval:
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		src, ok := vals[0].AsString()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("EVAL payload is not a string"))
		}
		v, p := db.EvalPending(src)
		*tail = p
		return wire.Frame{Op: wire.OpResult, ReqID: f.ReqID, Payload: wire.AppendValues(nil, v)}

	case wire.OpLookup:
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		name, ok := vals[0].AsString()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("LOOKUP payload is not a string"))
		}
		id, found := db.Lookup(name)
		res := value.Nil
		if found {
			res = value.Ref(id)
		}
		return wire.Frame{Op: wire.OpResult, ReqID: f.ReqID, Payload: wire.AppendValues(nil, res)}

	case wire.OpGet:
		vals, err := wire.DecodeValues(f.Payload, 2)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		id, ok := vals[0].AsRef()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("GET target is not a ref"))
		}
		attr, ok := vals[1].AsString()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("GET attribute is not a string"))
		}
		// Snapshot read: lock-free, sees the latest stable commit, never
		// contends with writers.
		snap := db.BeginSnapshot()
		v, err := db.Get(snap, id, attr)
		db.Abort(snap)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		return wire.Frame{Op: wire.OpResult, ReqID: f.ReqID, Payload: wire.AppendValues(nil, v)}

	case wire.OpInstances:
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		class, ok := vals[0].AsString()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("INSTANCES payload is not a string"))
		}
		snap := db.BeginSnapshot()
		ids := db.InstancesOfAt(snap, class)
		db.Abort(snap)
		refs := make([]value.Value, len(ids))
		for i, id := range ids {
			refs[i] = value.Ref(id)
		}
		return wire.Frame{Op: wire.OpResult, ReqID: f.ReqID, Payload: wire.AppendValues(nil, value.List(refs...))}

	case wire.OpSubscribe:
		vals, err := wire.DecodeValues(f.Payload, 3)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		src, ok := vals[0].AsRef()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("SUBSCRIBE target is not a ref"))
		}
		method, ok := vals[1].AsString()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("SUBSCRIBE event name is not a string"))
		}
		moment, ok := vals[2].AsInt()
		if !ok || moment < 0 || moment > 255 {
			return s.errFrame(f.ReqID, errors.New("SUBSCRIBE moment out of range"))
		}
		filter := core.SinkFilter{Method: method}
		if moment != wire.MomentAny {
			filter.Moment = event.Moment(moment)
			filter.MomentSet = true
		}
		subID, err := db.SubscribeSink(oid.OID(src), filter, s)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		s.subs[subID] = true
		return wire.Frame{Op: wire.OpSubOK, ReqID: f.ReqID, Payload: wire.AppendValues(nil, value.Int(int64(subID)))}

	case wire.OpUnsubscribe:
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		subID, ok := vals[0].AsInt()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("UNSUBSCRIBE payload is not an int"))
		}
		// Sessions release only their own subscriptions.
		if !s.subs[uint64(subID)] {
			return s.errFrame(f.ReqID, fmt.Errorf("subscription %d not held by this session", subID))
		}
		delete(s.subs, uint64(subID))
		db.UnsubscribeSink(uint64(subID))
		return wire.Frame{Op: wire.OpOK, ReqID: f.ReqID}

	case wire.OpReplHello:
		p := s.srv.opts.Primary
		if p == nil {
			return s.errFrame(f.ReqID, errors.New("server is not a replication primary"))
		}
		vals, err := wire.DecodeValues(f.Payload, 3)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		applied, ok := vals[0].AsInt()
		if !ok || applied < 0 {
			return s.errFrame(f.ReqID, errors.New("REPLHELLO applied LSN out of range"))
		}
		epoch, ok := vals[1].AsInt()
		if !ok {
			return s.errFrame(f.ReqID, errors.New("REPLHELLO epoch is not an int"))
		}
		logged, ok := vals[2].AsInt()
		if !ok || logged < applied {
			return s.errFrame(f.ReqID, errors.New("REPLHELLO logged LSN out of range"))
		}
		primaryEpoch, shipped, needBase, err := p.AddFollower(s, uint64(applied), uint64(logged), uint64(epoch))
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		s.follower.Store(true)
		nb := int64(0)
		if needBase {
			nb = 1
		}
		welcome := wire.Frame{Op: wire.OpReplWelcome, ReqID: f.ReqID,
			Payload: wire.AppendValues(nil, value.Int(int64(primaryEpoch)), value.Int(int64(shipped)), value.Int(nb))}
		if !s.enqueue(welcome) {
			p.RemoveFollower(s.id)
			return wire.Frame{} // session died; readLoop exits on its own
		}
		// Only now may stream pushes flow: the welcome holds its queue slot.
		p.StartShipper(s.id)
		return wire.Frame{} // sentinel: response already enqueued

	case wire.OpReplAck:
		p := s.srv.opts.Primary
		if p == nil {
			return s.errFrame(f.ReqID, errors.New("server is not a replication primary"))
		}
		vals, err := wire.DecodeValues(f.Payload, 2)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		lsn, _ := vals[0].AsInt()
		epoch, _ := vals[1].AsInt()
		if lsn < 0 || epoch < 0 {
			return s.errFrame(f.ReqID, errors.New("REPLACK LSN or epoch out of range"))
		}
		p.Ack(s.id, uint64(lsn), uint64(epoch))
		return wire.Frame{Op: wire.OpOK, ReqID: f.ReqID}

	case wire.OpReplPromote:
		promote := s.srv.opts.Promote
		if promote == nil {
			return s.errFrame(f.ReqID, errors.New("server has no promotion path (not a follower)"))
		}
		if err := promote(); err != nil {
			return s.errFrame(f.ReqID, err)
		}
		return wire.Frame{Op: wire.OpOK, ReqID: f.ReqID}

	case wire.OpReplFence:
		p := s.srv.opts.Primary
		if p == nil {
			return s.errFrame(f.ReqID, errors.New("server is not a replication primary"))
		}
		vals, err := wire.DecodeValues(f.Payload, 1)
		if err != nil {
			return s.errFrame(f.ReqID, err)
		}
		epoch, ok := vals[0].AsInt()
		if !ok || epoch < 0 {
			return s.errFrame(f.ReqID, errors.New("REPLFENCE epoch out of range"))
		}
		p.FenceIfNewer(uint64(epoch))
		return wire.Frame{Op: wire.OpOK, ReqID: f.ReqID}

	default:
		return s.errFrame(f.ReqID, fmt.Errorf("unknown opcode %s", wire.OpName(f.Op)))
	}
}
