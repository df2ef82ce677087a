// Package repl implements WAL-shipped replication: a Primary hooks the
// database's commit path and streams every committed batch to attached
// followers over the wire protocol's replication opcodes; a Follower dials
// the primary, installs a base state when it has none (or has fallen behind
// the primary's retention ring), replays the stream through the same redo
// path crash recovery uses, and serves snapshot reads and subscription
// fan-out from its own server instance.
//
// The layering runs repl → core/wire/client, with the server package on top
// importing repl: the server hands each replication-aware session to the
// Primary as a FollowerSession, so repl never learns about sockets or frame
// framing on the primary side.
//
// The no-stall contract: core.Replicator.Ship runs on the committing
// goroutine with the transaction's locks held, inside the WAL enqueue's
// critical section, so everything it does is encode-and-buffer — payloads
// land in a bounded in-memory ring and per-follower shipper goroutines
// drain the ring at each follower's pace. A wedged follower blocks only its
// own shipper; when it falls behind the ring's floor it is re-seeded from
// base state instead of stalling the primary.
//
// Batches ship before the primary's fsync, so a follower logs one while the
// primary flushes it. Every OpReplFrames push therefore carries the durable
// mark (core.Replicator.Durable) as of its send, and a shipper with nothing
// else to send sends the mark bare: a follower exposes only batches at or
// below the last mark it received.
package repl

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/wire"
)

// FollowerSession is what the Primary needs from an attached follower's
// server session: an identity for ack/teardown bookkeeping and two enqueue
// flavours. Send blocks while the session's out-queue is full (the shipper
// goroutine can afford to wait; cancel aborts the wait when the follower is
// being detached) and reports false once the session is gone. TrySend is
// wait-free — used for event-only batches, which carry nothing durable and
// may be dropped rather than buffered.
type FollowerSession interface {
	SessionID() uint64
	Send(op byte, payload []byte, cancel <-chan struct{}) bool
	TrySend(op byte, payload []byte) bool
}

// PrimaryOptions tune the shipping side.
type PrimaryOptions struct {
	// RingBytes bounds the retention ring's encoded batch bodies, which it
	// holds at their exact size. A follower whose resume point has been
	// trimmed past is re-seeded from base state. Default 1 MiB.
	RingBytes int
	// SnapChunkBytes bounds one OpReplSnap chunk during base sync.
	// Default 256 KiB.
	SnapChunkBytes int
	// Epoch overrides the bumped stream epoch (tests only). 0 means the
	// database's persisted epoch + 1.
	Epoch uint64
}

// Primary attaches to a database's commit path and fans committed batches
// out to followers.
type Primary struct {
	db   *core.Database
	opts PrimaryOptions
	// epoch identifies this shipping history. Epochs are ordered: every
	// NewPrimary over a directory bumps the persisted epoch (and
	// checkpoints it, making the bump the durable fence point), so a
	// restarted or promoted primary is always newer than whatever shipped
	// before it. A follower presenting a higher epoch proves this node was
	// deposed — it fences itself. prevEpoch/sealLSN name the shared prefix:
	// the previous epoch's history up to sealLSN is byte-identical to this
	// epoch's, so its followers at or below the seal may resume instead of
	// re-seeding.
	epoch     uint64
	prevEpoch uint64
	sealLSN   uint64

	// mark is the durable mark: every batch at or below it is durable here.
	mark atomic.Uint64
	enc  []byte // ship's encode buffer

	mu      sync.Mutex
	shipped uint64 // highest LSN handed to ship (or current at install)
	// ring[head:] is the retained stream. Its LSNs are dense — entry
	// ring[head+i] is batch ring[head].lsn+i — so a lookup is an offset
	// (ringAt); a trim advances head, and the slice is compacted once the
	// trimmed prefix is half of it.
	ring      []ringEntry
	head      int
	ringBytes int
	followers map[uint64]*followerState
	waiters   []*quorumWaiter
	fenced    bool
	closed    bool
	wg        sync.WaitGroup
}

// quorumWaiter is one commit blocked in waitQuorum until k followers have
// acked lsn. The channel is buffered and receives exactly once: only the
// code path that removes the waiter from p.waiters (under p.mu) sends, and
// the timeout path removes without sending.
type quorumWaiter struct {
	lsn uint64
	k   int
	ch  chan error
}

// ringEntry is one retained batch: its LSN and its encoded OpReplFrames body
// (wire.AppendReplBody; shared read-only by every shipper, which stamps it
// with the mark at send).
type ringEntry struct {
	lsn  uint64
	body []byte
}

// followerState is the primary-side record of one attached follower.
type followerState struct {
	p        *Primary
	sess     FollowerSession
	next     uint64 // next LSN to send
	sentMark uint64 // highest mark sent (shipper goroutine only)
	needBase bool
	started  bool          // shipper goroutine launched (guarded by p.mu)
	acked    atomic.Uint64 // highest LSN the follower logged and acked
	notify   chan struct{} // capacity 1: new ring entries or a new mark
	stop     chan struct{}
	stopOnce sync.Once
}

// NewPrimary installs itself as db's core.Replicator and returns the
// Primary. Close detaches it.
//
// Starting a primary bumps the directory's persisted replication epoch and
// checkpoints it: the bump is the durable fence point that makes this
// history distinguishable from (and newer than) everything shipped before —
// a primary restart, a follower promotion, and a deposed primary's comeback
// all produce strictly increasing epochs over the same data lineage.
func NewPrimary(db *core.Database, opts PrimaryOptions) *Primary {
	if opts.RingBytes <= 0 {
		opts.RingBytes = 1 << 20
	}
	if opts.SnapChunkBytes <= 0 {
		opts.SnapChunkBytes = 256 << 10
	}
	prev := db.ReplEpoch()
	epoch := opts.Epoch
	if epoch == 0 {
		epoch = prev + 1
	}
	db.SetReplEpoch(epoch)
	// Best-effort durability for the bump: if the checkpoint fails (or the
	// database is in-memory) the epoch still governs this process's
	// lifetime; a crash before the next successful checkpoint replays the
	// old epoch and the next start bumps from there.
	_ = db.Checkpoint()
	p := &Primary{
		db:        db,
		opts:      opts,
		epoch:     epoch,
		prevEpoch: prev,
		followers: make(map[uint64]*followerState),
	}
	// The install returns the current LSN atomically: everything at or
	// below it is previous-epoch shared prefix (the seal), everything after
	// it ships under the new epoch. The checkpoint above made the prefix
	// durable — a primary starts before its database takes commits — so it
	// is the first durable mark.
	lsn := db.SetReplicator(core.Replicator{Ship: p.ship, Durable: p.durable, WaitQuorum: p.waitQuorum, Info: p.info})
	p.sealLSN = lsn
	p.mark.Store(lsn)
	p.mu.Lock()
	if lsn > p.shipped {
		p.shipped = lsn
	}
	p.mu.Unlock()
	return p
}

// Epoch returns the stream epoch (tests and diagnostics).
func (p *Primary) Epoch() uint64 { return p.epoch }

// ship is the hook core calls on every batch, on the committing goroutine
// inside the WAL enqueue's critical section. It encodes the batch body (the
// record Data aliases pooled scratch, so encoding doubles as the copy),
// buffers it in the ring, and nudges the shippers. Nothing here blocks.
func (p *Primary) ship(b core.ReplBatch) {
	// Encode into the reused buffer (core serializes Ship under replMu),
	// then retain an exact-size copy: the ring's memory is its byte count.
	p.enc = wire.AppendReplBody(p.enc[:0], BatchToWire(b))
	body := bytes.Clone(p.enc)
	if cap(p.enc) > 1<<20 {
		p.enc = nil // one huge batch must not pin its buffer
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if b.LSN == 0 {
		// Event-only batch: nothing durable, nothing to resume — wait-free
		// push to whoever is attached and keeping up, drop for the rest.
		// Skipping not-yet-started followers keeps the welcome response
		// ahead of any push on their session queue.
		for _, f := range p.followers {
			if f.started {
				f.sess.TrySend(wire.OpReplFrames, stamp(p.mark.Load(), body))
			}
		}
		return
	}
	if b.LSN > p.shipped {
		p.shipped = b.LSN
	}
	p.ring = append(p.ring, ringEntry{lsn: b.LSN, body: body})
	p.ringBytes += len(body)
	for p.ringBytes > p.opts.RingBytes && len(p.ring)-p.head > 1 {
		p.ringBytes -= len(p.ring[p.head].body)
		p.ring[p.head] = ringEntry{}
		p.head++
	}
	if p.head > 0 && p.head >= len(p.ring)/2 {
		n := copy(p.ring, p.ring[p.head:])
		clear(p.ring[n:])
		p.ring, p.head = p.ring[:n], 0
	}
	p.notifyLocked()
}

// ringAt returns the ring index of batch lsn, false when the ring does not
// hold it (trimmed, or not shipped yet). Caller holds p.mu.
func (p *Primary) ringAt(lsn uint64) (int, bool) {
	if p.head == len(p.ring) || lsn < p.ring[p.head].lsn {
		return 0, false
	}
	i := lsn - p.ring[p.head].lsn
	if i >= uint64(len(p.ring)-p.head) {
		return 0, false
	}
	return p.head + int(i), true
}

// covers reports whether a stream from lsn can be served from the ring: the
// ring holds lsn, or nothing from lsn on was shipped yet. Caller holds p.mu.
func (p *Primary) covers(lsn uint64) bool {
	_, ok := p.ringAt(lsn)
	return ok || lsn > p.shipped
}

// notifyLocked wakes every shipper. Caller holds p.mu.
func (p *Primary) notifyLocked() {
	for _, f := range p.followers {
		select {
		case f.notify <- struct{}{}:
		default:
		}
	}
}

// durable is core.Replicator.Durable, run by the WAL flush leader: it
// raises the mark and wakes every shipper, which carries the mark on its
// next frame or, with nothing to send, bare.
func (p *Primary) durable(lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lsn > p.mark.Load() {
		p.mark.Store(lsn)
		p.notifyLocked()
	}
}

// stamp returns a fresh OpReplFrames payload: mark, then body. Sessions
// queue the payload, so every send gets its own.
func stamp(mark uint64, body []byte) []byte {
	return append(wire.AppendReplMark(make([]byte, 0, 10+len(body)), mark), body...)
}

// bareBody is the body of a bare mark frame: no LSN, no records, no
// occurrences.
var bareBody = wire.AppendReplBody(nil, wire.ReplBatch{})

// ErrDeposed is returned by AddFollower when the dialing follower presents
// a newer epoch than this primary's: proof that a promotion happened
// elsewhere. The primary fences itself before returning it.
var ErrDeposed = errors.New("repl: follower presented a newer epoch; this primary is deposed and now fenced")

// AddFollower registers a session at the follower's position: the LSN it
// applied and the (higher or equal) one it logged. It returns the primary's
// epoch, the current shipped LSN, and whether the follower must install base
// state before streaming (unshared history, a position ahead of this
// primary, or one trimmed past the ring's floor).
// The stream does not flow until StartShipper — the caller enqueues the
// OpReplWelcome response in between, so the handshake always precedes the
// first push on the session's queue.
//
// Resume rules, by the follower's (epoch, loggedLSN) — its whole log must
// be our history, since this epoch may reuse the LSNs of anything past it:
//   - epoch > ours: a newer primary exists. Fence self, reject (ErrDeposed).
//   - epoch == ours: same history; resume iff not ahead.
//   - epoch == our predecessor's and loggedLSN <= the seal: the previous
//     epoch's prefix up to the seal is byte-identical to ours, so the
//     follower may resume — this is how the survivors of a promotion
//     re-handshake without a base copy. A logged tail past the seal (say,
//     batches shipped behind a primary flush that failed) is not ours.
//   - anything else with history (loggedLSN > 0): LSNs from a lineage we
//     cannot verify we share — re-seed from base state.
//   - loggedLSN 0: no history to diverge; stream from scratch.
//
// A resume starts after the applied LSN when the ring covers it, so the
// follower's pending tail comes again with its occurrences, else after the
// logged LSN (the tail then waits only for the mark), else it re-seeds.
func (p *Primary) AddFollower(sess FollowerSession, appliedLSN, loggedLSN, epoch uint64) (primaryEpoch, shippedLSN uint64, needBase bool, err error) {
	if epoch > p.epoch {
		p.FenceIfNewer(epoch)
		return 0, 0, false, ErrDeposed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, 0, false, errors.New("repl: primary closed")
	}
	if old := p.followers[sess.SessionID()]; old != nil {
		// A second hello on the same session replaces the first stream.
		old.stopOnce.Do(func() { close(old.stop) })
	}
	switch {
	case epoch == p.epoch:
		needBase = loggedLSN > p.shipped
	case p.prevEpoch != 0 && epoch == p.prevEpoch && loggedLSN <= p.sealLSN:
		// Shared prefix: the follower holds a prefix of the history we were
		// promoted (or restarted) from.
		needBase = false
	default:
		needBase = loggedLSN > 0
	}
	next, acked := appliedLSN+1, appliedLSN
	switch {
	case needBase:
	case p.covers(appliedLSN + 1):
		acked = loggedLSN
	case p.covers(loggedLSN + 1):
		next, acked = loggedLSN+1, loggedLSN
	default:
		needBase = true // trimmed past, or predates this primary entirely
	}
	f := &followerState{
		p:        p,
		sess:     sess,
		next:     next,
		needBase: needBase,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	f.acked.Store(acked)
	p.followers[sess.SessionID()] = f
	return p.epoch, p.shipped, needBase, nil
}

// StartShipper launches the registered follower's shipper goroutine.
// No-op for an unknown (already removed) or already-started follower.
func (p *Primary) StartShipper(sessionID uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.followers[sessionID]
	if f == nil || f.started {
		return
	}
	f.started = true
	p.wg.Add(1)
	go f.run()
}

// Ack records a follower's logged LSN and completes any quorum waiters the
// ack satisfies. Acks arrive in order on the session's reader goroutine;
// logged LSNs are monotone per follower, so an ack at LSN n covers every
// waiter at or below n. An ack stamped with a newer epoch than ours is
// proof of a promotion elsewhere — the primary fences itself.
func (p *Primary) Ack(sessionID, loggedLSN, epoch uint64) {
	if epoch > p.epoch {
		p.FenceIfNewer(epoch)
		return
	}
	p.mu.Lock()
	f := p.followers[sessionID]
	if f != nil && loggedLSN > f.acked.Load() {
		f.acked.Store(loggedLSN)
	}
	done := p.completeWaitersLocked()
	p.mu.Unlock()
	for _, w := range done {
		w.ch <- nil
	}
}

// completeWaitersLocked removes and returns every waiter whose quorum is
// now satisfied. Caller holds p.mu and sends the completions after
// unlocking (the channels are buffered, but keeping sends out of the
// critical section keeps Ack cheap).
func (p *Primary) completeWaitersLocked() []*quorumWaiter {
	if len(p.waiters) == 0 {
		return nil
	}
	var done []*quorumWaiter
	kept := p.waiters[:0]
	for _, w := range p.waiters {
		if p.ackedByLocked(w.lsn) >= w.k {
			done = append(done, w)
		} else {
			kept = append(kept, w)
		}
	}
	p.waiters = kept
	return done
}

// ackedByLocked counts followers whose acked LSN has reached lsn.
func (p *Primary) ackedByLocked(lsn uint64) int {
	n := 0
	for _, f := range p.followers {
		if f.acked.Load() >= lsn {
			n++
		}
	}
	return n
}

// waitQuorum is core.Replicator.WaitQuorum (Options.SyncReplicas): it
// blocks the committing goroutine — after local durability, with no locks
// held — until k followers have logged and acked lsn (the batch shipped at
// its enqueue, so their fsyncs overlapped the primary's), the timeout fires
// (core.ErrQuorumTimeout: the commit degrades to async), or the primary is
// fenced (core.ErrFenced: the commit can never be acknowledged). The ack
// path runs on follower-session reader goroutines and shares nothing with
// the committer beyond p.mu, held only for list surgery — the no-deadlock
// argument in DESIGN.md §4k.
func (p *Primary) waitQuorum(lsn uint64, k int, timeout time.Duration) error {
	p.mu.Lock()
	switch {
	case p.fenced:
		p.mu.Unlock()
		return core.ErrFenced
	case p.closed:
		p.mu.Unlock()
		return core.ErrQuorumTimeout
	case p.ackedByLocked(lsn) >= k:
		p.mu.Unlock()
		return nil
	}
	w := &quorumWaiter{lsn: lsn, k: k, ch: make(chan error, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-w.ch:
		return err
	case <-timer.C:
	}
	// Timed out — but an ack may have completed us between the timer firing
	// and the removal below. Removal under p.mu decides the race: if the
	// waiter is already gone, its sender has (or will have) filled ch.
	p.mu.Lock()
	removed := false
	for i, x := range p.waiters {
		if x == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			removed = true
			break
		}
	}
	p.mu.Unlock()
	if !removed {
		return <-w.ch
	}
	return core.ErrQuorumTimeout
}

// FenceIfNewer fences this primary if epoch is strictly newer than its own:
// the database rejects all further data-bearing commits with ErrFenced and
// every in-flight quorum wait fails the same way. Returns whether the fence
// tripped (idempotently false once fenced). Safe from any goroutine.
func (p *Primary) FenceIfNewer(epoch uint64) bool {
	if epoch <= p.epoch {
		return false
	}
	p.mu.Lock()
	if p.fenced {
		p.mu.Unlock()
		return false
	}
	p.fenced = true
	waiters := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	// Fence the database first so no new commit can slip past while the
	// waiters drain: logCommit checks the fence before touching the WAL.
	p.db.Fence()
	for _, w := range waiters {
		w.ch <- core.ErrFenced
	}
	return true
}

// Fenced reports whether a newer epoch has deposed this primary.
func (p *Primary) Fenced() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fenced
}

// RemoveFollower detaches a session's follower (called from session
// teardown). Idempotent.
func (p *Primary) RemoveFollower(sessionID uint64) {
	p.mu.Lock()
	f := p.followers[sessionID]
	delete(p.followers, sessionID)
	p.mu.Unlock()
	if f != nil {
		f.stopOnce.Do(func() { close(f.stop) })
	}
}

// Followers returns the number of attached followers.
func (p *Primary) Followers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.followers)
}

// info feeds the Replication stats group: attached follower count and the
// minimum acked LSN across them (0 when none are attached).
func (p *Primary) info() (peers int, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var min uint64
	first := true
	for _, f := range p.followers {
		a := f.acked.Load()
		if first || a < min {
			min = a
			first = false
		}
	}
	if first {
		min = 0
	}
	return len(p.followers), min
}

// Close detaches the hooks, stops every shipper, fails in-flight quorum
// waits as degraded (the commits are locally durable; there is simply no
// shipping service left to confirm them), and waits for the shippers.
func (p *Primary) Close() {
	p.db.SetReplicator(core.Replicator{})
	p.mu.Lock()
	p.closed = true
	for id, f := range p.followers {
		delete(p.followers, id)
		f.stopOnce.Do(func() { close(f.stop) })
	}
	waiters := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	for _, w := range waiters {
		w.ch <- core.ErrQuorumTimeout
	}
	p.wg.Wait()
}

// drop removes f's registration (shipper-initiated teardown: the session
// died under a Send, or base sync failed). Session teardown calls
// RemoveFollower too; both are idempotent.
func (f *followerState) drop() {
	f.p.RemoveFollower(f.sess.SessionID())
}

// run is the per-follower shipper: base-sync when needed, then drain the
// ring from f.next, blocking on the session's queue (its own pace), send a
// bare mark when the mark passed the last one sent, and wait on notify when
// caught up.
func (f *followerState) run() {
	p := f.p
	defer p.wg.Done()
	var pend []ringEntry
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.needBase {
			if !f.baseSync() {
				f.drop()
				return
			}
			f.needBase = false
		}
		if pend, f.needBase = f.pending(pend); f.needBase {
			continue
		}
		if len(pend) == 0 {
			if p.mark.Load() > f.sentMark {
				if !f.send(bareBody) {
					f.drop()
					return
				}
				continue
			}
			select {
			case <-f.notify:
			case <-f.stop:
				return
			}
			continue
		}
		for _, e := range pend {
			if !f.send(e.body) {
				f.drop()
				return
			}
			f.next = e.lsn + 1
		}
		clear(pend)
		pend = pend[:0]
	}
}

// pending appends the ring entries from f.next on to pend — an offset
// lookup and a copy of what is new, never a scan of the ring. It reports
// needBase when only base state covers f.next: trimmed past while the
// shipper slept, or committed before this primary attached its hook.
func (f *followerState) pending(pend []ringEntry) (_ []ringEntry, needBase bool) {
	p := f.p
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.ringAt(f.next)
	if !ok {
		return pend, f.next <= p.shipped
	}
	return append(pend, p.ring[i:]...), false
}

// send ships one body stamped with the current mark.
func (f *followerState) send(body []byte) bool {
	mark := f.p.mark.Load()
	if !f.sess.Send(wire.OpReplFrames, stamp(mark, body), f.stop) {
		return false
	}
	f.sentMark = mark
	return true
}

// baseSync captures the primary's base state and streams it to the
// follower as chunked OpReplSnap pushes terminated by OpReplSnapEnd.
// Reports false when the session died mid-stream.
func (f *followerState) baseSync() bool {
	st, err := f.p.db.ReplBaseState()
	if err != nil {
		return false
	}
	var (
		chunk []wire.ReplSnapObj
		size  int
	)
	flush := func() bool {
		if len(chunk) == 0 {
			return true
		}
		payload := wire.AppendReplSnap(nil, chunk)
		chunk = chunk[:0]
		size = 0
		return f.sess.Send(wire.OpReplSnap, payload, f.stop)
	}
	for _, o := range st.Objects {
		chunk = append(chunk, wire.ReplSnapObj{ID: o.ID, Img: o.Img})
		size += len(o.Img) + 16
		if size >= f.p.opts.SnapChunkBytes {
			if !flush() {
				return false
			}
		}
	}
	if !flush() {
		return false
	}
	end := wire.AppendReplSnapEnd(nil, st.LSN)
	if !f.sess.Send(wire.OpReplSnapEnd, end, f.stop) {
		return false
	}
	f.next = st.LSN + 1
	return true
}
