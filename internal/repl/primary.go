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
// goroutine with the transaction's locks held, so everything it does is encode-and-buffer —
// payloads land in a bounded in-memory ring and per-follower shipper
// goroutines drain the ring at each follower's pace. A wedged follower
// blocks only its own shipper; when it falls behind the ring's floor it is
// re-seeded from base state instead of stalling the primary.
package repl

import (
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
	// RingBytes bounds the encoded-payload retention ring. A follower whose
	// resume point has been trimmed past is re-seeded from base state.
	// Default 4 MiB.
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

	mu        sync.Mutex
	shipped   uint64 // highest LSN handed to ship (or current at install)
	ring      []ringEntry
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

// ringEntry is one retained batch: its LSN and the fully encoded
// OpReplFrames payload (shared read-only by every shipper).
type ringEntry struct {
	lsn     uint64
	payload []byte
}

// followerState is the primary-side record of one attached follower.
type followerState struct {
	p        *Primary
	sess     FollowerSession
	next     uint64 // next LSN to send
	needBase bool
	started  bool // shipper goroutine launched (guarded by p.mu)
	applied  atomic.Uint64
	notify   chan struct{} // capacity 1: new ring entries
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
		opts.RingBytes = 4 << 20
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
	// it ships under the new epoch.
	lsn := db.SetReplicator(core.Replicator{Ship: p.ship, WaitQuorum: p.waitQuorum, Info: p.info})
	p.sealLSN = lsn
	p.mu.Lock()
	if lsn > p.shipped {
		p.shipped = lsn
	}
	p.mu.Unlock()
	return p
}

// Epoch returns the stream epoch (tests and diagnostics).
func (p *Primary) Epoch() uint64 { return p.epoch }

// ship is the hook core calls on every committed batch, on the committing
// goroutine under replMu. It encodes the batch (the record Data aliases
// pooled scratch, so encoding doubles as the copy), buffers it in the ring,
// and nudges the shippers. Nothing here blocks.
func (p *Primary) ship(b core.ReplBatch) {
	payload := wire.AppendReplBatch(nil, BatchToWire(b))
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
				f.sess.TrySend(wire.OpReplFrames, payload)
			}
		}
		return
	}
	if b.LSN > p.shipped {
		p.shipped = b.LSN
	}
	p.ring = append(p.ring, ringEntry{lsn: b.LSN, payload: payload})
	p.ringBytes += len(payload)
	for p.ringBytes > p.opts.RingBytes && len(p.ring) > 1 {
		p.ringBytes -= len(p.ring[0].payload)
		p.ring = p.ring[1:]
	}
	for _, f := range p.followers {
		select {
		case f.notify <- struct{}{}:
		default:
		}
	}
}

// ErrDeposed is returned by AddFollower when the dialing follower presents
// a newer epoch than this primary's: proof that a promotion happened
// elsewhere. The primary fences itself before returning it.
var ErrDeposed = errors.New("repl: follower presented a newer epoch; this primary is deposed and now fenced")

// AddFollower registers a session at its requested resume position. It
// returns the primary's epoch, the current shipped LSN, and whether the
// follower must install base state before streaming (unshared history, a
// position ahead of this primary, or one trimmed past the ring's floor).
// The stream does not flow until StartShipper — the caller enqueues the
// OpReplWelcome response in between, so the handshake always precedes the
// first push on the session's queue.
//
// Resume rules, by the follower's (epoch, startLSN):
//   - epoch > ours: a newer primary exists. Fence self, reject (ErrDeposed).
//   - epoch == ours: same history; resume iff not ahead and the ring covers
//     (startLSN, shipped].
//   - epoch == our predecessor's and startLSN <= the seal: the previous
//     epoch's prefix up to the seal is byte-identical to ours, so the
//     follower may resume (ring coverage permitting) — this is how the
//     survivors of a promotion re-handshake without a base copy.
//   - anything else with history (startLSN > 0): LSNs from a lineage we
//     cannot verify we share — re-seed from base state.
//   - startLSN 0: no history to diverge; stream from scratch.
func (p *Primary) AddFollower(sess FollowerSession, startLSN, epoch uint64) (primaryEpoch, shippedLSN uint64, needBase bool, err error) {
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
		needBase = startLSN > p.shipped
	case p.prevEpoch != 0 && epoch == p.prevEpoch && startLSN <= p.sealLSN:
		// Shared prefix: the follower holds a prefix of the history we were
		// promoted (or restarted) from.
		needBase = false
	default:
		needBase = startLSN > 0
	}
	if !needBase && startLSN < p.shipped {
		// Batches (startLSN, shipped] must all still be in the ring;
		// anything older was trimmed (or predates this primary entirely).
		if len(p.ring) == 0 || startLSN+1 < p.ring[0].lsn {
			needBase = true
		}
	}
	f := &followerState{
		p:        p,
		sess:     sess,
		next:     startLSN + 1,
		needBase: needBase,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	f.applied.Store(startLSN)
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

// Ack records a follower's applied LSN and completes any quorum waiters the
// ack satisfies. Acks arrive in order on the session's reader goroutine;
// applied LSNs are monotone per follower, so an ack at LSN n covers every
// waiter at or below n. An ack stamped with a newer epoch than ours is
// proof of a promotion elsewhere — the primary fences itself.
func (p *Primary) Ack(sessionID, appliedLSN, epoch uint64) {
	if epoch > p.epoch {
		p.FenceIfNewer(epoch)
		return
	}
	p.mu.Lock()
	f := p.followers[sessionID]
	if f != nil && appliedLSN > f.applied.Load() {
		f.applied.Store(appliedLSN)
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

// ackedByLocked counts followers whose applied LSN has reached lsn.
func (p *Primary) ackedByLocked(lsn uint64) int {
	n := 0
	for _, f := range p.followers {
		if f.applied.Load() >= lsn {
			n++
		}
	}
	return n
}

// waitQuorum is core.Replicator.WaitQuorum (Options.SyncReplicas): it
// blocks the committing goroutine — after local durability, with no locks
// held — until k followers have acked lsn, the timeout fires
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
// minimum applied LSN across them (0 when none are attached).
func (p *Primary) info() (peers int, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var min uint64
	first := true
	for _, f := range p.followers {
		a := f.applied.Load()
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
// ring from f.next, blocking on the session's queue (its own pace) and on
// notify when caught up.
func (f *followerState) run() {
	p := f.p
	defer p.wg.Done()
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
		p.mu.Lock()
		if len(p.ring) > 0 && f.next < p.ring[0].lsn {
			// Trimmed past our resume point while we slept: re-seed.
			f.needBase = true
			p.mu.Unlock()
			continue
		}
		if len(p.ring) == 0 && f.next <= p.shipped {
			// Batches committed before this primary attached its hook are
			// not in the ring; only base state can cover them.
			f.needBase = true
			p.mu.Unlock()
			continue
		}
		var pend []ringEntry
		for _, e := range p.ring {
			if e.lsn >= f.next {
				pend = append(pend, e)
			}
		}
		p.mu.Unlock()
		if len(pend) == 0 {
			select {
			case <-f.notify:
			case <-f.stop:
				return
			}
			continue
		}
		for _, e := range pend {
			if !f.sess.Send(wire.OpReplFrames, e.payload, f.stop) {
				f.drop()
				return
			}
			f.next = e.lsn + 1
		}
	}
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
