package core

// commit.go is the whole commit path: one straight-line list of stages
// (commit, below), each a named function whose doc comment is one row of the
// stage table in DESIGN.md §4k — what the stage may hold, what it may block
// on, and what it publishes. The ordering rationale lives in that table and
// nowhere else; a change to the commit path adds or edits a row.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/txn"
	"sentinel/internal/wal"
)

// ErrHeapBehind is the fail-stop error after a heap write failed behind a
// durable WAL commit record. That commit still counts — it shipped, its
// versions installed, its caller saw success, and recovery replays it — but
// the heap no longer mirrors the log, so every later data-bearing commit,
// checkpoint and base-state capture is refused (a checkpoint would truncate
// the WAL past the unapplied batch) until the database is reopened and redo
// recovery repairs the heap.
var ErrHeapBehind = errors.New("core: heap apply failed behind a durable commit; reopen the database to recover from the WAL")

// heapErr returns the ErrHeapBehind fail-stop error once a heap apply failed
// behind its commit record, nil before.
func (db *Database) heapErr() error {
	if e := db.heapBehind.Load(); e != nil {
		return *e
	}
	return nil
}

// commitState is what the stages of one commit hand to each other.
type commitState struct {
	lsn uint64 // MVCC commit LSN; 0 for a read-only commit
	// batch is the enqueued WAL batch, non-nil from a successful Enqueue in
	// logCommit until awaitDurable returns it to the pool.
	batch *commitScratch
	// ticket is the log position awaitDurable waits for: the batch's own,
	// or, for a commit that logged nothing, the last batch enqueued before
	// it released its locks (0 when there is nothing to wait for).
	ticket  wal.Ticket
	replLSN uint64 // replication LSN of the batch; 0 when none was logged
}

// commitScratch is the reusable per-commit encoding state: the write set's
// OIDs, the records (commit record last), the class name of each record
// before it, and one flat buffer every object image of the batch is encoded
// into, so record framing stops allocating per record. It is also the WAL
// payload the flush leader applies (flushed): occs are the occurrences the
// batch carries to followers, replLSN the replication LSN enqueueCommit
// numbered it with. lsn is the commit's MVCC LSN and unsettled
// counts the two parties that must both be done before it ends: the
// committer's install and the leader's apply. Commits run concurrently,
// hence a sync.Pool rather than a Database field.
type commitScratch struct {
	ids       []oid.OID
	recs      []wal.Record
	classes   []string
	buf       []byte
	occs      []event.Occurrence
	replLSN   uint64
	lsn       uint64
	unsettled atomic.Int32
}

// settle marks one party done with the batch's LSN and reports whether it
// was the last.
func (sc *commitScratch) settle() bool { return sc.unsettled.Add(-1) == 0 }

var commitScratchPool = sync.Pool{New: func() any { return new(commitScratch) }}

// Retention bounds so one huge commit does not pin a huge scratch forever.
const (
	maxCommitScratchBytes = 1 << 20
	maxCommitScratchRecs  = 1024
)

// Commit finishes the transaction: deferred rules run first (inside the
// transaction — they can still abort it), then the write set is logged and
// applied, then detached rules launch in fresh transactions. An AbortError
// from a deferred rule rolls everything back and is returned.
//
// Two errors report a transaction that DID commit durably: ErrFenced from
// the quorum wait (a follower was promoted; the commit will never be
// acknowledged and rejoining as a follower discards it) and, with
// Options.AsyncDetached, ErrDetachedStopped (Close already stopped the
// executor pool, so only the detached firings were dropped). Two report a
// transaction whose locks were already released when its log flush failed,
// so it cannot be rolled back: wal.ErrInDoubt (its group's flush failed;
// the reopen decides) and wal.ErrFailStopped from the durability wait (an
// earlier group failed first, so its batch was never written).
func (db *Database) Commit(t *Tx) error { return db.commitHead(t).Finish() }

// Pending is a commit cut after releaseCommit. The transaction is over — its
// batch queued in the WAL, its versions installed, its locks released — and
// what is left is the tail: awaitDurable → awaitQuorum → publishCommit →
// reclaimCommit → dispatchDetached. Finish runs the tail and returns what
// Commit would have; call it exactly once, and finish the Pendings of one
// caller in the order their heads ran, so pushes leave in commit order.
// Commit is head + Finish inline; internal/server parks a tail that blocks
// so its session can execute the next request while the batch flushes.
type Pending struct {
	t     *Tx         // nil when no commit started (the body failed, or Commit was misused)
	err   error       // the head's answer; non-nil means there is no tail
	start time.Time   // when Commit began
	c     commitState // what the head hands the tail
}

// Finish runs the commit's tail and returns the commit's outcome. The commit
// histogram and the TxCommit hook cover head and tail.
func (p Pending) Finish() error {
	t := p.t
	if t == nil {
		return p.err
	}
	db, err := t.db, p.err
	if err == nil {
		err = db.commitTail(t, &p.c)
	}
	// Commits are low-frequency relative to raises, so the full duration —
	// deferred drain, logging, fsync, quorum wait, detached dispatch — is
	// always timed.
	d := time.Since(p.start)
	db.met.commitH.Observe(d)
	if tr := db.tracer.Load(); tr != nil && tr.TxCommit != nil {
		tr.TxCommit(obs.TxInfo{Tx: uint64(t.inner.ID()), Duration: d, Err: err})
	}
	t.recycle()
	return err
}

// Blocks reports whether Finish will block: the head left a log position to
// wait for — its own batch, or one it may have read — and, with it, any
// quorum wait.
func (p Pending) Blocks() bool {
	return p.t != nil && p.err == nil && p.c.ticket != 0
}

// Park starts the flush of the commit's log position without waiting for it,
// for a tail that will not run Finish at once: flushes are led by awaiters,
// so a batch nobody awaits would otherwise stay queued. Finish still reports
// the flush's outcome.
func (p Pending) Park() {
	if p.Blocks() {
		go p.t.db.log.Await(p.c.ticket)
	}
}

// commitHead checks the transaction and runs the stage list's head.
func (db *Database) commitHead(t *Tx) Pending {
	if t.db != db {
		return Pending{err: fmt.Errorf("core: transaction belongs to a different database")}
	}
	if !t.Active() {
		return Pending{err: txn.ErrNotActive}
	}
	if t.snapID != 0 {
		db.endSnapshot(t, true)
		return Pending{}
	}
	p := Pending{t: t, start: time.Now()}
	p.err = db.commit(t, &p.c)
	return p
}

// commit is the stage list's head, commitTail its tail. Up to and including
// logCommit a failure aborts the transaction; once logCommit returned nil the
// commit record has its place in the WAL and the locks are released before
// it is durable, so a failed flush can no longer abort it (awaitDurable). A
// fenced quorum wait skips only the two stages that publish the commit to
// the outside.
func (db *Database) commit(t *Tx, c *commitState) error {
	if err := db.drainDeferred(t); err != nil {
		db.Abort(t)
		return err
	}
	if err := db.logCommit(t, c); err != nil {
		db.Abort(t)
		return fmt.Errorf("core: commit not durable (transaction aborted): %w", err)
	}
	db.installCommit(t, c)
	db.releaseCommit(t)
	return nil
}

func (db *Database) commitTail(t *Tx, c *commitState) error {
	if err := db.awaitDurable(c); err != nil {
		return err
	}
	err := db.awaitQuorum(c.replLSN)
	if err == nil {
		db.publishCommit(t)
	}
	db.reclaimCommit(t)
	if err == nil {
		err = db.dispatchDetached(t)
	}
	return err
}

// drainDeferred runs deferred-coupling rules until quiescent (§4.4): rules
// fired here may write, raise events, and schedule more deferred work.
//
//	holds:     the transaction's 2PL locks and pins
//	blocks on: whatever rule bodies block on (2PL waits; deadlock victims abort)
//	publishes: nothing — every effect is in the transaction and undoable
func (db *Database) drainDeferred(t *Tx) error {
	for t.deferred.Len() > 0 {
		batch := t.deferred.Drain()
		for i := range batch {
			if err := db.runFiring(t, &batch[i], 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// logCommit is the decision point: it allocates the MVCC commit LSN, encodes
// the persistent part of the write set and enqueues it in the WAL's group
// commit (enqueueCommit), which gives the batch its place in the log and its
// replication LSN and ships it, without waiting for the flush. An error — a
// fenced primary, a heap already behind its log, a fail-stopped log — leaves
// nothing in the WAL and the caller aborts; nil means the batch is queued. A
// commit that logs nothing notes the last batch queued before it instead: it
// may have read that batch's images.
//
//	holds:     2PL locks, pins; ckptMu shared and replMu around the Enqueue and Ship only
//	blocks on: ckptMu (a running checkpoint or base-state capture); replMu (another committer's Ship)
//	publishes: the batch's place in the log; the replication LSN; the batch, to the replicator
func (db *Database) logCommit(t *Tx, c *commitState) error {
	if len(t.dirty) == 0 && len(t.created) == 0 && len(t.deleted) == 0 {
		// Read-only: nothing to log or install, but the transaction may
		// have read a queued batch.
		if db.log != nil {
			c.ticket = db.log.Last()
		}
		return nil
	}
	// Nothing a fenced (deposed) primary writes can ever be acknowledged
	// (see Database.Fence), so it adds nothing to its history.
	if db.fenced.Load() {
		db.met.fencedWrites.Add(1)
		return ErrFenced
	}
	if err := db.heapErr(); err != nil {
		return err
	}
	// Bump versions on touched objects regardless of persistence. Safe
	// against concurrent snapshot readers: every dirty object either has an
	// open writer window (readers serve its chain, not the object) or is an
	// uncommitted create (invisible to every snapshot).
	for id := range t.dirty {
		if o := db.objectByID(id); o != nil {
			o.BumpVersion()
		}
	}
	c.lsn = db.lsn.begin()
	if db.store == nil {
		return nil
	}
	sc := encodeWriteSet(db, t)
	if len(sc.recs) == 0 {
		sc.release()
		c.ticket = db.log.Last()
		return nil
	}
	// Once enqueued the batch belongs to whichever goroutine leads its
	// flush, so everything it ships goes in first.
	sc.occs, t.replOccs = t.replOccs, nil
	sc.lsn = c.lsn
	sc.unsettled.Store(2)
	ticket, err := db.enqueueCommit(sc)
	if err != nil {
		db.lsn.end(c.lsn) // abandoned: nothing installs at this LSN
		sc.release()
		return err
	}
	c.batch, c.ticket, c.replLSN = sc, ticket, sc.replLSN
	return nil
}

// enqueueCommit numbers the batch with the next replication LSN, enqueues it
// and hands it to the replicator, together with the occurrences its
// transaction raised — all under ckptMu shared and replMu, so
// replication-LSN order is log order (a commit that read another's write is
// behind it in the log, and follower acks are monotone, so one ack at the
// highest satisfies every quorum waiter below it) and Checkpoint and
// ReplBaseState, which hold ckptMu exclusive and flush every queued batch,
// record a heap holding exactly the batches numbered 1..replLSN. The LSN
// advances whether or not anything is attached: it counts the database's
// committed batches, and a follower attaching later needs the count dense.
// The batch ships before it is durable: a follower logs it while the primary
// flushes, and exposes it only once the durable mark covers it (flushed).
// Ship only encodes and buffers (see Replicator).
func (db *Database) enqueueCommit(sc *commitScratch) (wal.Ticket, error) {
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	db.replMu.Lock()
	defer db.replMu.Unlock()
	sc.replLSN = db.replLSN + 1
	ticket, err := db.log.Enqueue(sc.recs, db.opts.SyncOnCommit, sc)
	if err != nil {
		return 0, err
	}
	db.replLSN = sc.replLSN
	if ship := db.repl.Load().Ship; ship != nil {
		ship(ReplBatch{LSN: sc.replLSN, Recs: sc.recs, Occs: sc.occs})
	}
	return ticket, nil
}

// encodeWriteSet builds the WAL batch for the transaction's persistent write set:
// one update per live created or dirty object, one delete per deleted
// pre-existing object, then the commit record. Images are encoded into the
// pooled flat buffer; each record's Data is a capped sub-slice, so a later
// realloc of the buffer cannot alias over it.
//
// The records come in write-set order, the same for every run of the same
// transaction: __ClassDef images first, so a replica registers a class before
// it decodes the instances the batch carries, then the rest by OID.
func encodeWriteSet(db *Database, t *Tx) *commitScratch {
	sc := commitScratchPool.Get().(*commitScratch)
	ids, recs, classes, buf := sc.ids[:0], sc.recs[:0], sc.classes[:0], sc.buf[:0]
	for id := range t.created {
		if !t.deleted[id] {
			ids = append(ids, id)
		}
	}
	for id := range t.dirty {
		if !t.created[id] && !t.deleted[id] {
			ids = append(ids, id)
		}
	}
	for id := range t.deleted {
		if !t.created[id] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	txid := uint64(t.inner.ID())
	for _, classDefs := range [2]bool{true, false} {
		for _, id := range ids {
			if t.deleted[id] {
				if !classDefs {
					recs = append(recs, wal.Record{Type: wal.RecDelete, Tx: txid, OID: id})
					classes = append(classes, "")
				}
				continue
			}
			o := db.objectByID(id)
			if o == nil || !o.Class().Persistent || (o.Class().Name == SysClassDefClass) != classDefs {
				continue
			}
			start := len(buf)
			buf = o.Encode(buf)
			recs = append(recs, wal.Record{Type: wal.RecUpdate, Tx: txid, OID: id, Data: buf[start:len(buf):len(buf)]})
			classes = append(classes, o.Class().Name)
		}
	}
	if len(recs) > 0 {
		recs = append(recs, wal.Record{Type: wal.RecCommit, Tx: txid})
	}
	sc.ids, sc.recs, sc.classes, sc.buf = ids, recs, classes, buf
	return sc
}

// release returns the encode buffers to the pool. The WAL append, the heap
// apply and the ship hook all copy, so nothing retains the record Data past
// awaitDurable; the pointers are zeroed so the pool pins no images. The
// occurrence slice went to the replicator, which may keep it.
func (sc *commitScratch) release() {
	for i := range sc.recs {
		sc.recs[i].Data = nil
	}
	sc.occs, sc.replLSN, sc.lsn = nil, 0, 0
	if cap(sc.recs) > maxCommitScratchRecs {
		sc.ids, sc.recs, sc.classes = nil, nil, nil
	}
	if cap(sc.buf) > maxCommitScratchBytes {
		sc.buf = nil
	}
	commitScratchPool.Put(sc)
}

// installCommit publishes the write set's versions at the commit LSN; with
// the 2PL locks still held, per-object LSN order equals commit order. The
// LSN ends once the versions are installed and the batch is flushed and
// applied — here or in flushed, whichever is second — so no snapshot sees
// them before the batch is durable and in the heap. A commit that logged
// nothing ends it here.
//
//	holds:     2PL locks, pins; directory shard locks, one at a time, each
//	           released before db.mu shared → an index's mutex (reindex)
//	blocks on: nothing
//	publishes: the new versions and index entries, to snapshots once the
//	           LSN ends
func (db *Database) installCommit(t *Tx, c *commitState) {
	if c.lsn == 0 {
		return
	}
	db.installVersions(t, c.lsn)
	if c.batch == nil || c.batch.settle() {
		db.lsn.end(c.lsn)
	}
}

// releaseCommit ends the transaction before its batch is durable (early lock
// release): 2PL locks, then the directory pins (undo records can no longer
// run). A waiter that reads the write set enqueues its own batch behind this
// one, so it can never become durable first. Detectors of tx-scoped rules
// the transaction fed reset here.
//
//	holds:     nothing of its own
//	blocks on: nothing
//	publishes: the write set to lock waiters
func (db *Database) releaseCommit(t *Tx) {
	t.finished = true
	t.resetTouched()
	_ = t.inner.Commit() // cannot fail: Active was checked and only this goroutine ends t
	t.releasePins()
}

// awaitDurable, the first stage of the tail — which may run on another
// goroutine than the head (Pending.Finish) — waits until the commit's place
// in the log is flushed: its own batch, or — for a commit that logged nothing —
// every batch queued before it released its locks, since it may have read
// their images (Aether's flush-pipelining rule; free while the log is
// idle). By then the flush leader has applied the batch and announced it
// durable (flushed). A failed flush cannot roll back a transaction whose locks are
// gone, so the commit is reported in doubt; its LSN never ends, and the log
// stays fail-stopped until a reopen's recovery decides.
//
//	holds:     nothing
//	blocks on: the WAL group flush (leading it when nobody else does)
//	publishes: nothing
func (db *Database) awaitDurable(c *commitState) error {
	var err error
	if c.ticket != 0 {
		err = db.log.Await(c.ticket)
	}
	if c.batch == nil {
		if err != nil {
			return fmt.Errorf("core: commit read state whose outcome is in doubt (reopen the database): %w", err)
		}
		return nil
	}
	c.batch.release()
	c.batch = nil
	switch {
	case errors.Is(err, wal.ErrInDoubt):
		return fmt.Errorf("core: commit outcome in doubt (reopen the database to learn it): %w", err)
	case err != nil:
		return fmt.Errorf("core: commit never logged, the log fail-stopped first (reopen the database): %w", err)
	}
	return nil
}

// flushed is the WAL's flush hook: the leader of each successful group flush
// runs it with the group's batches in log order, before any member's
// awaitDurable returns. Applying there keeps the WAL rule — the heap holds
// only durable images. Then the group's highest replication LSN becomes the
// durable mark (Replicator.Durable): groups flush one at a time in log
// order, so every batch at or below it is durable. Each batch's LSN ends
// here when its committer installed already.
//
//	holds:     nothing of its own; a checkpoint may hold ckptMu exclusive, awaiting this flush
//	blocks on: applyCommit's page I/O
//	publishes: see applyCommit; the stable LSN; the durable mark, to the replicator
func (db *Database) flushed(payloads []any) {
	var mark uint64
	for _, p := range payloads {
		if sc, ok := p.(*commitScratch); ok {
			db.applyCommit(sc)
			mark = sc.replLSN
			if sc.settle() {
				db.lsn.end(sc.lsn)
			}
		}
	}
	if durable := db.repl.Load().Durable; durable != nil && mark != 0 {
		durable(mark)
	}
}

// applyCommit applies a durable batch to the heap (redo applied eagerly; the
// log protects it), each image with its class, and marks the written
// directory entries clean. An entry a later in-flight commit re-dirtied
// stays resident anyway: its LSN is above the watermark until that commit's
// own apply. A heap error cannot un-commit: the first one stops the apply
// (this batch's remaining entries and every later batch's stay dirty, hence
// resident, so memory keeps the committed state) and puts the database into
// the ErrHeapBehind fail-stop.
//
//	holds:     nothing of its own (run by flushed)
//	blocks on: buffer-pool page I/O
//	publishes: heap images and their classes, clean bits
func (db *Database) applyCommit(sc *commitScratch) {
	if db.heapErr() != nil {
		return
	}
	for i, cls := range sc.classes {
		r := sc.recs[i]
		if err := db.storeRecord(r, cls); err != nil {
			err = fmt.Errorf("%w (object %s: %v)", ErrHeapBehind, r.OID, err)
			db.heapBehind.CompareAndSwap(nil, &err)
			return
		}
		if r.Type == wal.RecUpdate {
			db.dir.setDirty(r.OID, false)
		}
	}
}

// awaitQuorum blocks until Options.SyncReplicas followers durably logged and
// acked the commit's batch. The batch shipped at enqueue, so the wait
// overlaps the primary's own flush. A timeout degrades the commit to asynchronous (counted,
// not failed). ErrFenced means a follower was promoted while we waited: the
// commit is durable here but will never be acknowledged.
//
//	holds:     nothing — the ack path (follower sessions → Replicator) shares no state with this goroutine
//	blocks on: follower acks, bounded by Options.QuorumTimeout
//	publishes: nothing
func (db *Database) awaitQuorum(replLSN uint64) error {
	k := db.opts.SyncReplicas
	wait := db.repl.Load().WaitQuorum
	if k <= 0 || replLSN == 0 || wait == nil {
		return nil
	}
	err := wait(replLSN, k, db.opts.QuorumTimeout)
	if errors.Is(err, ErrQuorumTimeout) {
		db.met.quorumDegraded.Add(1)
		return nil
	}
	return err
}

// publishCommit lets the commit's occurrences leave the process: matched
// remote-sink pushes first (ahead of detached dispatch, so a subscriber
// watching both an event and a detached rule's effect sees them in that
// order), then, for occurrences no shipped batch carried (the commit logged
// nothing), an event-only batch so follower-side subscribers see what
// primary-side ones do. Skipped on ErrFenced.
//
//	holds:     nothing; replMu around the event-only Ship
//	blocks on: nothing — DeliverEvent and Ship enqueue into bounded buffers
//	publishes: occurrences to remote subscribers and followers
func (db *Database) publishCommit(t *Tx) {
	db.fanoutPushes(t.pushes)
	t.pushes = nil
	if len(t.replOccs) > 0 {
		db.replMu.Lock()
		if ship := db.repl.Load().Ship; ship != nil {
			ship(ReplBatch{Occs: t.replOccs})
		}
		db.replMu.Unlock()
		t.replOccs = nil
	}
}

// reclaimCommit frees what the commit made dead. Committed deletes drop
// their tombstoned entries once no active snapshot can still read them
// (usually at once; otherwise the chain sweep does when that snapshot
// releases); the sweep prunes version chains; the WAL is checkpointed when
// it outgrew Options.CheckpointBytes; and residency is trimmed — a
// create-heavy transaction grows it without faulting, and commit is where
// its entries turned clean. It runs for every commit that reached the WAL,
// fenced or not; only the ErrHeapBehind fail-stop skips it, because there
// the directory holds the sole copy of the unapplied batch.
//
//	holds:     nothing on entry; shard locks, ccMu, and — for a checkpoint — ckptMu exclusive
//	blocks on: checkpoint I/O and the flush of every queued batch; ckptMu behind an Enqueue
//	publishes: freed entries; a truncated WAL
func (db *Database) reclaimCommit(t *Tx) {
	if db.heapErr() != nil {
		return
	}
	if len(t.deleted) > 0 {
		w := db.watermark()
		for id := range t.deleted {
			db.dir.dropDeleted(id, w)
			db.pruneConsumerState(id)
		}
	}
	db.maybeSweepChains()
	db.maybeAutoCheckpoint()
	db.maybeEvict()
}

// dispatchDetached launches the commit's detached-coupling firings, each in
// its own transaction after the triggering one committed (§4.4), in
// conflict-resolution order. With the executor pool running they are
// enqueued atomically — ErrDetachedStopped once Close stopped it; the
// transaction is durable, only its firings are dropped. Without a pool
// (AsyncDetached off, or a schema hook committing before Open started it)
// they run here, synchronously. Skipped on ErrFenced.
//
//	holds:     nothing
//	blocks on: queue backpressure (pool workers bypass it); synchronous mode runs whole transactions
//	publishes: the firings to the executor pool
func (db *Database) dispatchDetached(t *Tx) error {
	if len(t.detached) == 0 {
		return nil
	}
	agenda := rule.NewAgenda(db.currentStrategy())
	for _, f := range t.detached {
		agenda.AddFiring(f)
	}
	t.detached = nil
	ordered := agenda.Drain()
	if db.detached != nil {
		return db.detached.enqueue(ordered, t.fromDetachedWorker)
	}
	for i := range ordered {
		db.execDetached(&ordered[i], false)
	}
	return nil
}
