package core

// repl.go is the core half of WAL-shipped replication (internal/repl is the
// network half). The contract between the two:
//
//   - Every committed WAL batch gets a replication LSN — a dense counter of
//     committed batches since database creation, persisted in the checkpoint
//     meta and recovered as checkpoint-LSN + replayed-commit-count. The LSN
//     is a property of the database, not of the shipping service: it keeps
//     advancing while no follower is attached, so a follower can always name
//     the exact prefix it holds.
//   - A primary installs a Replicator (SetReplicator). The commit head calls
//     its Ship under replMu in the same critical section as the WAL enqueue,
//     so batches ship in log order, before they are durable. A commit that
//     read another's write is behind it in the log, so dependent commits
//     ship in commit order; independent commits ship in an arbitrary but
//     valid serialization order. The WAL flush leader then calls Durable
//     with the highest replication LSN it made durable: the durable mark.
//   - A follower opens with Options.Replica and applies batches through
//     ApplyReplicated. It WAL-logs and fsyncs each batch on receipt (what it
//     acks: ReplLogged), but exposes a batch — installs the images through
//     the directory with full MVCC versioning, keeps the catalogs and
//     secondary indexes current, fans the shipped occurrences out to local
//     sink subscribers — only once the primary's durable mark covers it, so
//     no follower shows a batch the primary may still lose. Logged batches
//     the mark does not cover yet form the tail; the follower's recovery
//     keeps it pending, and a re-shipped batch replaces its pending copy.
//     Delivery to followers is therefore at-least-once across follower
//     crashes: batches above the applied LSN are re-shipped and re-delivered.
//
// Occurrences ride the data batch of the transaction that raised them; a
// transaction that raised events but wrote nothing durable ships an
// event-only batch (LSN 0) after it commits, so follower-side subscribers
// see the same occurrence stream primary-side subscribers do.

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/value"
	"sentinel/internal/wal"
)

// noMark is replMarkLogged for a replica WAL that records no mark yet.
const noMark = ^uint64(0)

// ErrReplicaWrite rejects write intents on a replica: the only writer of a
// follower database is the replication apply loop.
var ErrReplicaWrite = errors.New("core: database is a read-only replica (writes happen on the primary)")

// ErrFenced rejects data-bearing commits on a deposed primary: a newer
// replication epoch exists (a follower was promoted), so nothing this node
// commits can ever be acknowledged into the cluster's history. A commit
// that fails with ErrFenced during the quorum wait is durable locally but
// unacknowledged; rejoining as a follower discards it during re-seed.
var ErrFenced = errors.New("core: primary is fenced (a newer replication epoch exists)")

// ErrQuorumTimeout is the sentinel Replicator.WaitQuorum returns when K
// follower acks did not arrive within Options.QuorumTimeout. The commit
// pipeline maps it to a successful (degraded-to-async) commit plus a
// metric; it never escapes to the caller.
var ErrQuorumTimeout = errors.New("core: quorum commit timed out waiting for follower acks")

// ReplBatch is one shipped commit: the redo records of a single WAL commit
// batch plus the occurrences its transaction raised. LSN 0 marks an
// event-only batch (nothing durable to replay — fan-out only); one with no
// occurrences either is a bare mark. Mark is the primary's durable
// replication LSN when the batch left it; a follower exposes nothing above
// the highest mark it received. Ship leaves it 0 (the replicator stamps it
// at send).
type ReplBatch struct {
	LSN  uint64
	Mark uint64
	Recs []wal.Record
	Occs []event.Occurrence
}

// Replicator is the one seam between the commit pipeline and a replication
// service; a nil func means that part is absent. internal/repl's Primary
// fills all four, its Follower only Info, test fakes Ship and Durable.
type Replicator struct {
	// Ship receives every batch once it has its place in the WAL, in log
	// order, on the committing goroutine under ckptMu shared and replMu —
	// before it is durable, which is why followers wait for Durable's mark
	// to expose it. It must only encode and buffer — never block on I/O —
	// which is the whole no-stall argument: a dead-slow follower costs the
	// commit path one mutex and one encode. It must not retain the records
	// (their Data aliases pooled commit scratch); it may keep Occs.
	Ship func(ReplBatch)
	// Durable receives the durable mark: after each successful WAL group
	// flush, the group's highest replication LSN, on the flush leader, in
	// increasing order. Every batch at or below it is durable here. It must
	// not block.
	Durable func(lsn uint64)
	// WaitQuorum blocks until k followers durably acked lsn or the timeout
	// passes. The pipeline calls it with no locks held. nil acknowledges,
	// ErrQuorumTimeout degrades the commit to async, ErrFenced fails the
	// caller's Commit (the transaction stays durable locally).
	WaitQuorum func(lsn uint64, k int, timeout time.Duration) error
	// Info reports the peer side for the Replication stats group: on a
	// primary (attached followers, min applied LSN across them), on a
	// replica (connected primaries — 0 or 1, the primary's shipped LSN).
	Info func() (peers int, lsn uint64)
}

// SetReplicator installs r (the zero Replicator detaches) and returns the
// current replication LSN — atomically with the installation, so the caller
// knows exactly which prefix Ship will never see and must serve from base
// state instead.
func (db *Database) SetReplicator(r Replicator) (lsn uint64) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	db.repl.Store(&r)
	return db.replLSN
}

// ReplLSN returns the replication LSN: on a primary the last batch queued
// in the WAL, on a replica the last applied (exposed) one.
func (db *Database) ReplLSN() uint64 {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.replLSN
}

// ReplLogged returns the highest replication LSN a replica holds in its
// fsynced log — what it acks, ahead of ReplLSN by the tail still waiting for
// the primary's durable mark. On a primary it is ReplLSN.
func (db *Database) ReplLogged() uint64 {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return max(db.replLSN, db.replLogged)
}

// Replica reports whether the database was opened as a read-only follower.
func (db *Database) Replica() bool { return db.opts.Replica }

// ReplEpoch returns the replication epoch this database's history belongs
// to (0 until a primary ever ran over the directory).
func (db *Database) ReplEpoch() uint64 {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.replEpoch
}

// SetReplEpoch moves the database onto a new replication epoch. The caller
// (internal/repl) checkpoints afterwards to make the epoch durable —
// metaBlob persists epoch and LSN together, so the pair is atomic on disk.
// On a replica a new epoch's primary may reuse every LSN above what the
// replica logged, so a mark an older primary sent covers nothing past it.
func (db *Database) SetReplEpoch(e uint64) {
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.ckptMu.RLock()
	defer db.ckptMu.RUnlock()
	db.replMu.Lock()
	defer db.replMu.Unlock()
	if e != db.replEpoch {
		db.replMark = min(db.replMark, max(db.replLSN, db.replLogged))
	}
	db.replEpoch = e
}

// replPosition reads (LSN, epoch) atomically.
func (db *Database) replPosition() (lsn, epoch uint64) {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.replLSN, db.replEpoch
}

// Fence marks this database as a deposed primary: every subsequent
// data-bearing commit aborts with ErrFenced. Reads, snapshots and
// subscriptions keep working (the node can still serve as a stale read
// replica until it rejoins). Fencing is one-way; rejoining the cluster
// means reopening the directory as a follower.
func (db *Database) Fence() {
	if db.fenced.CompareAndSwap(false, true) {
		db.met.fencedWrites.Add(0) // touch the counter so it exports even if never hit
	}
}

// Fenced reports whether Fence has been called.
func (db *Database) Fenced() bool { return db.fenced.Load() }

// replicaWriteBlocked gates the write chokepoints (NewObject, exclusive
// lockObject): a replica rejects application writes once Open has finished.
// Recovery and the system-object replay run pre-ready and stay writable
// (they reconstruct state, they do not create it).
func (db *Database) replicaWriteBlocked() bool {
	return db.opts.Replica && db.ready
}

// ReplBaseObject is one object image in a base-state capture.
type ReplBaseObject struct {
	ID  oid.OID
	Img []byte
}

// ReplBaseState is a consistent full copy of the committed heap: what a
// fresh (or lagged-beyond-the-ring) follower installs before streaming.
type ReplBaseState struct {
	LSN     uint64 // the replication LSN the images correspond to
	Objects []ReplBaseObject
}

// ReplBaseState captures the heap at an exact replication LSN. It holds
// ckptMu exclusively for the duration of the scan: a commit holds ckptMu
// shared around its WAL enqueue, and the capture awaits every batch enqueued
// before it (each was numbered and shipped at its enqueue and is applied by
// its flush), so the heap contains
// precisely the batches numbered 1..ReplLSN — the follower installing this
// state resumes the stream at LSN+1 with nothing lost and nothing doubled.
// Commits block while the scan copies images; base syncs are rare (fresh
// follower, or one lagged past the ring), so the pause is the price of an
// exact cut.
func (db *Database) ReplBaseState() (*ReplBaseState, error) {
	if db.store == nil {
		return nil, errors.New("core: base state requires a persistent database")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := db.awaitQueued(); err != nil {
		return nil, err
	}
	st := &ReplBaseState{LSN: db.ReplLSN()}
	err := db.store.Scan(func(id oid.OID, data []byte) error {
		img := make([]byte, len(data))
		copy(img, data)
		st.Objects = append(st.Objects, ReplBaseObject{ID: id, Img: img})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ApplyBaseState installs a full primary base state on a live replica: every
// image in objs becomes the object's committed state, local committed
// objects absent from the base state are deleted, and the replication LSN
// jumps to lsn. The images and deletes form one batch in write-set order,
// applied by applyBatch like a shipped one, so snapshot readers begun before
// the install keep their pre-install view and the catalogs and indexes
// follow. A logged tail is dropped: the base state supersedes it. The
// install bypasses the WAL (logging a full base copy would defeat the point
// of syncing); the trailing Checkpoint makes it durable and stamps the new
// LSN into the heap meta. A crash mid-install leaves a torn
// heap with a stale checkpoint LSN — the next handshake detects the stale
// position (or the epoch mismatch) and re-syncs, and full-image redo is
// idempotent, so the tear never survives contact with the primary.
func (db *Database) ApplyBaseState(lsn uint64, objs []ReplBaseObject) error {
	if !db.opts.Replica {
		return errors.New("core: ApplyBaseState on a non-replica database")
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()

	recs := make([]wal.Record, 0, len(objs))
	keep := make(map[oid.OID]bool, len(objs))
	for _, o := range objs {
		keep[o.ID] = true
		recs = append(recs, wal.Record{Type: wal.RecUpdate, OID: o.ID, Data: o.Img})
	}
	for _, o := range db.store.Objects() {
		if !keep[o.ID] {
			recs = append(recs, wal.Record{Type: wal.RecDelete, OID: o.ID})
		}
	}
	classDef := value.AppendValue(nil, value.Str(SysClassDefClass)) // every __ClassDef image starts so
	slices.SortFunc(recs, func(a, b wal.Record) int {
		if ca, cb := bytes.HasPrefix(a.Data, classDef), bytes.HasPrefix(b.Data, classDef); ca != cb {
			if ca {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.OID, b.OID)
	})

	db.ckptMu.RLock()
	err := db.applyBatch(recs)
	if err == nil {
		// The base state is the primary's durable heap at lsn.
		db.replTail, db.replMark = nil, lsn
	}
	db.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	db.replMu.Lock()
	db.replLSN, db.replLogged = lsn, lsn
	db.replMu.Unlock()
	// The heap was replaced wholesale — OIDs may now name objects of
	// different classes. Recovery-style global fallback rather than
	// per-key scopes.
	db.applyConsumerInvalidation(scopeAll())
	return db.Checkpoint()
}

// ApplyReplicated takes shipped batches on a replica, in order. Each run of
// new data batches is WAL-logged with one write and one fsync, together with
// the highest mark received so far (ReplLogged then covers it: what the
// follower acks). A batch is exposed — applyBatch installs it at its own
// commit LSN, the applied LSN moves to it, its occurrences fan out to local
// sink subscribers — only once a mark covers it; until then it waits in the
// tail. An event-only batch (LSN 0) fans out after everything before it
// that its mark exposes; a bare mark only exposes.
//
// Batches must arrive in LSN order with no gaps; a gap takes the batches
// before it and returns an error, and the caller (internal/repl's follower
// loop) tears the stream down and re-handshakes. A batch at or below the
// applied LSN is a duplicate (a resume overlap) and is dropped without
// re-delivery; one in the tail replaces its pending copy's occurrences (a
// tail recovered from the WAL has none).
func (db *Database) ApplyReplicated(bs ...ReplBatch) error {
	if !db.opts.Replica {
		return errors.New("core: ApplyReplicated on a non-replica database")
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	for len(bs) > 0 {
		n := 0
		for n < len(bs) && (bs[n].LSN != 0 || len(bs[n].Occs) == 0) {
			n++
		}
		n = min(n+1, len(bs)) // an event-only batch ends its run
		if err := db.applyRun(bs[:n]); err != nil {
			return err
		}
		bs = bs[n:]
	}
	db.maybeAutoCheckpoint()
	return nil
}

// applyRun takes one run (see ApplyReplicated). It exposes what the run's
// marks cover before logging the run's new batches, so a pending batch is
// not held behind their fsync. Caller holds applyMu.
func (db *Database) applyRun(run []ReplBatch) error {
	db.ckptMu.RLock()
	for _, b := range run {
		db.replMark = max(db.replMark, b.Mark)
	}
	db.ckptMu.RUnlock()
	fresh, gap := db.admit(run)
	if err := db.exposeTail(); err != nil {
		return err
	}
	if len(fresh) > 0 {
		if err := db.logTail(fresh); err != nil {
			return err
		}
		if err := db.exposeTail(); err != nil {
			return err
		}
	}
	if gap != nil {
		return gap
	}
	if last := run[len(run)-1]; last.LSN == 0 {
		db.fanoutReplicated(last.Occs)
	}
	return nil
}

// admit sorts a run's data batches against the replica's position: it
// drops duplicates, hands a re-shipped tail batch's occurrences to its
// pending copy, and returns the batches that extend the log, up to the
// first gap. Caller holds applyMu.
func (db *Database) admit(run []ReplBatch) (fresh []ReplBatch, gap error) {
	applied := db.replLSN
	next := applied + uint64(len(db.replTail)) + 1
	for _, b := range run {
		switch {
		case b.LSN <= applied: // event-only, bare mark or duplicate
		case b.LSN < next:
			db.replTail[b.LSN-applied-1].Occs = b.Occs
		case b.LSN == next:
			fresh = append(fresh, b)
			next++
		default:
			return fresh, fmt.Errorf("core: replication gap: logged LSN %d, got batch %d", next-1, b.LSN)
		}
	}
	return fresh, nil
}

// logTail logs new batches behind the tail: one write and (SyncOnCommit)
// one fsync for all of them, plus a RecMark when the current mark is not the
// log's last one — replica recovery reads it to tell the exposed prefix from
// the pending tail. Redo rule, same as the primary: log before apply. Caller
// holds applyMu.
func (db *Database) logTail(fresh []ReplBatch) error {
	var recs []wal.Record
	for _, b := range fresh {
		recs = append(recs, b.Recs...)
	}
	if db.replMark != db.replMarkLogged {
		recs = append(recs, wal.Record{Type: wal.RecMark, Tx: db.replMark})
	}
	db.ckptMu.RLock()
	err := db.log.CommitBatch(recs, db.opts.SyncOnCommit)
	if err == nil {
		db.replTail = append(db.replTail, fresh...)
		db.replMarkLogged = db.replMark
	}
	db.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	db.replMu.Lock()
	db.replLogged = fresh[len(fresh)-1].LSN
	db.replMu.Unlock()
	return nil
}

// exposeTail applies every tail batch the mark covers, in order, moves the
// applied LSN to the last one and fans their occurrences out. Before it
// touches the heap it logs the mark when the log's last one differs
// (written, not fsynced): the buffer pool may write the images back before
// the next fsync, and recovery must then redo as far as the heap got. The
// first apply error stops it with that batch still pending (it stays
// logged; the next exposure retries it). Caller holds applyMu.
func (db *Database) exposeTail() error {
	n := 0
	for n < len(db.replTail) && db.replTail[n].LSN <= db.replMark {
		n++
	}
	if n == 0 {
		return nil
	}
	var err error
	db.ckptMu.RLock()
	if db.replMark != db.replMarkLogged {
		if err = db.log.CommitBatch([]wal.Record{{Type: wal.RecMark, Tx: db.replMark}}, false); err == nil {
			db.replMarkLogged = db.replMark
		}
	}
	applied := 0
	for err == nil && applied < n {
		if err = db.applyBatch(db.replTail[applied].Recs); err == nil {
			applied++
		}
	}
	exposed := db.replTail[:applied:applied]
	if db.replTail = db.replTail[applied:]; len(db.replTail) == 0 {
		db.replTail = nil
	}
	db.ckptMu.RUnlock()
	if applied > 0 {
		db.replMu.Lock()
		db.replLSN = exposed[applied-1].LSN
		db.replMu.Unlock()
		for _, b := range exposed {
			db.fanoutReplicated(b.Occs)
		}
	}
	return err
}

// tailRecords is what a replica checkpoint carries into the truncated log:
// the pending tail's batches, then the mark they wait behind, so recovery
// keeps them pending (and reads the log as a replica's). Caller holds ckptMu
// exclusive.
func (db *Database) tailRecords() []wal.Record {
	if !db.opts.Replica {
		return nil
	}
	var recs []wal.Record
	for _, b := range db.replTail {
		recs = append(recs, b.Recs...)
	}
	return append(recs, wal.Record{Type: wal.RecMark, Tx: db.replMark})
}

// applyBatch installs one batch of replicated records, in write-set order, at
// a fresh MVCC commit LSN. It is the replica's only apply path: exposeTail
// runs it once per marked batch, ApplyBaseState once over a whole base image.
// Afterwards the batch's committed deletes, dead versions and excess residents
// are reclaimed. Caller holds applyMu and ckptMu shared.
func (db *Database) applyBatch(recs []wal.Record) error {
	c := db.lsn.begin()
	w := db.watermark()
	var deleted []oid.OID
	var err error
	for _, r := range recs {
		if r.Type != wal.RecUpdate && r.Type != wal.RecDelete {
			continue
		}
		if err = db.applyRecord(r, c, w); err != nil {
			break
		}
		if r.Type == wal.RecDelete {
			deleted = append(deleted, r.OID)
		}
	}
	db.lsn.end(c)
	if err != nil {
		return err
	}
	dw := db.watermark()
	for _, id := range deleted {
		db.dir.dropDeleted(id, dw)
	}
	db.maybeSweepChains()
	db.maybeEvict()
	return nil
}

// applyRecord applies one replicated update or delete at commit LSN c. The
// prior committed image is faulted in before the heap forgets it — a
// non-resident object's only pre-batch state is its heap image — and is
// archived into the entry's version chain, so snapshot readers older than c
// keep their view. The same prior image tells the covering secondary indexes
// and the system object's catalog loader what the record replaces.
func (db *Database) applyRecord(r wal.Record, c, w uint64) error {
	var o *object.Object
	if r.Type == wal.RecUpdate {
		var err error
		if o, err = object.Decode(r.OID, r.Data, db.reg); err != nil {
			return fmt.Errorf("core: replicated object %s: %w", r.OID, err)
		}
	}
	prev, err := db.faultObject(r.OID)
	if err != nil {
		return fmt.Errorf("core: replicated object %s: prior image: %w", r.OID, err)
	}
	// Follow the primary's OID high-water: once promoted, the replica must
	// not reissue an OID the primary handed out, even one deleted since.
	db.alloc.Advance(r.OID)
	cls := ""
	if o != nil {
		db.dir.applyCommitted(r.OID, o, c, w)
		cls = o.Class().Name
	} else if prev != nil {
		db.dir.setTomb(r.OID, true)
		db.dir.commitDelete(r.OID, c)
	}
	if err := db.storeRecord(r, cls); err != nil {
		return err
	}
	db.reindex(r.OID, imageOf(prev), imageOf(o))
	return db.applyCatalog(o, prev)
}

// fanoutReplicated delivers shipped occurrences to local sink subscribers:
// the follower-side twin of raise's match + the publish stage, minus the
// transaction (the occurrences committed on the primary; there is nothing
// left to abort). Same wait-free contract: DeliverEvent only enqueues.
//
// It also advances the replica's logical clock past every shipped sequence
// number. A replica never stamps occurrences itself, so without this its
// clock would sit at zero — and a promotion would then reissue sequence
// numbers the old primary already used, breaking the Seq uniqueness that
// subscriber-side duplicate detection rests on.
func (db *Database) fanoutReplicated(occs []event.Occurrence) {
	for i := range occs {
		db.advanceClock(occs[i].Seq)
	}
	if db.sinkCount.Load() == 0 {
		return
	}
	var matched []pendingPush
	for i := range occs {
		matched = db.sinkReg.match(matched, &occs[i])
	}
	db.fanoutPushes(matched)
}
