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
//   - A primary installs a Replicator (SetReplicator). The commit pipeline's
//     ship stage calls its Ship under replMu from the WAL flush leader, in
//     log order. A commit that read another's write is behind it in the log,
//     so dependent commits ship in commit order; independent commits ship in
//     an arbitrary but valid serialization order.
//   - A follower opens with Options.Replica and applies batches through
//     ApplyReplicated, which WAL-logs the batch locally (so its own recovery
//     reproduces the applied prefix up to the fsync floor), installs the
//     images through the directory with full MVCC versioning (snapshot
//     readers older than the batch keep their view), keeps the catalogs and
//     secondary indexes current, and fans the shipped
//     occurrences out to local sink subscribers. Delivery to followers is
//     therefore at-least-once across follower crashes: batches between the
//     fsync floor and the crash point are re-shipped and re-delivered.
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
// event-only batch (nothing durable to replay — fan-out only).
type ReplBatch struct {
	LSN  uint64
	Recs []wal.Record
	Occs []event.Occurrence
}

// Replicator is the one seam between the commit pipeline and a replication
// service; a nil func means that part is absent. internal/repl's Primary
// fills all three, its Follower only Info, test fakes only Ship.
type Replicator struct {
	// Ship receives every committed batch once it is durable, in log order,
	// on the goroutine leading the WAL flush, under replMu. It must only
	// encode and buffer — never block on I/O — which is the whole no-stall
	// argument: a dead-slow follower costs the commit path one mutex and one
	// encode. It must not retain the records (their Data aliases pooled
	// commit scratch); it may keep Occs.
	Ship func(ReplBatch)
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

// ReplLSN returns the replication LSN: on a primary the last committed
// batch, on a replica the last applied one.
func (db *Database) ReplLSN() uint64 {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.replLSN
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
func (db *Database) SetReplEpoch(e uint64) {
	db.replMu.Lock()
	db.replEpoch = e
	db.replMu.Unlock()
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
// before it (each is applied and shipped by its flush), so the heap contains
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
// follow. The install bypasses the WAL (logging a full base copy would
// defeat the point of syncing); the trailing Checkpoint makes it durable and
// stamps the new LSN into the heap meta. A crash mid-install leaves a torn
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
	db.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	db.replMu.Lock()
	db.replLSN = lsn
	db.replMu.Unlock()
	// The heap was replaced wholesale — OIDs may now name objects of
	// different classes. Recovery-style global fallback rather than
	// per-key scopes.
	db.applyConsumerInvalidation(scopeAll())
	return db.Checkpoint()
}

// ApplyReplicated applies shipped batches on a replica, in order. Each run
// of data batches is WAL-logged with one write and one fsync (the follower's
// own recovery then reproduces the applied prefix up to its fsync floor);
// then applyBatch installs every batch of the run at its own commit LSN, the
// applied LSN moves to the run's last batch, and the run's occurrences fan
// out to local sink subscribers batch by batch. An event-only batch (LSN 0)
// only fans out, and ends a run.
//
// Batches must arrive in LSN order with no gaps; a gap applies the batches
// before it and returns an error, and the caller (internal/repl's follower
// loop) tears the stream down and re-handshakes from its applied LSN. A
// batch at or below the applied LSN is a duplicate (a resume overlap) and is
// dropped without re-delivery.
func (db *Database) ApplyReplicated(bs ...ReplBatch) error {
	if !db.opts.Replica {
		return errors.New("core: ApplyReplicated on a non-replica database")
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	for len(bs) > 0 {
		if bs[0].LSN == 0 {
			db.fanoutReplicated(bs[0].Occs)
			bs = bs[1:]
			continue
		}
		n := 1
		for n < len(bs) && bs[n].LSN != 0 {
			n++
		}
		if err := db.applyRun(bs[:n]); err != nil {
			return err
		}
		bs = bs[n:]
	}
	return nil
}

// applyRun applies a run of data batches (see ApplyReplicated). Caller
// holds applyMu.
func (db *Database) applyRun(run []ReplBatch) error {
	cur := db.ReplLSN()
	for len(run) > 0 && run[0].LSN <= cur {
		run = run[1:] // duplicates
	}
	var gap error
	for i, b := range run {
		if b.LSN != cur+1+uint64(i) {
			gap = fmt.Errorf("core: replication gap: applied LSN %d, got batch %d", cur+uint64(i), b.LSN)
			run = run[:i]
			break
		}
	}
	if len(run) == 0 {
		return gap
	}
	recs := run[0].Recs
	if len(run) > 1 {
		recs = nil
		for _, b := range run {
			recs = append(recs, b.Recs...)
		}
	}

	db.ckptMu.RLock()
	// Redo rule, same as the primary: log before apply, so a crash between
	// the two replays the run instead of losing it.
	if err := db.log.CommitBatch(recs, db.opts.SyncOnCommit); err != nil {
		db.ckptMu.RUnlock()
		return err
	}
	applied, applyErr := 0, error(nil)
	for _, b := range run {
		if applyErr = db.applyBatch(b.Recs); applyErr != nil {
			break
		}
		applied++
	}
	db.ckptMu.RUnlock()

	// The whole run is in the local WAL, and recovery will re-apply a batch
	// whose apply failed, so the applied LSN deliberately stops before it.
	if applied > 0 {
		db.replMu.Lock()
		db.replLSN = run[applied-1].LSN
		db.replMu.Unlock()
		for _, b := range run[:applied] {
			db.fanoutReplicated(b.Occs)
		}
	}
	if applyErr != nil {
		return applyErr
	}
	db.maybeAutoCheckpoint()
	return gap
}

// applyBatch installs one batch of replicated records, in write-set order, at
// a fresh MVCC commit LSN. It is the replica's only apply path: ApplyReplicated
// runs it once per shipped batch, ApplyBaseState once over a whole base image.
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
	db.reindex(r.OID, prev, o)
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
