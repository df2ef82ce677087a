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
//     ship stage calls its Ship under replMu with the 2PL locks still held,
//     so dependent commits ship in commit order; independent commits ship in
//     an arbitrary but valid serialization order.
//   - A follower opens with Options.Replica and applies batches through
//     ApplyReplicated, which WAL-logs the batch locally (so its own recovery
//     reproduces the applied prefix up to the fsync floor), installs the
//     images through the directory with full MVCC versioning (snapshot
//     readers older than the batch keep their view), and fans the shipped
//     occurrences out to local sink subscribers. Delivery to followers is
//     therefore at-least-once across follower crashes: batches between the
//     fsync floor and the crash point are re-shipped and re-delivered.
//
// Occurrences ride the data batch of the transaction that raised them; a
// transaction that raised events but wrote nothing durable ships an
// event-only batch (LSN 0) after it commits, so follower-side subscribers
// see the same occurrence stream primary-side subscribers do.

import (
	"errors"
	"fmt"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/lang"
	"sentinel/internal/object"
	"sentinel/internal/oid"
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
	// Ship receives every committed batch, on the committing goroutine under
	// replMu with the transaction's locks held. It must only encode and
	// buffer — never block on I/O — which is the whole no-stall argument: a
	// dead-slow follower costs the commit path one mutex and one encode. It
	// must not retain the batch (record Data aliases pooled commit scratch).
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
	Meta    []byte // checkpoint meta blob (OID high-water, clock, catalog)
	Objects []ReplBaseObject
}

// ReplBaseState captures the heap at an exact replication LSN. It holds
// ckptMu exclusively for the duration of the scan: a commit holds ckptMu
// shared across WAL-append + heap-apply + ship, so with the exclusive lock
// held the heap contains precisely the batches numbered 1..ReplLSN — the
// follower installing this state resumes the stream at LSN+1 with nothing
// lost and nothing doubled. Commits block while the scan copies images;
// base syncs are rare (fresh follower, or one lagged past the ring), so
// the pause is the price of an exact cut.
func (db *Database) ReplBaseState() (*ReplBaseState, error) {
	if db.store == nil {
		return nil, errors.New("core: base state requires a persistent database")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := db.heapErr(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	meta := db.metaBlob()
	db.mu.RUnlock()
	st := &ReplBaseState{LSN: db.ReplLSN(), Meta: meta}
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
// jumps to lsn. Runs through the same MVCC machinery as ApplyReplicated, so
// snapshot readers begun before the install keep their pre-install view.
// The install bypasses the WAL (logging a full base copy would defeat the
// point of syncing); the trailing Checkpoint makes it durable and stamps
// the new LSN into the heap meta. A crash mid-install leaves a torn heap
// with a stale checkpoint LSN — the next handshake detects the stale
// position (or the epoch mismatch) and re-syncs, and full-image redo is
// idempotent, so the tear never survives contact with the primary.
func (db *Database) ApplyBaseState(lsn uint64, objs []ReplBaseObject) error {
	if !db.opts.Replica {
		return errors.New("core: ApplyBaseState on a non-replica database")
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()

	// Class definitions first: the base state may carry instances of classes
	// this replica has never seen.
	for _, o := range objs {
		if cls, err := object.PeekClass(o.Img); err == nil && cls == SysClassDefClass {
			if err := db.applyReplClassDef(o.ID, o.Img); err != nil {
				return err
			}
		}
	}

	db.ckptMu.RLock()
	c := db.lsn.begin()
	w := db.watermark()
	keep := make(map[oid.OID]bool, len(objs))
	var applyErr error
	for _, o := range objs {
		keep[o.ID] = true
		if applyErr = db.applyReplUpdate(o.ID, o.Img, c, w); applyErr != nil {
			break
		}
	}
	var stale []oid.OID
	if applyErr == nil {
		db.catMu.RLock()
		for id := range db.heapCat {
			if !keep[id] {
				stale = append(stale, id)
			}
		}
		db.catMu.RUnlock()
		for _, id := range stale {
			if applyErr = db.applyReplDelete(id, c); applyErr != nil {
				break
			}
		}
	}
	db.lsn.end(c)
	db.ckptMu.RUnlock()
	if applyErr != nil {
		return applyErr
	}

	db.replMu.Lock()
	db.replLSN = lsn
	db.replMu.Unlock()

	dw := db.watermark()
	for _, id := range stale {
		db.dir.dropDeleted(id, dw)
	}
	// The heap was replaced wholesale — OIDs may now name objects of
	// different classes. Recovery-style global fallback rather than
	// per-key scopes.
	db.applyConsumerInvalidation(scopeAll())
	db.maybeSweepChains()
	db.maybeEvict()
	return db.Checkpoint()
}

// ApplyReplicated applies shipped batches on a replica, in order. Each run
// of data batches is WAL-logged with one write and one fsync (the follower's
// own recovery then reproduces the applied prefix up to its fsync floor);
// then every batch of the run installs its images through the directory with
// MVCC versioning at its own commit LSN, the catalogs a follower needs for
// decoding and lookups are refreshed (__ClassDef registrations, __Name
// bindings), the applied LSN moves to the run's last batch, and the run's
// occurrences fan out to local sink subscribers batch by batch. An
// event-only batch (LSN 0) only fans out, and ends a run.
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

	// Register any DSL classes the run defines before decoding anything: a
	// batch may create a class and instances of it, and a commit emits its
	// records in arbitrary write-set order.
	recs := run[0].Recs
	if len(run) > 1 {
		recs = nil
		for _, b := range run {
			recs = append(recs, b.Recs...)
		}
	}
	for _, r := range recs {
		if r.Type != wal.RecUpdate {
			continue
		}
		if cls, err := object.PeekClass(r.Data); err == nil && cls == SysClassDefClass {
			if err := db.applyReplClassDef(r.OID, r.Data); err != nil {
				return err
			}
		}
	}

	db.ckptMu.RLock()
	// Redo rule, same as the primary: log before apply, so a crash between
	// the two replays the run instead of losing it.
	if err := db.log.CommitBatch(recs, db.opts.SyncOnCommit); err != nil {
		db.ckptMu.RUnlock()
		return err
	}
	var deleted []oid.OID
	applied, applyErr := 0, error(nil)
	for _, b := range run {
		c := db.lsn.begin()
		w := db.watermark()
		kept := len(deleted)
		for _, r := range b.Recs {
			switch r.Type {
			case wal.RecUpdate:
				applyErr = db.applyReplUpdate(r.OID, r.Data, c, w)
			case wal.RecDelete:
				applyErr = db.applyReplDelete(r.OID, c)
				deleted = append(deleted, r.OID)
			}
			if applyErr != nil {
				break
			}
		}
		db.lsn.end(c)
		if applyErr != nil {
			deleted = deleted[:kept]
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
	if len(deleted) > 0 {
		dw := db.watermark()
		for _, id := range deleted {
			db.dir.dropDeleted(id, dw)
		}
	}
	if applyErr != nil {
		return applyErr
	}
	db.maybeSweepChains()
	db.maybeAutoCheckpoint()
	db.maybeEvict()
	return gap
}

// applyReplClassDef replays a shipped __ClassDef so subsequent images of
// the class decode. Registration is idempotent (a re-shipped batch after a
// resume sees the class already present).
func (db *Database) applyReplClassDef(id oid.OID, img []byte) error {
	o, err := object.Decode(id, img, db.reg)
	if err != nil {
		return fmt.Errorf("core: replicated class def %s: %w", id, err)
	}
	name, _ := mustGet(o, "name").AsString()
	src, _ := mustGet(o, "source").AsString()
	seq, _ := mustGet(o, "seq").AsInt()
	if db.reg.Lookup(name) != nil {
		return nil
	}
	script, err := lang.ParseScript(src, db.eventResolver())
	if err != nil {
		return fmt.Errorf("core: replicated class %s: %w", name, err)
	}
	t := db.Begin()
	defer db.Abort(t) // registration writes nothing; Abort is a no-op cleanup
	for _, item := range script.Items {
		cd, ok := item.(*lang.ClassDecl)
		if !ok {
			return fmt.Errorf("core: replicated class %s: definition contains a non-class item", name)
		}
		if err := db.registerDSLClass(t, cd, false); err != nil {
			return fmt.Errorf("core: replicated class %s: %w", name, err)
		}
	}
	db.mu.Lock()
	if int(seq) > db.dslClassSeq {
		db.dslClassSeq = int(seq)
	}
	db.mu.Unlock()
	return nil
}

// applyReplUpdate installs one replicated object image at commit LSN c.
// The previous committed image (resident or on the heap) is archived into
// the entry's version chain first, so snapshot readers older than c keep
// their view even though the heap image is overwritten.
func (db *Database) applyReplUpdate(id oid.OID, img []byte, c, w uint64) error {
	o, err := object.Decode(id, img, db.reg)
	if err != nil {
		return fmt.Errorf("core: replicated object %s: %w", id, err)
	}
	// Fault the prior committed image in before the heap forgets it: a
	// non-resident object's only pre-batch state is its heap image, and an
	// older snapshot reading it later must not fall through to the new one.
	if _, err := db.faultObject(id); err != nil {
		return fmt.Errorf("core: replicated object %s: prior image: %w", id, err)
	}
	db.dir.applyCommitted(id, o, c, w)
	if err := db.store.Put(id, img); err != nil {
		return err
	}
	cls := o.Class().Name
	db.setHeapClass(id, cls)
	switch cls {
	case SysNameClass:
		name, _ := mustGet(o, "name").AsString()
		target, _ := mustGet(o, "target").AsRef()
		db.mu.Lock()
		db.names[name] = target
		db.nameObjs[name] = id
		db.mu.Unlock()
	case SysEventClass:
		name, _ := mustGet(o, "name").AsString()
		src, _ := mustGet(o, "source").AsString()
		if e, err := db.ParseEvent(src); err == nil {
			e.SetID(id)
			db.mu.Lock()
			db.namedEvents[name] = e
			db.eventObjs[name] = id
			db.mu.Unlock()
		}
	}
	return nil
}

// applyReplDelete applies one replicated delete at commit LSN c, keeping
// the doomed image readable for snapshots older than c.
func (db *Database) applyReplDelete(id oid.OID, c uint64) error {
	if o, err := db.faultObject(id); err != nil {
		return fmt.Errorf("core: replicated delete %s: prior image: %w", id, err)
	} else if o != nil {
		db.dir.setTomb(id, true)
		db.dir.commitDelete(id, c)
	}
	if cls, ok := db.heapClassOf(id); ok && cls == SysNameClass {
		db.mu.Lock()
		for name, objID := range db.nameObjs {
			if objID == id {
				delete(db.names, name)
				delete(db.nameObjs, name)
				break
			}
		}
		db.mu.Unlock()
	}
	if err := db.store.Delete(id); err != nil {
		return err
	}
	db.delHeapClass(id)
	return nil
}

// heapClassOf reads the heap-class catalog entry for id.
func (db *Database) heapClassOf(id oid.OID) (string, bool) {
	db.catMu.RLock()
	cls, ok := db.heapCat[id]
	db.catMu.RUnlock()
	return cls, ok
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
