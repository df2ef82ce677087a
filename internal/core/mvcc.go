package core

// mvcc.go coordinates the copy-on-write multi-versioning built into the
// resident directory (directory.go): commit-LSN allocation, the snapshot
// registry, the low-watermark protocol, version installation at commit, and
// the read-only snapshot transaction API.
//
// The protocol in one paragraph: every committing transaction allocates an
// LSN C from the tracker (begin), installs its write set's versions at C
// with 2PL locks still held, and marks C done (end) once its WAL batch is
// durable and applied. The tracker's `stable` LSN is the highest C below
// which every allocation has ended, so a state labeled `stable` is fully
// installed and durable. Snapshots are acquired AT the stable LSN under the
// registry mutex; the watermark W — the prune /
// eviction / tombstone-drop bound — is min(oldest active snapshot, stable),
// computed under the same mutex. That makes the acquire-vs-prune race
// benign: any snapshot acquired after a watermark computation reads
// stable ≥ W, so versions dead under W stay dead forever.

import (
	"fmt"
	"sync"

	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// lsnTracker allocates commit LSNs and tracks which are fully installed.
type lsnTracker struct {
	mu     sync.Mutex
	next   uint64          // last LSN handed out
	stable uint64          // highest LSN with no open allocation at or below it
	open   map[uint64]bool // allocated, not yet ended
}

// begin allocates the next commit LSN. The caller must pair it with end
// after installing (or abandoning) the commit at that LSN.
func (tr *lsnTracker) begin() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.next++
	if tr.open == nil {
		tr.open = make(map[uint64]bool)
	}
	tr.open[tr.next] = true
	return tr.next
}

// end marks l installed and advances stable over the contiguous done prefix.
func (tr *lsnTracker) end(l uint64) {
	tr.mu.Lock()
	delete(tr.open, l)
	for tr.stable < tr.next && !tr.open[tr.stable+1] {
		tr.stable++
	}
	tr.mu.Unlock()
}

// stableLSN reads the highest fully installed LSN.
func (tr *lsnTracker) stableLSN() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.stable
}

// snapRegistry tracks active snapshots. Acquire reads the tracker's stable
// LSN and registers under one critical section, so watermark (same mutex)
// can never observe a snapshot older than a bound it already returned.
type snapRegistry struct {
	mu     sync.Mutex
	nextID uint64
	active map[uint64]uint64 // registration ID → snapshot LSN
}

// acquire registers a new snapshot at the current stable LSN.
func (r *snapRegistry) acquire(tr *lsnTracker) (id, lsn uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	if r.active == nil {
		r.active = make(map[uint64]uint64)
	}
	lsn = tr.stableLSN()
	r.active[r.nextID] = lsn
	return r.nextID, lsn
}

// release deregisters a snapshot.
func (r *snapRegistry) release(id uint64) {
	r.mu.Lock()
	delete(r.active, id)
	r.mu.Unlock()
}

// watermark returns min(oldest active snapshot LSN, stable): versions and
// tombstones at or below it can never be needed again, and heap images at
// or below it are visible to every current and future snapshot.
func (r *snapRegistry) watermark(tr *lsnTracker) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := tr.stableLSN()
	for _, s := range r.active {
		if s < w {
			w = s
		}
	}
	return w
}

// activeCount reports how many snapshots are registered.
func (r *snapRegistry) activeCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// watermark computes the database's current MVCC low-watermark.
func (db *Database) watermark() uint64 {
	return db.snaps.watermark(&db.lsn)
}

// installVersions publishes the transaction's write set at commit LSN c:
// each entry's new version, then its secondary-index entries (reindex), so
// an index move is chained before a snapshot lookup can see it. Runs in the
// commit head — 2PL locks still held, c not yet ended — so no snapshot at
// or above c exists until every entry below is installed.
func (db *Database) installVersions(t *Tx, c uint64) {
	w := db.watermark()
	pruned := 0
	for id := range t.created {
		if t.deleted[id] {
			continue
		}
		db.reindex(id, snapImage{}, imageOf(db.dir.commitCreate(id, c)))
	}
	for id := range t.dirty {
		if t.created[id] || t.deleted[id] {
			continue
		}
		prev, cur, n := db.dir.commitWrite(id, c, w)
		db.reindex(id, prev, imageOf(cur))
		pruned += n
	}
	for id := range t.deleted {
		if prev, ok := db.dir.commitDelete(id, c); ok {
			db.reindex(id, prev, snapImage{})
		}
	}
	if pruned > 0 {
		db.met.versionPrunes.Add(uint64(pruned))
	}
}

// maybeSweepChains prunes version chains and expired tombstones after a
// commit. It is free while no shard holds MVCC baggage (chainedMask is
// zero), otherwise it locks only the shards that do, and the lastSweep CAS
// dedups concurrent committers: only the one that advances the recorded
// watermark pays for the sweep.
func (db *Database) maybeSweepChains() {
	if db.dir.chainedMask.Load() == 0 {
		return
	}
	w := db.watermark()
	last := db.lastSweep.Load()
	if w <= last || !db.lastSweep.CompareAndSwap(last, w) {
		return
	}
	pruned, _ := db.dir.pruneChains(w)
	if pruned > 0 {
		db.met.versionPrunes.Add(uint64(pruned))
	}
}

// ---- read-only snapshot transactions ----

// errReadOnlyTx rejects writes through a snapshot transaction.
var errReadOnlyTx = fmt.Errorf("core: snapshot transaction is read-only")

// BeginSnapshot starts a read-only transaction that reads a consistent
// snapshot of the database as of the current stable commit LSN. A snapshot
// is a registration and a transaction ID, nothing more: it takes no object
// locks — so it never blocks (or aborts) writers, and the lock manager and
// its deadlock detector never see it — and it carries no write set. Reads
// resolve through the directory's version chains, attributes in place. All
// mutation entry points reject it. Finish it with Commit or Abort (they are
// equivalent — there is nothing to roll back) to release the snapshot so
// the watermark can advance and chains can be pruned.
func (db *Database) BeginSnapshot() *Tx {
	t := &Tx{db: db, inner: db.tm.ReadOnly()}
	t.snapID, t.snapLSN = db.snaps.acquire(&db.lsn)
	db.met.snapshots.Inc()
	if tr := db.tracer.Load(); tr != nil && tr.TxBegin != nil {
		tr.TxBegin(obs.TxInfo{Tx: uint64(t.inner.ID())})
	}
	return t
}

// Snapshot reports whether the transaction is a read-only snapshot, and at
// which commit LSN it reads.
func (t *Tx) Snapshot() (lsn uint64, ok bool) { return t.snapLSN, t.snapID != 0 }

// writable rejects a finished transaction with txn.ErrNotActive and a
// snapshot with errReadOnlyTx: the check every mutation entry point makes
// before it touches the transaction's state, which a snapshot has none of.
func (t *Tx) writable() error {
	if !t.Active() {
		return txn.ErrNotActive
	}
	if t.snapID != 0 {
		return errReadOnlyTx
	}
	return nil
}

// endSnapshot is Commit and Abort of a snapshot: it releases the
// registration and marks the handle finished. The tracer sees the end under
// the snapshot's ID, as a commit or an abort, as the caller asked.
func (db *Database) endSnapshot(t *Tx, commit bool) {
	if t.finished {
		return
	}
	t.finished = true
	db.snaps.release(t.snapID)
	tr := db.tracer.Load()
	switch {
	case tr == nil:
	case commit && tr.TxCommit != nil:
		tr.TxCommit(obs.TxInfo{Tx: uint64(t.inner.ID())})
	case !commit && tr.TxAbort != nil:
		tr.TxAbort(obs.TxInfo{Tx: uint64(t.inner.ID())})
	}
}

// readSnapshot resolves id as of snapshot LSN s and calls read with the
// image visible there (see objDirectory.readAt), reporting whether one is.
// A directory miss falls through to the heap: the eviction watermark guard
// guarantees any evicted entry's heap image is at an LSN ≤ every active
// snapshot, so the image is visible at s. The object is faulted in resident
// first (so a chain can anchor on it if a writer arrives) and re-read
// through the snapshot protocol; if it was evicted again in between, a
// transient decode serves the read.
func (db *Database) readSnapshot(id oid.OID, s uint64, read func(im snapImage)) (bool, error) {
	st := db.dir.readAt(id, s, read)
	if st == snapMiss && db.store != nil {
		if _, err := db.faultObject(id); err != nil {
			return false, err
		}
		if st = db.dir.readAt(id, s, read); st == snapMiss {
			o, err := db.loadFromHeap(id, false)
			if err != nil || o == nil {
				return false, err
			}
			read(snapImage{class: o.Class(), obj: o})
			return true, nil
		}
	}
	return st == snapOK, nil
}

// resolveSnapshot materializes the version of id visible at snapshot LSN s
// (nil when none is): for the paths that hand out an object — a
// snapshot-evaluated condition's self, DescribeObject.
func (db *Database) resolveSnapshot(id oid.OID, s uint64) (*object.Object, error) {
	var o *object.Object
	_, err := db.readSnapshot(id, s, func(im snapImage) { o = im.materialize(id) })
	return o, err
}

// snapshotAttr is getAttr for a snapshot: it reads the one attribute where
// it lies — the live image's slot or the visible version's field — under
// the shard read lock, with getAttr's checks and errors. Repeated reads
// agree without a per-snapshot cache: the watermark keeps the version the
// snapshot reads, and the evictor keeps anything newer resident.
func (db *Database) snapshotAttr(t *Tx, id oid.OID, attr string, caller *schema.Class, sysAccess bool) (value.Value, error) {
	if !t.Active() {
		return value.Nil, txn.ErrNotActive
	}
	var (
		c *schema.Class
		a *schema.Attribute
		v value.Value
	)
	found, err := db.readSnapshot(id, t.snapLSN, func(im snapImage) {
		c = im.class
		a, v = im.attr(attr)
	})
	switch {
	case err != nil:
		return value.Nil, err
	case !found:
		return value.Nil, fmt.Errorf("core: no object %s", id)
	case a == nil:
		return value.Nil, fmt.Errorf("core: class %s has no attribute %q", c.Name, attr)
	}
	if err := checkAttrVisible(a, caller, sysAccess); err != nil {
		return value.Nil, err
	}
	return v, nil
}

// ---- snapshot scans ----

// InstancesOfAt returns the OIDs of all instances of the named class (and
// subclasses) visible to t's snapshot, sorted. For an ordinary transaction
// (or nil) it behaves exactly like InstancesOf. The scan unions the
// directory's snapshot view with the heap's object table; heap objects that
// gained a directory entry after the shard scan are re-checked through the
// snapshot protocol so post-snapshot commits cannot leak in.
func (db *Database) InstancesOfAt(t *Tx, class string) []oid.OID {
	if t == nil || t.snapID == 0 {
		return db.InstancesOf(class)
	}
	c := db.reg.Lookup(class)
	if c == nil {
		return nil
	}
	s := t.snapLSN
	var out []oid.OID
	present := make(map[oid.OID]bool)
	db.dir.forEachSnapshot(s, func(id oid.OID, vc *schema.Class) {
		present[id] = true
		if vc != nil && vc.IsSubclassOf(c) {
			out = append(out, id)
		}
	})
	if db.store != nil {
		subs := db.heapSubclasses(c)
		for _, ho := range db.store.Objects() {
			if !subs[ho.Class] || present[ho.ID] {
				continue
			}
			var vc *schema.Class
			switch db.dir.readAt(ho.ID, s, func(im snapImage) { vc = im.class }) {
			case snapMiss:
				// Truly heap-only: committed at or below the watermark,
				// hence visible at s.
				out = append(out, ho.ID)
			case snapOK:
				if vc.IsSubclassOf(c) {
					out = append(out, ho.ID)
				}
			}
		}
	}
	value.SortRefs(out)
	return out
}

// forEachSnapshotObject streams every object visible to t's snapshot,
// materialized at the snapshot's LSN. Unlike forEachLiveObject it is safe
// to run concurrently with writers: the view is the snapshot's, not a
// racy union.
func (db *Database) forEachSnapshotObject(t *Tx, fn func(id oid.OID, o *object.Object) error) error {
	if t == nil || t.snapID == 0 {
		return fmt.Errorf("core: forEachSnapshotObject requires a snapshot transaction")
	}
	s := t.snapLSN
	present := make(map[oid.OID]bool)
	var ids []oid.OID
	db.dir.forEachSnapshot(s, func(id oid.OID, vc *schema.Class) {
		present[id] = true
		if vc != nil {
			ids = append(ids, id)
		}
	})
	if db.store != nil {
		for _, o := range db.store.Objects() {
			if !present[o.ID] {
				ids = append(ids, o.ID)
			}
		}
	}
	for _, id := range ids {
		o, err := db.resolveSnapshot(id, s)
		if err != nil {
			return err
		}
		if o == nil {
			continue
		}
		if err := fn(id, o); err != nil {
			return err
		}
	}
	return nil
}

// CheckRefsAt verifies referential integrity — every reference attribute
// points at an object visible in the same snapshot — against t's snapshot,
// returning a sorted-order-independent problem list. It is the
// snapshot-consistent subset of CheckIntegrity that can run concurrently
// with active writers: both sides of every edge are resolved at one LSN, so
// in-flight transactions can never produce false dangling references.
func (db *Database) CheckRefsAt(t *Tx) []string {
	if t == nil || t.snapID == 0 {
		return []string{"core: CheckRefsAt requires a snapshot transaction"}
	}
	visible := make(map[oid.OID]bool)
	db.dir.forEachSnapshot(t.snapLSN, func(id oid.OID, vc *schema.Class) {
		if vc != nil {
			visible[id] = true
		}
	})
	if db.store != nil {
		for _, o := range db.store.Objects() {
			if visible[o.ID] {
				continue
			}
			if db.dir.readAt(o.ID, t.snapLSN, func(snapImage) {}) == snapMiss {
				visible[o.ID] = true
			}
		}
	}
	var problems []string
	err := db.forEachSnapshotObject(t, func(id oid.OID, o *object.Object) error {
		for _, a := range o.Class().Layout() {
			checkRefs(o.GetSlot(a.Slot()), func(ref oid.OID) {
				if !visible[ref] {
					problems = append(problems, fmt.Sprintf(
						"object %s (%s): attribute %s references missing object %s",
						id, o.Class().Name, a.Name, ref))
				}
			})
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("snapshot scan failed: %v", err))
	}
	return problems
}
