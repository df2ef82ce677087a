package core

// directory.go implements the sharded resident-object directory: the demand-
// paged replacement for the old monolithic `objects` map. Entries are keyed
// by OID across a fixed number of lock shards so concurrent transactions on
// disjoint objects never contend on one mutex, and each entry carries the
// paging state the evictor needs:
//
//   - pins: transactions that require pointer stability (they hold a txn
//     lock on the object and may have captured the *object.Object in undo
//     closures). Pinned entries are never evicted.
//   - dirty: the in-memory state is ahead of the heap image; eviction would
//     lose committed-in-progress work, so dirty entries are wired until
//     their commit writes them back (applyCommit marks them clean).
//   - noEvict: system objects (rules, events, subscriptions, bindings,
//     class/index catalogs) and instances of non-persistent classes have no
//     rebuildable disk image or are needed for catalog consistency; they
//     stay resident for the lifetime of the database.
//   - tomb: the object was deleted by a transaction that has not committed
//     yet. The entry stays (its undo record restores it on abort) but is
//     invisible to lookups, and — crucially — blocks fault-in from
//     resurrecting the stale heap image.
//   - ref: the second-chance (clock) reference bit, set on every hit and
//     cleared by the evictor's first pass over an entry.
//
// Shard mutexes are leaves in the lock order (DESIGN.md §4k): directory
// methods never call back into the Database, and Database code never
// acquires mu or ccMu while holding a shard lock.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

const dirShardCount = 64

// lsnNone marks an entry whose creating transaction has not committed yet:
// no snapshot may see it, and it sorts above every real LSN so the eviction
// watermark check wires it automatically.
const lsnNone = ^uint64(0)

// lsnLatest, read at as a snapshot LSN, resolves an entry to its latest
// committed image: the archived head while a writer window is open, the
// live image otherwise — an uncommitted delete's included — and none for an
// uncommitted create.
const lsnLatest = lsnNone - 1

// objVersion is one archived committed image in an entry's version chain:
// the state the object had while `lsn` was its current commit. Chains are
// kept in descending LSN order; fields are immutable once pushed.
type objVersion struct {
	lsn    uint64
	class  *schema.Class
	fields []value.Value
}

type dirEntry struct {
	obj  *object.Object
	pins atomic.Int32
	ref  atomic.Bool

	// Guarded by the owning shard's mutex.
	dirty   bool
	noEvict bool
	tomb    bool

	// MVCC state, guarded by the owning shard's mutex.
	//
	// lsn is the commit LSN of obj's current committed state: 0 means
	// "ancient" (faulted in from the heap, recovered, or bootstrapped —
	// older than every possible snapshot), lsnNone means the creating
	// transaction is still uncommitted. writerActive is set by the first
	// in-place mutation of an uncommitted writer (which archives the
	// committed image into versions first) and cleared at install/abort;
	// while it is set, snapshot readers serve from the chain head instead
	// of obj. delLSN is the commit LSN of a committed delete: the entry is
	// retained (tombstoned) until the watermark passes it, so older
	// snapshots still see the object. fresh marks a create committed above
	// the watermark, which some snapshot may not see yet; the sweep clears
	// it once the watermark passes lsn.
	lsn          uint64
	writerActive bool
	versions     []objVersion
	delLSN       uint64
	fresh        bool
}

type dirShard struct {
	mu   sync.RWMutex
	objs map[oid.OID]*dirEntry
	// chained tracks entries carrying MVCC baggage (see rechainLocked), so
	// prune sweeps touch only them instead of scanning the whole shard; the
	// directory's chainedMask has this shard's bit set exactly while it is
	// non-empty.
	chained map[oid.OID]bool
	// flights holds the in-progress fault-ins of this shard's OIDs
	// (singleflight, see joinFlight). Lazily allocated.
	flights map[oid.OID]*dirFlight
	bit     uint64 // this shard's bit in the directory's chainedMask
}

// dirFlight is one in-progress fault: followers wait on done and share the
// leader's result instead of decoding the image again.
type dirFlight struct {
	done chan struct{}
	obj  *object.Object
	err  error
}

// objDirectory is the sharded resident-object directory.
type objDirectory struct {
	shards   [dirShardCount]dirShard
	resident atomic.Int64 // entries in the directory, tombstones included
	hand     atomic.Uint32
	visited  atomic.Int64 // entries the evictor has examined; tests read it
	swept    atomic.Int64 // shards pruneChains has locked; tests read it

	// liveVersions counts archived versions across all chains (the
	// sentinel_versions_live gauge). chainedMask has bit i set while shard
	// i's chained set is non-empty, so a sweep locks only the shards that
	// hold MVCC baggage — usually the one or two the last commit wrote — and
	// none at all while there is none.
	liveVersions atomic.Int64
	chainedMask  atomic.Uint64
}

func newObjDirectory() *objDirectory {
	d := &objDirectory{}
	for i := range d.shards {
		d.shards[i].objs = make(map[oid.OID]*dirEntry)
		d.shards[i].chained = make(map[oid.OID]bool)
		d.shards[i].bit = 1 << i
	}
	return d
}

func (d *objDirectory) shard(id oid.OID) *dirShard {
	return &d.shards[uint64(id)%dirShardCount]
}

// joinFlight makes the caller the leader of id's fault-in, or hands it the
// flight already in progress: the first faulter decodes, concurrent ones
// wait on f.done and share the result.
func (d *objDirectory) joinFlight(id oid.OID) (f *dirFlight, leader bool) {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f = s.flights[id]; f != nil {
		return f, false
	}
	f = &dirFlight{done: make(chan struct{})}
	if s.flights == nil {
		s.flights = make(map[oid.OID]*dirFlight)
	}
	s.flights[id] = f
	return f, true
}

// endFlight retires the leader's flight and releases its followers. The
// leader fills f.obj / f.err first.
func (d *objDirectory) endFlight(id oid.OID, f *dirFlight) {
	s := d.shard(id)
	s.mu.Lock()
	delete(s.flights, id)
	s.mu.Unlock()
	close(f.done)
}

// get returns the resident object for id. found reports whether the
// directory has an entry at all; a tombstoned entry returns (nil, true) so
// callers do not fall through to fault-in and resurrect a deleted object.
func (d *objDirectory) get(id oid.OID) (o *object.Object, found bool) {
	s := d.shard(id)
	s.mu.RLock()
	e := s.objs[id]
	if e == nil {
		s.mu.RUnlock()
		return nil, false
	}
	if e.tomb {
		s.mu.RUnlock()
		return nil, true
	}
	e.ref.Store(true)
	o = e.obj
	s.mu.RUnlock()
	return o, true
}

// pin atomically checks residency and takes a pin. Pin increments happen
// under the shard read lock while the evictor scans under the write lock, so
// an entry observed unpinned by the evictor cannot gain a pin concurrently.
// Tombstoned entries are reported but not pinned.
func (d *objDirectory) pin(id oid.OID) (o *object.Object, found, tomb bool) {
	s := d.shard(id)
	s.mu.RLock()
	e := s.objs[id]
	if e == nil {
		s.mu.RUnlock()
		return nil, false, false
	}
	if e.tomb {
		s.mu.RUnlock()
		return nil, true, true
	}
	e.pins.Add(1)
	e.ref.Store(true)
	o = e.obj
	s.mu.RUnlock()
	return o, true, false
}

// unpin drops one pin. Missing entries are tolerated: an aborted create
// removes its entry (via undo) before the creating transaction unpins.
func (d *objDirectory) unpin(id oid.OID) {
	s := d.shard(id)
	s.mu.RLock()
	if e := s.objs[id]; e != nil {
		e.pins.Add(-1)
	}
	s.mu.RUnlock()
}

// insert adds a new entry (replacing any existing one, which callers avoid
// except for crash-recovery rebuilds). pins is the initial pin count. lsn is
// the entry's commit LSN: lsnNone for an uncommitted create (invisible to
// snapshots until commitCreate), 0 for recovered/bootstrapped objects
// (visible to every snapshot).
func (d *objDirectory) insert(id oid.OID, o *object.Object, pins int32, dirty, noEvict bool, lsn uint64) {
	e := &dirEntry{obj: o, dirty: dirty, noEvict: noEvict, lsn: lsn}
	e.pins.Store(pins)
	e.ref.Store(true)
	s := d.shard(id)
	s.mu.Lock()
	if s.objs[id] == nil {
		d.resident.Add(1)
	}
	s.objs[id] = e
	d.rechainLocked(s, id, e)
	s.mu.Unlock()
}

// insertIfAbsent publishes a faulted-in object unless a competing insert (or
// an uncommitted delete's tombstone) got there first, and returns the entry
// now in the directory (nil when a tombstone shadows the id).
func (d *objDirectory) insertIfAbsent(id oid.OID, o *object.Object) *object.Object {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		var cur *object.Object
		if !e.tomb {
			e.ref.Store(true)
			cur = e.obj
		}
		s.mu.Unlock()
		return cur
	}
	e := &dirEntry{obj: o}
	e.ref.Store(true)
	s.objs[id] = e
	d.resident.Add(1)
	s.mu.Unlock()
	return o
}

// pinOrInsert pins the resident entry for id, or installs o pinned if the
// id is absent. tomb reports that a tombstone shadows the id (nothing is
// pinned then).
func (d *objDirectory) pinOrInsert(id oid.OID, o *object.Object) (cur *object.Object, tomb bool) {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		if e.tomb {
			s.mu.Unlock()
			return nil, true
		}
		e.pins.Add(1)
		e.ref.Store(true)
		cur = e.obj
		s.mu.Unlock()
		return cur, false
	}
	e := &dirEntry{obj: o}
	e.pins.Store(1)
	e.ref.Store(true)
	s.objs[id] = e
	d.resident.Add(1)
	s.mu.Unlock()
	return o, false
}

// remove deletes the entry outright (committed deletes past the watermark,
// aborted creates), dropping any version chain with it.
func (d *objDirectory) remove(id oid.OID) {
	s := d.shard(id)
	s.mu.Lock()
	if e, ok := s.objs[id]; ok {
		d.liveVersions.Add(int64(-len(e.versions)))
		d.unchainLocked(s, id)
		delete(s.objs, id)
		d.resident.Add(-1)
	}
	s.mu.Unlock()
}

// setDirty sets the dirty bit and returns its previous value (so undo hooks
// can restore the pre-write state: the heap image still matches the restored
// fields after rollback).
func (d *objDirectory) setDirty(id oid.OID, dirty bool) (was bool) {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		was = e.dirty
		e.dirty = dirty
	}
	s.mu.Unlock()
	return was
}

// setTomb marks or unmarks an entry as an uncommitted delete. Snapshots and
// the secondary indexes still hold its committed image; commitDelete ends
// that.
func (d *objDirectory) setTomb(id oid.OID, tomb bool) {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		e.tomb = tomb
	}
	s.mu.Unlock()
}

// replaceObj swaps the resident pointer in place (schema evolution), marks
// the entry dirty, and archives the committed image into the version chain —
// an evolve is an ordinary MVCC write, so snapshots older than its commit
// keep seeing the pre-evolve class and fields. Returns the undo state
// (undoReplaceObj reverses it on abort).
func (d *objDirectory) replaceObj(id oid.OID, o *object.Object, dirty bool) (prev *object.Object, wasDirty, pushed bool) {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		prev, wasDirty = e.obj, e.dirty
		if !e.writerActive && e.lsn != lsnNone {
			e.versions = prependVersion(e.versions, objVersion{lsn: e.lsn, class: prev.Class(), fields: prev.CopyFields()})
			e.writerActive = true
			pushed = true
			d.chainLocked(s, id)
			d.liveVersions.Add(1)
		}
		e.obj = o
		e.dirty = dirty
	}
	s.mu.Unlock()
	return prev, wasDirty, pushed
}

// undoReplaceObj reverses replaceObj when the evolving transaction aborts.
func (d *objDirectory) undoReplaceObj(id oid.OID, prev *object.Object, wasDirty, pushed bool) {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		e.obj = prev
		e.dirty = wasDirty
		if pushed {
			d.popVersionLocked(s, id, e)
		}
	}
	s.mu.Unlock()
}

// residentCount returns the number of visible (non-tombstoned) residents.
func (d *objDirectory) residentCount() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for _, e := range s.objs {
			if !e.tomb {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// forEach calls fn for every entry (tombstones included) under the shard
// read lock; fn must not re-enter the directory or block.
func (d *objDirectory) forEach(fn func(id oid.OID, o *object.Object, tomb bool)) {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for id, e := range s.objs {
			fn(id, e.obj, e.tomb)
		}
		s.mu.RUnlock()
	}
}

// --- MVCC version chains -------------------------------------------------
//
// The snapshot-read protocol: a reader acquires a snapshot LSN S from the
// registry (S ≥ watermark by construction) and resolves each object through
// readAt. Writers archive the committed image into the chain under the
// shard WRITE lock before their first in-place mutation (pushVersion), so a
// reader that read obj under the shard read lock raced no mutation, and a
// reader that finds writerActive set serves from the immutable chain head.
// Commit installs the new LSN (commitWrite/commitCreate/commitDelete) and
// prunes; abort pops the pushed version after undo records restored the
// fields. Versions v_0 > v_1 > … cover half-open LSN ranges [v_i.lsn, n_i)
// where n_i is the next-newer image's LSN (n_0 = e.lsn); v_i is dead once
// n_i ≤ watermark, because every current and future snapshot S ≥ watermark
// then resolves to a newer image.

// prependVersion inserts v at the head (newest-first order).
func prependVersion(vs []objVersion, v objVersion) []objVersion {
	vs = append(vs, objVersion{})
	copy(vs[1:], vs)
	vs[0] = v
	return vs
}

// chainLocked / unchainLocked maintain the shard's set of entries carrying
// MVCC baggage, and its chainedMask bit on the set's empty ↔ non-empty
// transitions. The bit changes only under the shard mutex, which a sweep
// takes before it reads the set, so a sweep that loaded the mask without a
// shard's bit misses only chains pushed after it computed its watermark —
// live under that watermark, and named by the mask for the next sweep.
// Shard mutex held.
func (d *objDirectory) chainLocked(s *dirShard, id oid.OID) {
	if s.chained[id] {
		return
	}
	if len(s.chained) == 0 {
		d.setMaskBit(s.bit, true)
	}
	s.chained[id] = true
}

// rechainLocked puts e in or out of the chained set by whether it carries
// MVCC baggage: a version chain, an open writer window, a committed delete
// awaiting the watermark, or a fresh create. An entry outside the set has a
// committed image every snapshot sees, and its secondary-index entries are
// that image's values (lookupAt relies on this). Shard mutex held.
func (d *objDirectory) rechainLocked(s *dirShard, id oid.OID, e *dirEntry) {
	if len(e.versions) > 0 || e.writerActive || e.delLSN != 0 || e.fresh {
		d.chainLocked(s, id)
	} else {
		d.unchainLocked(s, id)
	}
}

func (d *objDirectory) unchainLocked(s *dirShard, id oid.OID) {
	if !s.chained[id] {
		return
	}
	delete(s.chained, id)
	if len(s.chained) == 0 {
		d.setMaskBit(s.bit, false)
	}
}

// setMaskBit sets or clears one shard's chainedMask bit. The other shards'
// bits change concurrently, under their own mutexes, hence the CAS.
func (d *objDirectory) setMaskBit(bit uint64, on bool) {
	for {
		m := d.chainedMask.Load()
		n := m &^ bit
		if on {
			n = m | bit
		}
		if d.chainedMask.CompareAndSwap(m, n) {
			return
		}
	}
}

// popVersionLocked drops the chain head and ends the writer window: the
// abort path, called after undo records restored obj's fields to exactly
// the state the popped version archived. Shard mutex held.
func (d *objDirectory) popVersionLocked(s *dirShard, id oid.OID, e *dirEntry) {
	if len(e.versions) == 0 {
		return
	}
	copy(e.versions, e.versions[1:])
	e.versions[len(e.versions)-1] = objVersion{}
	e.versions = e.versions[:len(e.versions)-1]
	e.writerActive = false
	d.liveVersions.Add(-1)
	d.rechainLocked(s, id, e)
}

// pushVersion archives fields — the committed image of id, copied by the
// caller, which the chain shares read-only from then on — into the version
// chain before the first in-place mutation by an uncommitted writer, and
// reports whether it pushed (false when the entry is absent, a version is
// already pushed for this writer window, or the creating transaction has
// not committed — there is no committed image to archive). The shard write lock
// taken here is the happens-before edge against snapshot readers: once it
// returns, readers see writerActive and serve from the immutable chain head,
// so the caller may mutate obj's fields without further coordination.
func (d *objDirectory) pushVersion(id oid.OID, fields []value.Value) bool {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.objs[id]
	if e == nil || e.writerActive || e.lsn == lsnNone {
		return false
	}
	e.versions = prependVersion(e.versions, objVersion{lsn: e.lsn, class: e.obj.Class(), fields: fields})
	e.writerActive = true
	d.chainLocked(s, id)
	d.liveVersions.Add(1)
	return true
}

// popVersion reverses pushVersion on abort.
func (d *objDirectory) popVersion(id oid.OID) {
	s := d.shard(id)
	s.mu.Lock()
	if e := s.objs[id]; e != nil {
		d.popVersionLocked(s, id, e)
	}
	s.mu.Unlock()
}

// commitWrite installs lsn as the entry's current commit LSN, ends the
// in-place writer window, and opportunistically prunes the chain against
// watermark w. It returns the image the write replaced — the archived head
// of the window (with no window open nothing was written in place, and the
// live image is it) — the new live object, and the number of versions
// pruned. The head survives the prune (its successor's LSN is lsn, above
// w), and archived fields are never written, so the image stays valid.
func (d *objDirectory) commitWrite(id oid.OID, lsn, w uint64) (prev snapImage, cur *object.Object, pruned int) {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.objs[id]
	if e == nil {
		return snapImage{}, nil, 0
	}
	prev = imageOf(e.obj)
	if e.writerActive {
		prev = snapImage{class: e.versions[0].class, fields: e.versions[0].fields}
	}
	e.writerActive = false
	e.lsn = lsn
	if pruned = d.pruneVersionsLocked(e, w); pruned > 0 {
		d.liveVersions.Add(int64(-pruned))
	}
	d.rechainLocked(s, id, e)
	return prev, e.obj, pruned
}

// commitCreate makes an uncommitted create visible to snapshots at lsn and
// returns its object. The entry is fresh — chained — from here until the
// watermark passes lsn.
func (d *objDirectory) commitCreate(id oid.OID, lsn uint64) *object.Object {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.objs[id]
	if e == nil {
		return nil
	}
	if e.lsn == lsnNone {
		e.lsn = lsn
		e.fresh = true
		d.chainLocked(s, id)
	}
	return e.obj
}

// commitDelete records a committed delete at lsn. The tombstoned entry stays
// resident until the watermark passes lsn so older snapshots can still read
// the object. The final committed image is archived into the chain first
// (when no writer window already did): e.lsn moves to the delete's LSN, so a
// snapshot between the last write and the delete must find the image there.
// A create that never committed (lsn == lsnNone) archives nothing — no
// snapshot can ever see it. It returns the last committed image, the
// archived head, and false when there is none.
func (d *objDirectory) commitDelete(id oid.OID, lsn uint64) (prev snapImage, ok bool) {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.objs[id]
	if e == nil {
		return snapImage{}, false
	}
	committed := e.lsn != lsnNone
	if !e.writerActive && committed {
		e.versions = prependVersion(e.versions, objVersion{lsn: e.lsn, class: e.obj.Class(), fields: e.obj.CopyFields()})
		d.liveVersions.Add(1)
	}
	e.writerActive = false
	e.lsn = lsn
	e.delLSN = lsn
	d.chainLocked(s, id)
	if !committed {
		return snapImage{}, false
	}
	return snapImage{class: e.versions[0].class, fields: e.versions[0].fields}, true
}

// applyCommitted installs a replicated committed image at lsn: the replica-
// side analogue of the pushVersion → mutate → commitWrite sequence, collapsed
// into one step because the new state arrives whole instead of being built
// in place. The entry's previous committed image (if any) is archived into
// the version chain first, so snapshot readers older than lsn keep their
// view; the chain is then pruned against watermark w. A missing entry is a
// replicated create: it becomes resident at lsn, invisible to snapshots
// begun before it. Callers must have faulted the prior committed image in
// (if one exists on the heap) before overwriting the heap, or older
// snapshots would fall through to the new image.
func (d *objDirectory) applyCommitted(id oid.OID, o *object.Object, lsn, w uint64) {
	s := d.shard(id)
	s.mu.Lock()
	e := s.objs[id]
	if e == nil {
		e = &dirEntry{obj: o, lsn: lsn, fresh: true}
		e.ref.Store(true)
		s.objs[id] = e
		d.resident.Add(1)
		d.chainLocked(s, id)
		s.mu.Unlock()
		return
	}
	if !e.writerActive && e.lsn != lsnNone && !e.tomb {
		e.versions = prependVersion(e.versions, objVersion{lsn: e.lsn, class: e.obj.Class(), fields: e.obj.CopyFields()})
		d.liveVersions.Add(1)
		d.chainLocked(s, id)
	}
	e.obj = o
	e.lsn = lsn
	e.dirty = false
	e.tomb = false
	e.writerActive = false
	e.ref.Store(true)
	if n := d.pruneVersionsLocked(e, w); n > 0 {
		d.liveVersions.Add(int64(-n))
	}
	d.rechainLocked(s, id, e)
	s.mu.Unlock()
}

// dropDeleted removes a committed-deleted entry once the watermark has
// passed its delete LSN; before that the entry (and its chain) must stay for
// older snapshots. Reports whether the entry is gone from the directory.
func (d *objDirectory) dropDeleted(id oid.OID, w uint64) bool {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.objs[id]
	if e == nil {
		return true
	}
	if e.delLSN == 0 || e.delLSN > w {
		return false
	}
	d.liveVersions.Add(int64(-len(e.versions)))
	d.unchainLocked(s, id)
	delete(s.objs, id)
	d.resident.Add(-1)
	return true
}

// pruneVersionsLocked drops versions dead under watermark w and returns how
// many were dropped. Version v_i is dead once the next-newer image's LSN
// n_i ≤ w (n_0 = e.lsn); deadness is monotone down the chain, so the scan
// cuts at the first dead index. While a writer window is open, v_0 is the
// only committed image of the object and is kept unconditionally (e.lsn
// still names the pre-push LSN then, which would wrongly condemn it).
// Shard mutex held; caller adjusts liveVersions.
func (d *objDirectory) pruneVersionsLocked(e *dirEntry, w uint64) int {
	if len(e.versions) == 0 {
		return 0
	}
	next := e.lsn
	start := 0
	if e.writerActive {
		next = e.versions[0].lsn
		start = 1
	}
	cut := len(e.versions)
	for i := start; i < len(e.versions); i++ {
		if next <= w {
			cut = i
			break
		}
		next = e.versions[i].lsn
	}
	pruned := len(e.versions) - cut
	if pruned > 0 {
		for j := cut; j < len(e.versions); j++ {
			e.versions[j] = objVersion{}
		}
		e.versions = e.versions[:cut]
	}
	return pruned
}

// pruneChains sweeps every chained entry against watermark w: dead versions
// are dropped, and committed-deleted entries whose delete LSN the watermark
// has passed are removed outright. Returns versions pruned and entries
// dropped. Only the shards chainedMask names are locked, and in them only
// the entries of the chained set are visited, so the sweep is O(MVCC
// baggage), not O(shards) or O(residents).
func (d *objDirectory) pruneChains(w uint64) (pruned, dropped int) {
	swept := int64(0)
	for m := d.chainedMask.Load(); m != 0; m &= m - 1 {
		s := &d.shards[bits.TrailingZeros64(m)]
		swept++
		s.mu.Lock()
		for id := range s.chained {
			e := s.objs[id]
			if e == nil {
				d.unchainLocked(s, id)
				continue
			}
			if n := d.pruneVersionsLocked(e, w); n > 0 {
				d.liveVersions.Add(int64(-n))
				pruned += n
			}
			if e.fresh && e.lsn <= w {
				e.fresh = false
			}
			if e.delLSN != 0 && e.delLSN <= w {
				d.liveVersions.Add(int64(-len(e.versions)))
				pruned += len(e.versions)
				d.unchainLocked(s, id)
				delete(s.objs, id)
				d.resident.Add(-1)
				dropped++
				continue
			}
			d.rechainLocked(s, id, e)
		}
		s.mu.Unlock()
	}
	d.swept.Add(swept)
	return pruned, dropped
}

// snapStatus classifies a snapshot read against the directory.
type snapStatus int

const (
	snapOK        snapStatus = iota // object returned
	snapMiss                        // no entry — caller may fault from the heap
	snapGone                        // deleted at or before the snapshot
	snapInvisible                   // created after the snapshot
)

// snapImage is the image of an entry visible at a snapshot LSN: the live
// object, or an archived version's class and fields. It is only valid while
// the shard read lock that produced it is held — a writer may mutate the
// live object in place once the lock is gone.
type snapImage struct {
	class  *schema.Class
	obj    *object.Object // the live image; nil for an archived version
	fields []value.Value  // the archived version's fields
}

// slot reads one attribute of the image.
func (im snapImage) slot(i int) value.Value {
	if im.obj != nil {
		return im.obj.GetSlot(i)
	}
	return im.fields[i]
}

// attr reads the named attribute of the image; a is nil when its class has
// no such attribute.
func (im snapImage) attr(name string) (a *schema.Attribute, v value.Value) {
	if a = im.class.AttributeNamed(name); a != nil {
		v = im.slot(a.Slot())
	}
	return a, v
}

// materialize copies the image into an object of its own.
func (im snapImage) materialize(id oid.OID) *object.Object {
	if im.obj != nil {
		return im.obj.Clone()
	}
	return object.Materialize(id, im.class, im.fields)
}

// visibleLocked resolves e as of snapshot LSN snap — the one visibility
// rule every snapshot read goes through. The live image is served only when
// no writer window is open and its commit LSN is visible; otherwise the
// chain is walked for the newest version at or below snap. snapInvisible
// deliberately does NOT fall back to the heap: an entry exists, so the heap
// image (if any) belongs to a state the snapshot must not observe. Shard
// mutex held.
func (e *dirEntry) visibleLocked(snap uint64) (im snapImage, st snapStatus) {
	if e.delLSN != 0 && e.delLSN <= snap {
		return im, snapGone
	}
	if !e.writerActive && e.lsn != lsnNone && e.lsn <= snap {
		return snapImage{class: e.obj.Class(), obj: e.obj}, snapOK
	}
	for _, v := range e.versions {
		if v.lsn <= snap {
			return snapImage{class: v.class, fields: v.fields}, snapOK
		}
	}
	return im, snapInvisible
}

// readAt resolves id as of snapshot LSN snap and, when an image is visible
// there, calls read with it under the shard read lock. read must not
// re-enter the directory or block; it copies out what it needs.
func (d *objDirectory) readAt(id oid.OID, snap uint64, read func(im snapImage)) snapStatus {
	s := d.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.objs[id]
	if e == nil {
		return snapMiss
	}
	im, st := e.visibleLocked(snap)
	if st == snapOK {
		if im.obj != nil {
			e.ref.Store(true)
		}
		read(im)
	}
	return st
}

// forEachSnapshot calls fn for EVERY directory entry under the shard read
// locks: c is the class of the version visible at snapshot LSN snap, or nil
// when the entry is invisible there (deleted at or before snap, or created
// after it). Invisible entries are still reported so callers merging with
// the heap catalog know the directory owns the id — a nil-class id must not
// be resurrected from its (post-snapshot) heap image. fn must not re-enter
// the directory or block; callers read objects via readAt.
func (d *objDirectory) forEachSnapshot(snap uint64, fn func(id oid.OID, c *schema.Class)) {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for id, e := range s.objs {
			im, _ := e.visibleLocked(snap)
			fn(id, im.class)
		}
		s.mu.RUnlock()
	}
}

// chainedAt appends to out every chained entry whose image visible at
// snapshot LSN snap is covered by an index on class.attr and holds v there.
// These are the objects an index probe for v can miss at snap: the index
// holds the latest committed values, and an object whose value moved away
// from v after snap carries a version or a delete until the watermark
// passes it.
func (d *objDirectory) chainedAt(snap uint64, class, attr string, v value.Value, out []oid.OID) []oid.OID {
	for m := d.chainedMask.Load(); m != 0; m &= m - 1 {
		s := &d.shards[bits.TrailingZeros64(m)]
		s.mu.RLock()
		for id := range s.chained {
			e := s.objs[id]
			if e == nil {
				continue
			}
			im, st := e.visibleLocked(snap)
			if st != snapOK || !covers(im.class, class) {
				continue
			}
			if a, got := im.attr(attr); a != nil && got.Equal(v) {
				out = append(out, id)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// maxChainDepth reports the longest version chain currently live (the
// Snapshot.Storage stat); it visits only chained entries of the shards
// chainedMask names.
func (d *objDirectory) maxChainDepth() int {
	depth := 0
	for m := d.chainedMask.Load(); m != 0; m &= m - 1 {
		s := &d.shards[bits.TrailingZeros64(m)]
		s.mu.RLock()
		for id := range s.chained {
			if e := s.objs[id]; e != nil && len(e.versions) > depth {
				depth = len(e.versions)
			}
		}
		s.mu.RUnlock()
	}
	return depth
}

// evictDownTo runs the second-chance clock over the shards until the
// resident count drops to target (or two full sweeps prove nothing more is
// evictable: everything left is pinned, dirty, wired, tombstoned, or MVCC-
// protected). It returns the evicted OIDs so the caller can drop their
// consumer-cache entries outside the shard locks.
//
// w is the MVCC watermark (min of the oldest active snapshot and the stable
// LSN). An entry is only evictable when its whole MVCC history collapses to
// the heap image: no version chain, no pending delete, no active writer,
// no fresh create the sweep has not yet cleared (it stays chained), and a
// commit LSN at or below w — an entry whose current image postdates an
// active snapshot must stay resident, because a fault-in would serve that
// too-new image to the older snapshot (lsnNone sorts above every w, wiring
// uncommitted creates automatically).
func (d *objDirectory) evictDownTo(target int64, w uint64) []oid.OID {
	var evicted []oid.OID
	visited := int64(0)
	for sweep := 0; sweep < 2*dirShardCount && d.resident.Load() > target; sweep++ {
		s := &d.shards[d.hand.Add(1)%dirShardCount]
		s.mu.Lock()
		for id, e := range s.objs {
			if d.resident.Load() <= target {
				break
			}
			visited++
			if e.tomb || e.noEvict || e.dirty || e.pins.Load() != 0 {
				continue
			}
			if e.writerActive || len(e.versions) > 0 || e.delLSN != 0 || e.fresh || e.lsn > w {
				continue // MVCC-protected (see above)
			}
			if e.ref.Swap(false) {
				continue // second chance
			}
			delete(s.objs, id)
			d.resident.Add(-1)
			evicted = append(evicted, id)
		}
		s.mu.Unlock()
	}
	d.visited.Add(visited)
	return evicted
}
