package core

import (
	"errors"
	"fmt"

	"sentinel/internal/event"
	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// AbortError is the error a rule action (or method body) raises to abort
// the triggering transaction — the paper's `A: abort` action (Fig. 9).
// Database.Commit and Database.Atomically treat it as a rollback request.
type AbortError struct {
	Reason string
}

// Error implements error.
func (e *AbortError) Error() string { return "transaction aborted: " + e.Reason }

// IsAbort reports whether err is (or wraps) an AbortError.
func IsAbort(err error) bool {
	var ae *AbortError
	return errors.As(err, &ae)
}

// Tx is a database transaction. All object access, rule definition and
// subscription maintenance happens inside one; Database.Atomically is the
// convenience wrapper. Tx is not safe for concurrent use by multiple
// goroutines.
//
// The handle is never recycled — callers and parked Pendings keep it after
// the transaction ends — but its *txState is: Begin takes one from
// Database.txFree, and the very end of Abort or Pending.Finish empties it and
// puts it back. A finished Tx has a nil state, and a snapshot
// (BeginSnapshot) never has one; every entry point checks Active, and every
// mutation entry point writable, which read only the handle, before it
// touches one.
type Tx struct {
	db    *Database
	inner *txn.Tx
	*txState

	detached []rule.Firing

	// pushes holds remote-sink deliveries matched during raise; they fan
	// out only after the commit is durable (and are dropped on abort), so a
	// remote subscriber never observes an occurrence of an aborted
	// transaction. See sink.go.
	pushes []pendingPush

	// replOccs holds every occurrence raised while a replication shipper is
	// installed; they ride the transaction's shipped WAL batch (or an
	// event-only batch when the commit wrote nothing durable) so followers
	// can fan them out to their own subscribers. Dropped on abort. See
	// repl.go.
	replOccs []event.Occurrence

	// fromDetachedWorker marks transactions begun by the detached executor
	// pool: their own detached dispatches (chained firings) bypass queue
	// backpressure, which is what makes the bounded queue deadlock-free
	// (see detached.go).
	fromDetachedWorker bool

	// Snapshot state (BeginSnapshot, mvcc.go). snapID != 0 marks a
	// read-only snapshot transaction — its registration ID — reading as of
	// commit LSN snapLSN.
	snapID  uint64
	snapLSN uint64

	finished bool
}

// txState is the part of a transaction that dies with it and is recycled
// through Database.txFree: the write set, the pins, the deferred agenda,
// the undo list and the scratch buffers of the raise and call paths.
// Nothing in it outlives the transaction — the detached firings' conflict
// keys are a copy (writeSetOIDs) — and the end paths empty it (resetTouched,
// releasePins, then recycle) before it is reused.
type txState struct {
	dirty   map[oid.OID]bool
	created map[oid.OID]bool
	deleted map[oid.OID]bool

	// pinned tracks the directory entries this transaction holds a pin on
	// (one pin per object per transaction, taken by lockObject when
	// eviction is enabled). Pins guarantee pointer stability: undo records
	// and execution frames capture *object.Object, so the evictor must not
	// reclaim entries a live transaction references. Lazily allocated; nil
	// while paging is off.
	pinned map[oid.OID]bool

	deferred rule.Agenda

	// undo is run in reverse on abort (rollback), with the 2PL locks still
	// held.
	undo []undoRec

	// touched holds the tx-scoped rules this transaction delivered events
	// to; their detectors reset when the transaction ends.
	touched map[*rule.Rule]bool

	// fireScratch is the reusable buffer for the immediate firing batch of
	// a raise; each raise takes ownership for its duration (see raise), so
	// steady-state event traffic schedules immediate rules without
	// allocating.
	fireScratch []rule.Firing

	// framePool recycles execution frames for method bodies and rule
	// evaluations. Frames are strictly call-scoped (callees must not retain
	// their CallContext/ExecContext past the call), so a LIFO free list
	// makes the send → body → raise hot path frame-allocation-free.
	framePool []*frame
}

// txFreeSize is the capacity of Database.txFree, a leaky buffer: Begin
// takes a state when one is there and allocates otherwise, recycle drops a
// state when the list is full. Unlike a sync.Pool it keeps its contents
// across collections and under the race detector (where a Pool drops items
// at random), so the steady-state hot path allocates no state at all and
// the allocation pins hold under -race. 64 covers the transactions that end close together in practice —
// sessions, detached workers, parked tails; a burst beyond it allocates.
const txFreeSize = 64

// getTxState returns an empty transaction state.
func (db *Database) getTxState() *txState {
	select {
	case st := <-db.txFree:
		return st
	default:
		return &txState{
			dirty:   make(map[oid.OID]bool),
			created: make(map[oid.OID]bool),
			deleted: make(map[oid.OID]bool),
		}
	}
}

// maxRecycledTxState bounds the write set and undo list of a state worth
// recycling: clear keeps a map's table, so one huge transaction must not
// pin its maps in the free list.
const maxRecycledTxState = 1024

// undoRec is one entry of the undo list. A recorded write is typed, so the
// hot path allocates no closure for it: o's fields go back to snap (the
// before-image, which the archived version shares when pushed), under
// paging the entry's dirty bit goes back to wasDirty, and the pushed
// version pops. Any other undo action is fn.
type undoRec struct {
	o        *object.Object
	snap     []value.Value
	wasDirty bool
	pushed   bool
	fn       func()
}

// onUndo registers fn to run if the transaction aborts.
func (t *Tx) onUndo(fn func()) { t.undo = append(t.undo, undoRec{fn: fn}) }

// rollback runs the undo list in reverse: the 2PL locks are still held, and
// each version pops only after its object's fields are restored. No
// secondary index holds uncommitted state, so none is touched.
func (t *Tx) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := &t.undo[i]
		if u.fn != nil {
			u.fn()
			continue
		}
		u.o.RestoreFields(u.snap)
		if t.db.pagingEnabled() {
			t.db.dir.setDirty(u.o.ID(), u.wasDirty)
		}
		if u.pushed {
			t.db.dir.popVersion(u.o.ID())
		}
	}
}

// recycle empties the transaction's state and returns it to the free list;
// the last step of Abort and Pending.Finish. A state grown past
// maxRecycledTxState is left to the collector instead.
func (t *Tx) recycle() {
	st := t.txState
	if st == nil {
		return
	}
	t.txState = nil
	if len(st.dirty) > maxRecycledTxState || len(st.created) > maxRecycledTxState ||
		len(st.deleted) > maxRecycledTxState || len(st.pinned) > maxRecycledTxState ||
		cap(st.undo) > maxRecycledTxState {
		return
	}
	clear(st.dirty)
	clear(st.created)
	clear(st.deleted)
	clear(st.undo)
	st.undo = st.undo[:0]
	select {
	case t.db.txFree <- st:
	default:
	}
}

// writeSetOIDs snapshots the transaction's write set (dirty ∪ created ∪
// deleted) at detached-scheduling time. The conflict-aware executor keys
// on it, so firings scheduled by transactions over disjoint objects run
// in parallel. The returned slice is shared read-only by every detached
// firing of one raise.
func (t *Tx) writeSetOIDs() []oid.OID {
	n := len(t.dirty) + len(t.created) + len(t.deleted)
	if n == 0 {
		return nil
	}
	ws := make([]oid.OID, 0, n)
	for id := range t.dirty {
		ws = append(ws, id)
	}
	for id := range t.created {
		if !t.dirty[id] {
			ws = append(ws, id)
		}
	}
	for id := range t.deleted {
		if !t.dirty[id] && !t.created[id] {
			ws = append(ws, id)
		}
	}
	return ws
}

// getFrame returns a zeroed frame, reusing a recycled one when available.
// Tx is single-goroutine, so no locking.
func (t *Tx) getFrame() *frame {
	if n := len(t.framePool); n > 0 {
		f := t.framePool[n-1]
		t.framePool = t.framePool[:n-1]
		return f
	}
	return &frame{}
}

// putFrame recycles a frame once its call returns. The frame is zeroed so
// the pool does not pin objects, methods or detections.
func (t *Tx) putFrame(f *frame) {
	*f = frame{}
	t.framePool = append(t.framePool, f)
}

// Begin starts a transaction.
func (db *Database) Begin() *Tx {
	t := &Tx{db: db, inner: db.tm.Begin(), txState: db.getTxState()}
	t.deferred.Reset(db.currentStrategy())
	if tr := db.tracer.Load(); tr != nil && tr.TxBegin != nil {
		tr.TxBegin(obs.TxInfo{Tx: uint64(t.inner.ID())})
	}
	return t
}

// ID returns the transaction identifier.
func (t *Tx) ID() txn.ID { return t.inner.ID() }

// Active reports whether the transaction can still do work.
func (t *Tx) Active() bool { return !t.finished && t.inner.Active() }

// Abort rolls the transaction back.
func (db *Database) Abort(t *Tx) {
	if t.snapID != 0 {
		db.endSnapshot(t, false)
		return
	}
	if t.finished {
		return
	}
	t.finished = true
	t.deferred.Clear()
	t.detached = nil
	t.pushes = nil
	t.replOccs = nil
	t.resetTouched()
	t.rollback()
	t.inner.Abort()
	t.releasePins()
	if tr := db.tracer.Load(); tr != nil && tr.TxAbort != nil {
		tr.TxAbort(obs.TxInfo{Tx: uint64(t.inner.ID())})
	}
	t.recycle()
}

// releasePins drops every directory pin the transaction holds. Runs after
// rollback (undo records may still dereference the pinned objects). Entries
// removed by an aborted create's undo are tolerated by unpin.
func (t *Tx) releasePins() {
	if len(t.pinned) == 0 {
		return
	}
	for id := range t.pinned {
		t.db.dir.unpin(id)
	}
	clear(t.pinned)
	// What kept the last sweep above its target may just have been freed.
	if t.db.evictRetry.Load() != 0 {
		t.db.evictRetry.Store(0)
	}
}

// pin records a directory pin taken on behalf of this transaction.
func (t *Tx) pin(id oid.OID) {
	if t.pinned == nil {
		t.pinned = make(map[oid.OID]bool)
	}
	t.pinned[id] = true
}

// resetTouched clears detection state of tx-scoped rules fed by this
// transaction.
func (t *Tx) resetTouched() {
	for r := range t.touched {
		r.ResetDetection()
	}
	clear(t.touched)
}

// Atomically runs fn inside a transaction, committing on nil and aborting
// on error (returning the error). An AbortError raised by a rule or method
// is returned as-is after rollback.
func (db *Database) Atomically(fn func(*Tx) error) error {
	return db.atomicallyPending(fn).Finish()
}

// atomicallyPending is Atomically cut after the commit head (see Pending).
func (db *Database) atomicallyPending(fn func(*Tx) error) Pending {
	t := db.Begin()
	if err := fn(t); err != nil {
		db.Abort(t)
		return Pending{err: err}
	}
	return db.commitHead(t)
}

// ---- object primitives ----

// NewObject creates an instance of the named class with the given attribute
// initializers (constructor semantics: initializers bypass visibility, like
// a C++ constructor's member-init list) and returns its OID. Creation does
// not raise events; the paper's events come from message sends.
func (db *Database) NewObject(t *Tx, class string, inits map[string]value.Value) (oid.OID, error) {
	if err := t.writable(); err != nil {
		return oid.Nil, err
	}
	if db.replicaWriteBlocked() {
		return oid.Nil, ErrReplicaWrite
	}
	c := db.reg.Lookup(class)
	if c == nil {
		return oid.Nil, fmt.Errorf("core: unknown class %q", class)
	}
	id := db.alloc.Next()
	o, err := object.New(id, c)
	if err != nil {
		return oid.Nil, err
	}
	for k, v := range inits {
		if c.AttributeNamed(k) == nil {
			return oid.Nil, fmt.Errorf("core: class %s has no attribute %q", class, k)
		}
		if err := o.Set(k, v); err != nil {
			return oid.Nil, err
		}
	}
	if err := t.inner.Lock(txn.Lockable(id), txn.Exclusive); err != nil {
		return oid.Nil, err
	}
	// System objects and instances of non-persistent classes are wired
	// resident (they have no rebuildable heap image, or the runtime
	// catalogs reference them); everything else starts dirty — it has no
	// heap image yet — and becomes evictable once applyCommit stores it.
	noEvict := IsSystemClass(class) || !c.Persistent
	var pins int32
	if db.pagingEnabled() {
		pins = 1
		t.pin(id)
	}
	db.dir.insert(id, o, pins, !noEvict, noEvict, lsnNone)
	t.created[id] = true
	t.onUndo(func() { db.dir.remove(id) })
	return id, nil
}

// lockObject locks and returns the object, faulting it in from the heap if
// necessary and erroring if it does not exist. When eviction is enabled the
// object is also pinned for the rest of the transaction, so the returned
// pointer stays valid for undo records and frames. The resident-hit path
// is allocation-free after the first touch per (transaction, object).
func (db *Database) lockObject(t *Tx, id oid.OID, mode txn.Mode) (*object.Object, error) {
	if !t.Active() {
		return nil, txn.ErrNotActive
	}
	// Snapshot transactions take no locks and no pins: reads resolve
	// through the version chains at the snapshot LSN, so they neither block
	// writers nor are blocked by them. Write intents are rejected.
	if t.snapID != 0 {
		if mode == txn.Exclusive {
			return nil, errReadOnlyTx
		}
		o, err := db.resolveSnapshot(id, t.snapLSN)
		if err == nil && o == nil {
			err = fmt.Errorf("core: no object %s", id)
		}
		return o, err
	}
	if mode == txn.Exclusive && db.replicaWriteBlocked() {
		return nil, ErrReplicaWrite
	}
	if err := t.inner.Lock(txn.Lockable(id), mode); err != nil {
		return nil, err
	}
	if db.pagingEnabled() {
		return db.lockPinned(t, id)
	}
	o, err := db.faultObject(id)
	if err != nil {
		return nil, err
	}
	if o == nil {
		return nil, fmt.Errorf("core: no object %s", id)
	}
	return o, nil
}

// lockPinned resolves and pins a locked object under eviction pressure.
// Pinning is atomic with the residency check (dir.pin under the shard read
// lock excludes the evictor's write-locked sweep), so a pinned pointer
// cannot be reclaimed.
func (db *Database) lockPinned(t *Tx, id oid.OID) (*object.Object, error) {
	if t.pinned[id] {
		// Already pinned by this transaction: the entry cannot have been
		// evicted; a nil here means we tombstoned it ourselves.
		if o, _ := db.dir.get(id); o != nil {
			return o, nil
		}
		return nil, fmt.Errorf("core: no object %s", id)
	}
	if o, found, tomb := db.dir.pin(id); found {
		if tomb {
			return nil, fmt.Errorf("core: no object %s", id)
		}
		t.pin(id)
		return o, nil
	}
	fo, err := db.faultObject(id)
	if err != nil {
		return nil, err
	}
	if fo == nil {
		return nil, fmt.Errorf("core: no object %s", id)
	}
	// The freshly faulted entry may already have been swept again; pin
	// whatever is resident now, or (re)install our decode pinned.
	o, tomb := db.dir.pinOrInsert(id, fo)
	if tomb {
		return nil, fmt.Errorf("core: no object %s", id)
	}
	t.pin(id)
	return o, nil
}

// recordWrite snapshots the object once per transaction for rollback and
// marks it dirty — in the transaction's write set and, under eviction, on
// the directory entry (a dirty entry is wired until applyCommit stores it;
// rollback restores the prior bit because the fields then match the heap
// image again).
//
// It also opens the entry's MVCC writer window: pushVersion archives the
// committed image into the version chain under the shard write lock BEFORE
// the caller's first in-place mutation, so snapshot readers either read
// the object while it was still clean or serve the immutable chain head.
// The one copy of the image is both the undo record's before-image and the
// archived version; neither is ever written. On abort the version pops
// after the fields are restored.
func (t *Tx) recordWrite(o *object.Object) {
	id := o.ID()
	if t.dirty[id] || t.created[id] {
		t.dirty[id] = true
		return
	}
	t.dirty[id] = true
	u := undoRec{o: o, snap: o.CopyFields()}
	u.pushed = t.db.dir.pushVersion(id, u.snap)
	if t.db.pagingEnabled() {
		u.wasDirty = t.db.dir.setDirty(id, true)
	}
	t.undo = append(t.undo, u)
}

// checkAttrVisible enforces member visibility for an attribute access by
// code of class `caller` (nil = application code; system access passes
// sysAccess=true).
func checkAttrVisible(a *schema.Attribute, caller *schema.Class, sysAccess bool) error {
	if sysAccess || a.Visibility == schema.Public {
		return nil
	}
	if caller == nil {
		return fmt.Errorf("core: attribute %s.%s is %s", a.Owner().Name, a.Name, a.Visibility)
	}
	switch a.Visibility {
	case schema.Protected:
		if caller.IsSubclassOf(a.Owner()) {
			return nil
		}
	case schema.Private:
		if caller == a.Owner() {
			return nil
		}
	}
	return fmt.Errorf("core: attribute %s.%s is %s (caller %s)", a.Owner().Name, a.Name, a.Visibility, caller.Name)
}

// checkMethodVisible is the method counterpart.
func checkMethodVisible(m *schema.Method, caller *schema.Class, sysAccess bool) error {
	if sysAccess || m.Visibility == schema.Public {
		return nil
	}
	if caller == nil {
		return fmt.Errorf("core: method %s is %s", m.Signature(), m.Visibility)
	}
	switch m.Visibility {
	case schema.Protected:
		if caller.IsSubclassOf(m.Owner()) {
			return nil
		}
	case schema.Private:
		if caller == m.Owner() {
			return nil
		}
	}
	return fmt.Errorf("core: method %s is %s (caller %s)", m.Signature(), m.Visibility, caller.Name)
}

// getAttr reads an attribute with visibility checking; a snapshot reads it
// in place (snapshotAttr).
func (db *Database) getAttr(t *Tx, id oid.OID, attr string, caller *schema.Class, sysAccess bool) (value.Value, error) {
	if t.snapID != 0 {
		return db.snapshotAttr(t, id, attr, caller, sysAccess)
	}
	o, err := db.lockObject(t, id, txn.Shared)
	if err != nil {
		return value.Nil, err
	}
	a := o.Class().AttributeNamed(attr)
	if a == nil {
		return value.Nil, fmt.Errorf("core: class %s has no attribute %q", o.Class().Name, attr)
	}
	if err := checkAttrVisible(a, caller, sysAccess); err != nil {
		return value.Nil, err
	}
	return o.GetSlot(a.Slot()), nil
}

// setAttr writes an attribute with visibility checking, undo logging and
// dirty tracking. Direct attribute writes do not raise events (state
// changes of interest go through methods declared in the event interface).
func (db *Database) setAttr(t *Tx, id oid.OID, attr string, v value.Value, caller *schema.Class, sysAccess bool) error {
	o, err := db.lockObject(t, id, txn.Exclusive)
	if err != nil {
		return err
	}
	a := o.Class().AttributeNamed(attr)
	if a == nil {
		return fmt.Errorf("core: class %s has no attribute %q", o.Class().Name, attr)
	}
	if err := checkAttrVisible(a, caller, sysAccess); err != nil {
		return err
	}
	if !a.Type.Accepts(v.Kind()) {
		return fmt.Errorf("core: %s.%s: want %s, got %s", o.Class().Name, attr, a.Type, v.Kind())
	}
	t.recordWrite(o)
	o.SetSlot(a.Slot(), a.Type.Widen(v))
	return nil
}

// Get reads a public attribute (application-level access).
func (db *Database) Get(t *Tx, id oid.OID, attr string) (value.Value, error) {
	return db.getAttr(t, id, attr, nil, false)
}

// Set writes a public attribute (application-level access; no events).
func (db *Database) Set(t *Tx, id oid.OID, attr string, v value.Value) error {
	return db.setAttr(t, id, attr, v, nil, false)
}

// DeleteObject removes an object. Subscriptions from or to it are dropped.
func (db *Database) DeleteObject(t *Tx, id oid.OID) error {
	if _, err := db.lockObject(t, id, txn.Exclusive); err != nil {
		return err
	}
	// Tombstone, don't remove: the entry keeps the object for the undo
	// closure and blocks fault-in from resurrecting the stale heap image
	// while the delete is uncommitted. Commit sweeps tombstones away.
	db.dir.setTomb(id, true)
	db.mu.Lock()
	savedSubs := db.subs[id]
	delete(db.subs, id)
	savedFns := db.funcConsumers[id]
	delete(db.funcConsumers, id)
	db.mu.Unlock()
	t.deleted[id] = true
	db.invalidateConsumers(t, scopeObj(id), func() {
		db.dir.setTomb(id, false)
		db.mu.Lock()
		if savedSubs != nil {
			db.subs[id] = savedSubs
		}
		if savedFns != nil {
			db.funcConsumers[id] = savedFns
		}
		db.mu.Unlock()
		delete(t.deleted, id)
	})
	return nil
}

// Exists reports whether an object with the given OID is live.
func (db *Database) Exists(id oid.OID) bool { return db.objectByID(id) != nil }

// ClassOf returns the class of a live object (nil if absent).
func (db *Database) ClassOf(id oid.OID) *schema.Class {
	o := db.objectByID(id)
	if o == nil {
		return nil
	}
	return o.Class()
}

// GetSys reads an attribute with system visibility (tooling/baselines).
func (db *Database) GetSys(t *Tx, id oid.OID, attr string) (value.Value, error) {
	return db.getAttr(t, id, attr, nil, true)
}

// SetSys writes an attribute with system visibility (tooling/baselines).
func (db *Database) SetSys(t *Tx, id oid.OID, attr string, v value.Value) error {
	return db.setAttr(t, id, attr, v, nil, true)
}

// InstancesOf returns the OIDs of all live instances of the named class and
// its subclasses, sorted. The result is the union of the resident directory
// (which sees uncommitted creates and hides uncommitted deletes) and the
// heap's object table (committed cold objects), so it is identical whether
// an instance is resident or evicted.
func (db *Database) InstancesOf(class string) []oid.OID {
	c := db.reg.Lookup(class)
	if c == nil {
		return nil
	}
	var out []oid.OID
	present := make(map[oid.OID]bool)
	db.dir.forEach(func(id oid.OID, o *object.Object, tomb bool) {
		present[id] = true
		if !tomb && o.Class().IsSubclassOf(c) {
			out = append(out, id)
		}
	})
	if db.store != nil {
		subs := db.heapSubclasses(c)
		for _, o := range db.store.Objects() {
			if subs[o.Class] && !present[o.ID] {
				out = append(out, o.ID)
			}
		}
	}
	value.SortRefs(out)
	return out
}
