package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

	"sentinel/internal/index"
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// Secondary indexes: equality lookups on (class, attribute), maintained
// inline on every write with undo hooks, persisted as __Index catalog
// objects, rebuilt on open. Queries go through LookupByAttr (and the
// SentinelQL lookup(...) builtin), which uses the index when one exists and
// degrades to a scan otherwise.

type idxKey struct{ class, attr string }

// CreateIndex builds an equality index on class.attr (covering subclass
// instances), backfills it from the live population, and records it in the
// catalog. Creation is transactional.
func (db *Database) CreateIndex(t *Tx, class, attr string) (*index.Hash, error) {
	cls := db.reg.Lookup(class)
	if cls == nil {
		return nil, fmt.Errorf("core: unknown class %q", class)
	}
	if IsSystemClass(class) {
		return nil, fmt.Errorf("core: cannot index system class %s", class)
	}
	a := cls.AttributeNamed(attr)
	if a == nil {
		return nil, fmt.Errorf("core: class %s has no attribute %q", class, attr)
	}
	k := idxKey{class, attr}
	db.mu.RLock()
	_, dup := db.indexes[k]
	db.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("core: index on %s.%s already exists", class, attr)
	}

	h := index.NewHash(class, attr)
	// Backfill under shared locks so concurrent writers serialize with us.
	for _, id := range db.InstancesOf(class) {
		v, err := db.getAttr(t, id, attr, nil, true)
		if err != nil {
			return nil, err
		}
		h.Add(id, v)
	}
	objID, err := db.NewObject(t, SysIndexClass, map[string]value.Value{
		"class": value.Str(class),
		"attr":  value.Str(attr),
	})
	if err != nil {
		return nil, err
	}
	db.setIndex(k, h, objID)
	t.onUndo(func() { db.setIndex(k, nil, 0) })
	return h, nil
}

// DropIndex removes the index and its catalog object.
func (db *Database) DropIndex(t *Tx, class, attr string) error {
	k := idxKey{class, attr}
	db.mu.RLock()
	h := db.indexes[k]
	objID := db.indexObjs[k]
	db.mu.RUnlock()
	if h == nil {
		return fmt.Errorf("core: no index on %s.%s", class, attr)
	}
	if err := db.DeleteObject(t, objID); err != nil {
		return err
	}
	db.setIndex(k, nil, 0)
	t.onUndo(func() { db.setIndex(k, h, objID) })
	return nil
}

// setIndex makes h, backed by the __Index object id, the index on k,
// replacing any index there; a nil h just removes it.
func (db *Database) setIndex(k idxKey, h *index.Hash, id oid.OID) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if old := db.indexes[k]; old != nil {
		delete(db.indexes, k)
		delete(db.indexObjs, k)
		db.indexByClass[k.class] = removeIndex(db.indexByClass[k.class], old)
	}
	if h != nil {
		db.indexes[k] = h
		db.indexObjs[k] = id
		db.indexByClass[k.class] = append(db.indexByClass[k.class], h)
	}
}

// Index returns the live index on class.attr (nil if absent).
func (db *Database) Index(class, attr string) *index.Hash {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[idxKey{class, attr}]
}

func removeIndex(s []*index.Hash, h *index.Hash) []*index.Hash {
	for i, x := range s {
		if x == h {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}

// indexesCovering returns the indexes that cover the given object's
// attribute: any index declared on a class in the object's MRO with a
// matching attribute name.
func (db *Database) indexesCovering(o *object.Object, attr string) []*index.Hash {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*index.Hash
	for _, k := range o.Class().MRO() {
		for _, h := range db.indexByClass[k.Name] {
			if h.Attr() == attr {
				out = append(out, h)
			}
		}
	}
	return out
}

// indexWrite updates covering indexes for an attribute change and arms the
// undo hook.
func (db *Database) indexWrite(t *Tx, o *object.Object, attr string, oldV, newV value.Value) {
	covering := db.indexesCovering(o, attr)
	if len(covering) == 0 {
		return
	}
	id := o.ID()
	for _, h := range covering {
		h.Move(id, oldV, newV)
	}
	t.onUndo(func() {
		for _, h := range covering {
			h.Move(id, newV, oldV)
		}
	})
}

// indexObjectAdd indexes a freshly created object in every covering index
// and arms the undo.
func (db *Database) indexObjectAdd(t *Tx, o *object.Object) {
	if db.reindex(o.ID(), nil, o) {
		t.onUndo(func() { db.reindex(o.ID(), o, nil) })
	}
}

// indexObjectRemove drops a deleted object from every covering index and
// arms the undo.
func (db *Database) indexObjectRemove(t *Tx, o *object.Object) {
	if db.reindex(o.ID(), o, nil) {
		t.onUndo(func() { db.reindex(o.ID(), nil, o) })
	}
}

// reindex carries id's entries in the secondary indexes from one image to
// another, either of which may be nil (a create, a delete), and reports
// whether any index covers either. A replicated write passes its prior and
// new committed images.
func (db *Database) reindex(id oid.OID, prev, o *object.Object) (touched bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, h := range db.indexes {
		oldV, had := indexedValue(prev, h)
		newV, has := indexedValue(o, h)
		switch {
		case had && has:
			h.Move(id, oldV, newV)
		case had:
			h.Remove(id, oldV)
		case has:
			h.Add(id, newV)
		}
		touched = touched || had || has
	}
	return touched
}

// indexedValue returns o's value of h's attribute when h covers o.
func indexedValue(o *object.Object, h *index.Hash) (value.Value, bool) {
	if o == nil || !covers(o.Class(), h.Class()) {
		return value.Nil, false
	}
	if a := o.Class().AttributeNamed(h.Attr()); a != nil {
		return o.GetSlot(a.Slot()), true
	}
	return value.Nil, false
}

// covers reports whether an index declared on the class named class covers
// instances of c: by name, so an instance keeps its index entries across an
// evolve, which replaces the class object but not its name.
func covers(c *schema.Class, class string) bool {
	for _, k := range c.MRO() {
		if k.Name == class {
			return true
		}
	}
	return false
}

// LookupByAttr returns the OIDs of instances of class (or subclasses) whose
// attribute equals v. It uses the index on (class, attr) when present and
// otherwise scans, so it is always correct and opportunistically fast. The
// second result reports whether an index served the query. A snapshot
// answers at its LSN (lookupAt); a 2PL transaction reads the index as it
// stands, other transactions' uncommitted moves included.
func (db *Database) LookupByAttr(t *Tx, class, attr string, v value.Value) ([]oid.OID, bool, error) {
	if t.snapID != 0 && !t.Active() {
		return nil, false, txn.ErrNotActive
	}
	if h := db.Index(class, attr); h != nil {
		if t.snapID == 0 {
			return h.Lookup(v), true, nil
		}
		if ids, ok := db.lookupAt(t.snapLSN, h, v); ok {
			return ids, true, nil
		}
	}
	cls := db.reg.Lookup(class)
	if cls == nil {
		return nil, false, fmt.Errorf("core: unknown class %q", class)
	}
	if cls.AttributeNamed(attr) == nil {
		return nil, false, fmt.Errorf("core: class %s has no attribute %q", class, attr)
	}
	var out []oid.OID
	for _, id := range db.InstancesOfAt(t, class) {
		got, err := db.getAttr(t, id, attr, nil, true)
		if err != nil {
			return nil, false, err
		}
		if got.Equal(v) {
			out = append(out, id)
		}
	}
	return out, false, nil
}

// lookupAttempts bounds lookupAt's retries before LookupByAttr answers a
// snapshot with a scan instead.
const lookupAttempts = 3

// rollbackClock counts the rollbacks begun and ended. Only a rollback moves
// an index entry back to a value an earlier state held, so a reader of the
// live indexes that saw no rollback in progress when it started and none
// begun by the time it finished raced none.
type rollbackClock struct{ begun, ended atomic.Uint64 }

func (c *rollbackClock) begin() { c.begun.Add(1) }
func (c *rollbackClock) end()   { c.ended.Add(1) }

// quiet returns the begun count, and whether no rollback is in progress.
func (c *rollbackClock) quiet() (mark uint64, ok bool) {
	e := c.ended.Load()
	mark = c.begun.Load()
	return mark, mark == e
}

// since reports whether a rollback began after quiet returned mark.
func (c *rollbackClock) since(mark uint64) bool { return c.begun.Load() != mark }

// lookupAt answers an index lookup as of snapshot LSN s without faulting
// any candidate in. The index holds live values — later commits' and
// in-flight writes' included — so the probe is corrected in two steps:
//
//   - a candidate whose entry may differ from s — it is chained: written,
//     created, deleted or being deleted since the watermark last passed it
//     (objDirectory.rechainLocked) — is re-read in place at s and kept only
//     if its value there is v. Any other candidate is kept as it stands: a
//     resident one is clean at an LSN ≤ the watermark, and the evictor only
//     drops such entries, so its index entry is its value at s. A shard
//     whose chainedMask bit is clear holds no chained entry; the mask is
//     read after the probe, and a writer chains its entry before it moves
//     the index, so an index move the probe saw has its bit set.
//   - every chained entry whose value at s is v is added: those are the
//     objects that moved away from v after s.
//
// A rollback undoing an index move beside the probe and the checks could
// make either step wrong (an undone create's candidate gone from the
// directory, a popped version gone from the chained set), so an attempt
// that overlapped one (Database.rollbacks) is retried; after lookupAttempts
// the caller scans.
func (db *Database) lookupAt(s uint64, h *index.Hash, v value.Value) ([]oid.OID, bool) {
	attr := h.Attr()
	for try := 0; try < lookupAttempts; try++ {
		mark, quiet := db.rollbacks.quiet()
		if !quiet {
			runtime.Gosched()
			continue
		}
		cands := h.Lookup(v)
		mask := db.dir.chainedMask.Load()
		out := cands[:0]
		for _, id := range cands {
			if mask&db.dir.shard(id).bit == 0 {
				out = append(out, id)
				continue
			}
			match := false
			switch db.dir.readAt(id, s, func(im snapImage) {
				a, got := im.attr(attr)
				match = a != nil && got.Equal(v)
			}) {
			case snapMiss:
				out = append(out, id)
			case snapOK:
				if match {
					out = append(out, id)
				}
			}
		}
		n := len(out)
		if out = db.dir.chainedAt(s, h.Class(), attr, v, out); len(out) > n {
			value.SortRefs(out)
			out = slices.Compact(out)
		}
		if !db.rollbacks.since(mark) {
			return out, true
		}
	}
	return nil, false
}

// Indexes returns all live indexes, sorted by class then attribute.
func (db *Database) Indexes() []*index.Hash {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*index.Hash, 0, len(db.indexes))
	for _, h := range db.indexes {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class() != out[j].Class() {
			return out[i].Class() < out[j].Class()
		}
		return out[i].Attr() < out[j].Attr()
	})
	return out
}
