package core

import (
	"fmt"
	"slices"
	"sort"

	"sentinel/internal/index"
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// Secondary indexes: equality lookups on (class, attribute). An index holds
// committed state only: a commit moves its objects' entries as it installs
// (reindex), a rollback touches none, and no transaction sees another's
// uncommitted writes through one. Definitions persist as __Index catalog
// objects and are rebuilt on open. Queries go through LookupByAttr (and the
// SentinelQL lookup(...) builtin), which uses the index when one exists and
// degrades to a scan otherwise.

type idxKey struct{ class, attr string }

// CreateIndex builds an equality index on class.attr (covering subclass
// instances), backfills it with the population's committed values, and
// records it in the catalog. Creation is transactional.
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
	// Backfill under shared locks, so no writer installs a move the backfill
	// missed before the index is published; the lock (and, under paging, its
	// pin) keeps the entry resident. Only committed images go in: the
	// creating transaction's own writes reach the index when it commits, and
	// its lookups see them through withOwnWrites meanwhile.
	for _, id := range db.InstancesOf(class) {
		if _, err := db.lockObject(t, id, txn.Shared); err != nil {
			return nil, err
		}
		var (
			v  value.Value
			ok bool
		)
		db.dir.readAt(id, lsnLatest, func(im snapImage) { v, ok = im.indexed(h) })
		if ok {
			h.Add(id, v)
		}
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
	delete(db.indexes, k)
	delete(db.indexObjs, k)
	if h != nil {
		db.indexes[k] = h
		db.indexObjs[k] = id
	}
}

// Index returns the live index on class.attr (nil if absent).
func (db *Database) Index(class, attr string) *index.Hash {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[idxKey{class, attr}]
}

// reindex carries id's entries in the secondary indexes from its previous
// committed image to its new one; a zero image is none (a create, a
// delete). It is the one code that moves an object's entries, and a commit
// moves them only as it installs: installVersions on the primary,
// applyRecord on a replica, each after the directory has chained the entry,
// so a snapshot lookup that sees the move also finds the entry's older
// images (lookupAt). A value that did not change costs no index key.
func (db *Database) reindex(id oid.OID, prev, cur snapImage) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, h := range db.indexes {
		oldV, had := prev.indexed(h)
		newV, has := cur.indexed(h)
		switch {
		case had && has:
			if !oldV.Equal(newV) {
				h.Move(id, oldV, newV)
			}
		case had:
			h.Remove(id, oldV)
		case has:
			h.Add(id, newV)
		}
	}
}

// imageOf is o's live image, or none for nil.
func imageOf(o *object.Object) snapImage {
	if o == nil {
		return snapImage{}
	}
	return snapImage{class: o.Class(), obj: o}
}

// indexed returns the image's value of h's attribute when h covers it.
func (im snapImage) indexed(h *index.Hash) (value.Value, bool) {
	if im.class == nil || !covers(im.class, h.Class()) {
		return value.Nil, false
	}
	if a, v := im.attr(h.Attr()); a != nil {
		return v, true
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
// attribute equals v, in OID order on every path. It uses the index on (class, attr) when present and
// otherwise scans, so it is always correct and opportunistically fast. The
// second result reports whether an index served the query. A snapshot
// answers at its LSN (lookupAt); a 2PL transaction reads the committed
// entries with its own writes laid over them (withOwnWrites), and takes no
// lock on the value, so a repeated lookup can see another transaction's
// commit in between.
func (db *Database) LookupByAttr(t *Tx, class, attr string, v value.Value) ([]oid.OID, bool, error) {
	if !t.Active() {
		return nil, false, txn.ErrNotActive
	}
	if h := db.Index(class, attr); h != nil {
		if t.snapID != 0 {
			return db.lookupAt(t.snapLSN, h, v), true, nil
		}
		return db.withOwnWrites(t, h, v, h.Lookup(v)), true, nil
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

// withOwnWrites lays t's write set over ids, a probe of h's committed
// entries for v: every object t wrote or deleted drops out of the probe,
// and each one t wrote or created whose live image holds v joins it. t holds
// X locks on all of them, so their live images are its own. An uncommitted
// create is never in the committed index. It costs O(probe + write set),
// nothing while t has written nothing, and keeps the probe's OID order.
func (db *Database) withOwnWrites(t *Tx, h *index.Hash, v value.Value, ids []oid.OID) []oid.OID {
	if len(t.dirty) == 0 && len(t.created) == 0 && len(t.deleted) == 0 {
		return ids
	}
	out := ids[:0]
	for _, id := range ids {
		if !t.dirty[id] && !t.deleted[id] {
			out = append(out, id)
		}
	}
	n := len(out)
	join := func(id oid.OID) {
		if t.deleted[id] {
			return
		}
		o, _ := db.dir.get(id)
		if got, ok := imageOf(o).indexed(h); ok && got.Equal(v) {
			out = append(out, id)
		}
	}
	for id := range t.dirty {
		join(id)
	}
	for id := range t.created {
		if !t.dirty[id] {
			join(id)
		}
	}
	if len(out) > n {
		slices.Sort(out)
	}
	return out
}

// lookupAt answers an index lookup as of snapshot LSN s without faulting
// any candidate in. The index holds committed values — a commit moves an
// entry as it installs, above s too — so the probe is corrected in two
// steps:
//
//   - a candidate whose entry may read differently at s — it is chained:
//     written, created or deleted since the watermark last passed it, or
//     open to a writer (objDirectory.rechainLocked) — is re-read in place at
//     s and kept only if its value there is v. Any other candidate is kept
//     as it stands: a resident one is committed at an LSN ≤ the watermark,
//     and the evictor only drops such entries, so its index entry is its
//     value at s. A shard whose chainedMask bit is clear holds no chained
//     entry; the mask is read after the probe, and a commit chains its entry
//     before it moves the index (installVersions), so an index move the probe
//     saw has its bit set.
//   - every chained entry whose value at s is v is added: those are the
//     objects that moved away from v after s.
//
// A rollback touches no index entry, so no abort can race the two steps.
func (db *Database) lookupAt(s uint64, h *index.Hash, v value.Value) []oid.OID {
	attr := h.Attr()
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
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
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
