package core

import (
	"fmt"

	"sentinel/internal/lang"
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// EvolveClass replaces a class definition and migrates every live instance
// to the new layout, inside the transaction:
//
//   - attributes present in both versions keep their values (when the new
//     type still accepts them; otherwise they reset to the declared
//     default),
//   - removed attributes are dropped, added attributes take their defaults,
//   - methods, visibility and the event interface come entirely from the
//     new definition,
//   - migrated instances are written out (WAL + heap) on commit, and the
//     whole evolution rolls back on abort.
//
// Constraints: the class must exist, must not be a system class, must not
// have registered subclasses (evolve leaves first), and must not have
// indexes on attributes the new definition removes or retypes (drop those
// indexes first). dslSource, when non-empty, replaces the stored catalog
// source for DSL-defined classes so the evolved definition replays on
// reopen; Go-defined classes pass "" and must register the new version in
// Options.Schema instead.
func (db *Database) EvolveClass(t *Tx, newCls *schema.Class, dslSource string) error {
	if err := t.writable(); err != nil {
		return err
	}
	name := newCls.Name
	if IsSystemClass(name) {
		return fmt.Errorf("core: cannot evolve system class %s", name)
	}
	old := db.reg.Lookup(name)
	if old == nil {
		return fmt.Errorf("core: unknown class %q", name)
	}

	// Indexes must remain valid: every indexed attribute needs an
	// equally-typed attribute in the new definition. The new class is not
	// finalized yet, so check its declared attributes through a probe
	// after Replace — simplest is to collect indexed attrs first and
	// verify after finalization below.
	var indexedAttrs []string
	db.mu.RLock()
	for k := range db.indexes {
		if k.class == name {
			indexedAttrs = append(indexedAttrs, k.attr)
		}
	}
	db.mu.RUnlock()

	// Collect the instances (exact class only: no subclasses can exist):
	// residents of the old class plus cold heap instances. Lock and fault
	// them in BEFORE the registry swap — decoding must still see the old
	// layout. Migrated instances are all dirty (hence wired) until commit
	// writes the new images.
	var migrated []oid.OID
	db.dir.forEach(func(id oid.OID, o *object.Object, tomb bool) {
		if !tomb && o.Class() == old {
			migrated = append(migrated, id)
		}
	})
	if db.store != nil {
		present := make(map[oid.OID]bool, len(migrated))
		for _, id := range migrated {
			present[id] = true
		}
		for _, o := range db.store.Objects() {
			if o.Class != name || present[o.ID] {
				continue
			}
			if _, resident := db.dir.get(o.ID); !resident {
				migrated = append(migrated, o.ID)
			}
		}
	}
	value.SortRefs(migrated)

	oldObjs := make(map[oid.OID]*object.Object, len(migrated))
	for _, id := range migrated {
		o, err := db.lockObject(t, id, txn.Exclusive)
		if err != nil {
			return err
		}
		oldObjs[id] = o
	}

	oldCls, err := db.reg.Replace(newCls)
	if err != nil {
		return err
	}
	for _, attr := range indexedAttrs {
		na := newCls.AttributeNamed(attr)
		oa := oldCls.AttributeNamed(attr)
		if na == nil || oa == nil || na.Type.String() != oa.Type.String() {
			db.reg.Restore(oldCls)
			return fmt.Errorf("core: cannot evolve %s: index on %s.%s would break (drop it first)", name, name, attr)
		}
	}

	type migration struct {
		prev     *object.Object
		wasDirty bool
		pushed   bool // a version was archived; pop it on abort
	}
	prevState := make(map[oid.OID]migration, len(migrated))
	for _, id := range migrated {
		oldObj := oldObjs[id]
		newObj, err := object.New(id, newCls)
		if err != nil {
			db.reg.Restore(oldCls)
			return err
		}
		for _, a := range newCls.Layout() {
			if oa := oldCls.AttributeNamed(a.Name); oa != nil {
				v := oldObj.GetSlot(oa.Slot())
				if a.Type.Accepts(v.Kind()) {
					newObj.SetSlot(a.Slot(), a.Type.Widen(v))
				}
			}
		}
		prev, wasDirty, pushed := db.dir.replaceObj(id, newObj, true)
		prevState[id] = migration{prev: prev, wasDirty: wasDirty, pushed: pushed}
		t.dirty[id] = true
	}

	// Catalog source update for DSL classes.
	if dslSource != "" {
		var defObj oid.OID
		db.dir.forEach(func(id oid.OID, o *object.Object, tomb bool) {
			if tomb || o.Class().Name != SysClassDefClass || !defObj.IsNil() {
				return
			}
			if n, _ := mustGet(o, "name").AsString(); n == name {
				defObj = id
			}
		})
		if !defObj.IsNil() {
			if err := db.setAttr(t, defObj, "source", value.Str(dslSource), nil, true); err != nil {
				db.reg.Restore(oldCls)
				return err
			}
		}
	}

	// The evolved class may have a different MRO/event interface; cached
	// consumer sets derived from the old class (and the migrated objects)
	// are stale. Evolve refuses registered subclasses, so the class-scope
	// subtree is exactly this class: its class entry plus every object
	// entry derived from it.
	db.invalidateConsumers(t, scopeClass(name), func() {
		db.reg.Restore(oldCls)
		for id, m := range prevState {
			db.dir.undoReplaceObj(id, m.prev, m.wasDirty, m.pushed)
		}
	})
	return nil
}

// evolveDSLClass handles the `evolve class ...` statement.
func (db *Database) evolveDSLClass(t *Tx, d *lang.ClassDecl) error {
	c, err := db.buildDSLClass(d)
	if err != nil {
		return err
	}
	if err := db.EvolveClass(t, c, d.Source); err != nil {
		return err
	}
	// New class-level rules in the evolved definition are created if their
	// names are fresh (existing rules persist unchanged).
	for i := range d.Rules {
		rd := &d.Rules[i]
		if db.LookupRule(rd.Name) != nil {
			continue
		}
		if _, err := db.CreateRule(t, specFromDecl(rd, c.Name)); err != nil {
			return fmt.Errorf("core: evolved class %s rule %s: %w", c.Name, rd.Name, err)
		}
	}
	return nil
}
