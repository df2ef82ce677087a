package core

// pager.go is the demand-paging layer between the resident directory and the
// heap: fault-in (with the directory's per-OID singleflight, so concurrent
// faulters decode an image once), the eviction driver, and the "directory ∪
// heap" iterations. The heap's object table records each object's class, so
// population-wide operations (InstancesOf, Dump, integrity, index rebuild,
// Stats) know what lives on disk without decoding it.

import (
	"fmt"
	"time"

	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/wal"
)

// faultObject returns the live object for id: a directory hit, or a decode
// from the heap published into the directory. A tombstoned entry (deleted by
// an uncommitted transaction) and a heap miss both return (nil, nil): the
// object does not exist as far as this caller is concerned. The returned
// pointer is only guaranteed stable while the entry stays resident; callers
// needing stability across eviction pressure pin via lockObject.
func (db *Database) faultObject(id oid.OID) (*object.Object, error) {
	if o, found := db.dir.get(id); found {
		return o, nil
	}
	if db.store == nil {
		return nil, nil
	}

	f, leader := db.dir.joinFlight(id)
	if !leader {
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		if f.obj == nil {
			return nil, nil
		}
		// The leader published the entry; re-read through the directory so a
		// tombstone or eviction racing us is respected.
		if o, found := db.dir.get(id); found {
			return o, nil
		}
		return f.obj, nil
	}
	f.obj, f.err = db.loadFromHeap(id, true)
	db.dir.endFlight(id, f)

	if f.err != nil {
		return nil, f.err
	}
	if f.obj != nil {
		db.maybeEvict()
	}
	return f.obj, nil
}

// loadFromHeap decodes one object image from the heap; publish=true installs
// it in the directory (losing a publish race returns whoever won). Published
// faults are what demand paging pays for, so they are always timed.
func (db *Database) loadFromHeap(id oid.OID, publish bool) (*object.Object, error) {
	var start time.Time
	if publish {
		start = time.Now()
	}
	img, ok, err := db.store.Get(id)
	if err != nil {
		return nil, fmt.Errorf("core: faulting object %s: %w", id, err)
	}
	if !ok {
		return nil, nil
	}
	o, err := object.Decode(id, img, db.reg)
	if err != nil {
		return nil, fmt.Errorf("core: faulting object %s: %w", id, err)
	}
	if !publish {
		return o, nil
	}
	d := time.Since(start)
	db.met.faults.Inc()
	db.met.faultH.Observe(d)
	if tr := db.tracer.Load(); tr != nil && tr.PageFault != nil {
		tr.PageFault(obs.PageInfo{OID: uint64(id), Class: o.Class().Name, Duration: d})
	}
	return db.dir.insertIfAbsent(id, o), nil
}

// maybeEvict runs the clock evictor when residency exceeds the configured
// ceiling. One goroutine sweeps at a time; others skip — the next fault-in
// re-checks. The sweep targets a low-water mark an eighth below the ceiling
// so eviction runs in batches instead of once per fault.
//
// A sweep that ends above its target visited every entry and found the rest
// wired — typically one transaction pinning more objects than the ceiling,
// such as CreateIndex's backfill. Sweeping again on each further fault would
// make that transaction quadratic, so the next sweep waits until residency
// has grown by another eighth (of the ceiling or of itself, whichever is
// more: the futile sweeps then cost O(1) per fault), or until a transaction
// releases its pins.
func (db *Database) maybeEvict() {
	limit := int64(db.opts.MaxResidentObjects)
	resident := db.dir.resident.Load()
	if limit <= 0 || resident <= limit || resident < db.evictRetry.Load() {
		return
	}
	if !db.evicting.CompareAndSwap(false, true) {
		return
	}
	target := limit - limit/8
	evicted := db.dir.evictDownTo(target, db.watermark())
	retry := int64(0)
	if left := db.dir.resident.Load(); left > target {
		retry = left + 1 + max(limit, left)/8
	}
	db.evictRetry.Store(retry)
	db.evicting.Store(false)
	if len(evicted) == 0 {
		return
	}
	db.met.evictions.Add(uint64(len(evicted)))
	if tr := db.tracer.Load(); tr != nil && tr.PageEvict != nil {
		tr.PageEvict(obs.PageInfo{Evicted: len(evicted)})
	}
	// Consumer-cache hygiene: evicted objects' memoized consumer sets would
	// otherwise linger until the next epoch bump. The cache is keyed by OID
	// and epoch-validated, so this is memory reclamation, not correctness —
	// a refaulted object recomputes its entry on first raise.
	db.ccMu.Lock()
	for _, id := range evicted {
		delete(db.objConsumers, id)
	}
	db.ccMu.Unlock()
}

// pagingEnabled reports whether eviction can reclaim residents — only then
// do transactions pin the objects they lock.
func (db *Database) pagingEnabled() bool {
	return db.store != nil && db.opts.MaxResidentObjects > 0
}

// storeRecord writes one committed update (an image of class cls) or delete
// to the heap: the step the primary's commit and the replica's apply share.
func (db *Database) storeRecord(r wal.Record, cls string) error {
	if r.Type == wal.RecDelete {
		return db.store.Delete(r.OID)
	}
	return db.store.PutClass(r.OID, cls, r.Data)
}

// ---- directory ∪ heap iteration ----

// liveObject returns the object for id without changing residency: resident
// entries are returned as-is, heap-only objects are decoded transiently (the
// decode is NOT installed in the directory, so bulk scans do not churn the
// working set). Returns nil for tombstoned and missing ids.
func (db *Database) liveObject(id oid.OID) (*object.Object, error) {
	if o, found := db.dir.get(id); found {
		return o, nil
	}
	if db.store == nil {
		return nil, nil
	}
	return db.loadFromHeap(id, false)
}

// forEachLiveObject streams every live object — resident entries first, then
// heap-only objects decoded transiently from a heap scan — exactly once each.
// Tombstoned entries are skipped on both sides. Callers see a
// point-in-time-ish union: run it at a quiescent point for exact results
// (Dump and CheckIntegrity already require that).
func (db *Database) forEachLiveObject(fn func(id oid.OID, o *object.Object) error) error {
	seen := make(map[oid.OID]bool)
	var objs []*object.Object
	db.dir.forEach(func(id oid.OID, o *object.Object, tomb bool) {
		seen[id] = true // tombstones shadow the heap image
		if !tomb {
			objs = append(objs, o)
		}
	})
	for _, o := range objs {
		if err := fn(o.ID(), o); err != nil {
			return err
		}
	}
	if db.store == nil {
		return nil
	}
	// Heap-only objects in page order: one pin per page instead of one
	// lookup, pin and image copy per object. The store is not locked across
	// the callback, so fn may fault objects in.
	return db.store.Scan(func(id oid.OID, img []byte) error {
		if seen[id] {
			return nil
		}
		o, err := object.Decode(id, img, db.reg)
		if err != nil {
			return fmt.Errorf("core: decoding object %s: %w", id, err)
		}
		return fn(id, o)
	})
}

// liveClassMap returns OID → class name over the full live population
// (directory ∪ heap, tombstones excluded) without decoding heap images —
// the heap's object table already knows their classes.
func (db *Database) liveClassMap() map[oid.OID]string {
	out := make(map[oid.OID]string)
	tombs := make(map[oid.OID]bool)
	db.dir.forEach(func(id oid.OID, o *object.Object, tomb bool) {
		if tomb {
			tombs[id] = true
			return
		}
		out[id] = o.Class().Name
	})
	if db.store == nil {
		return out
	}
	for _, o := range db.store.Objects() {
		if _, resident := out[o.ID]; !resident && !tombs[o.ID] {
			out[o.ID] = o.Class
		}
	}
	return out
}

// heapSubclasses returns the set of classes heap objects belong to that are
// c or inherit from it.
func (db *Database) heapSubclasses(c *schema.Class) map[string]bool {
	subs := make(map[string]bool)
	for _, name := range db.store.Classes() {
		if cc := db.reg.Lookup(name); cc != nil && cc.IsSubclassOf(c) {
			subs[name] = true
		}
	}
	return subs
}
