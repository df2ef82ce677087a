package core

import (
	"fmt"
	"sort"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/heap"
	"sentinel/internal/index"
	"sentinel/internal/lang"
	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
	"sentinel/internal/wal"
)

// openStorage opens the heap and WAL, performs crash recovery (replaying
// committed transactions logged after the last checkpoint into the heap),
// materializes the *system* objects, and rebuilds the runtime catalogs — DSL
// classes, named events, rules, subscriptions and name bindings — from them.
// Application objects stay on disk and fault in on first touch; the heap's
// object table knows each one's class.
func (db *Database) openStorage() error {
	fsys := db.opts.VFS
	if fsys == nil {
		fsys = vfs.OS
	}
	store, err := heap.Open(db.opts.Dir, heap.Options{PoolPages: db.opts.PoolPages, VFS: fsys, ClassOf: object.PeekClass})
	if err != nil {
		return err
	}
	db.store = store
	db.loadMeta(store.Meta())

	log, err := wal.OpenOn(fsys, db.walPath())
	if err != nil {
		store.Close()
		return err
	}
	db.log = log
	// Feed WAL activity into the metric set and tracer. The wal package
	// stays obs-free: it calls plain funcs the core installs.
	log.SetHooks(
		func(bytes int, d time.Duration) {
			db.met.walAppends.Inc()
			db.met.walBytes.Add(uint64(bytes))
			db.met.appendH.Observe(d)
			if tr := db.tracer.Load(); tr != nil && tr.WALAppend != nil {
				tr.WALAppend(obs.WALInfo{Bytes: bytes, Duration: d})
			}
		},
		func(d time.Duration) {
			db.met.walFsyncs.Inc()
			db.met.fsyncH.Observe(d)
			if tr := db.tracer.Load(); tr != nil && tr.WALFsync != nil {
				tr.WALFsync(obs.WALInfo{Duration: d})
			}
		},
	)
	// Group-commit instrumentation: one hook call per flush with the number
	// of commits it coalesced (the histogram's observed value is that count,
	// not a latency).
	log.SetGroupHook(func(commits int) {
		db.met.commitGroups.Inc()
		db.met.groupedCommits.Add(uint64(commits))
		db.met.commitGroupH.Observe(time.Duration(commits))
	})
	log.SetFlushHook(db.flushed)

	// Redo recovery. First scan the log; any logged work means the side
	// index cannot be trusted (a crash may have left it at the previous
	// checkpoint while evictions advanced some pages), so the object table
	// is rebuilt by a page scan — every record embeds its OID and class —
	// before the committed transactions are re-applied. A replica's log
	// carries the primary's durable marks (RecMark): in replica mode only
	// the batches the last one covers are redone, the rest stay pending in
	// the tail (a promotion, which reopens with Replica off, redoes them
	// all). A log without marks is a primary's own history.
	var recs []wal.Record
	hasWork, marked, mark := false, false, uint64(0)
	err = log.Replay(func(r wal.Record) error {
		recs = append(recs, r)
		switch r.Type {
		case wal.RecCheckpoint:
		case wal.RecMark: // a mark alone changes nothing the heap holds
			marked, mark = true, r.Tx
		default:
			hasWork = true
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: WAL scan: %w", err)
	}
	base := db.replLSN
	gate := db.opts.Replica && marked
	if hasWork {
		if err := store.Rescan(); err != nil {
			return fmt.Errorf("core: heap rescan: %w", err)
		}
		// The replication LSN counts committed batches since creation: the
		// checkpoint meta carried the count as of the checkpoint (loadMeta set
		// it), and each replayed commit record is one batch past that.
		pending := make(map[uint64][]wal.Record)
		committed, redone := uint64(0), uint64(0)
		for _, r := range recs {
			switch r.Type {
			case wal.RecUpdate, wal.RecDelete:
				pending[r.Tx] = append(pending[r.Tx], r)
			case wal.RecCommit:
				committed++
				if lsn := base + committed; gate && lsn > max(mark, base) {
					db.replTail = append(db.replTail, ReplBatch{LSN: lsn, Recs: append(pending[r.Tx], r)})
					delete(pending, r.Tx)
					continue
				}
				for _, u := range pending[r.Tx] {
					if u.Type == wal.RecUpdate {
						if err := store.Put(u.OID, u.Data); err != nil {
							return err
						}
					} else {
						if err := store.Delete(u.OID); err != nil {
							return err
						}
					}
				}
				delete(pending, r.Tx)
				redone++
			case wal.RecAbort:
				delete(pending, r.Tx)
			}
		}
		db.replMu.Lock()
		db.replLSN, db.replLogged = base+redone, base+committed
		db.replMu.Unlock()
		// Uncommitted tails in `pending` are discarded (no-steal policy:
		// they were never applied to the heap).
	}
	switch {
	case gate:
		db.replMark, db.replMarkLogged = max(mark, base), mark
	case db.opts.Replica:
		db.replMarkLogged = noMark
	}

	for _, o := range store.Objects() {
		db.alloc.Advance(o.ID)
	}

	if err := db.loadSystemObjects(); err != nil {
		return err
	}

	// Start the next epoch from a clean checkpoint when recovery changed
	// anything. A clean open — empty WAL — is already that checkpoint;
	// skipping the rewrite keeps cold opens at index-read + system-object
	// cost.
	if hasWork {
		return db.Checkpoint()
	}
	return nil
}

// loadSystemObjects materializes only the system objects (class sources,
// events, rules, subscriptions, name bindings, index catalogs) into the
// directory — wired resident, since the runtime catalogs reference them —
// and rebuilds those catalogs in dependency order: __ClassDef sources first
// (so application instances can decode when they fault in), then events →
// rules → subscriptions → names → secondary indexes.
func (db *Database) loadSystemObjects() error {
	byClass := make(map[string][]oid.OID)
	for _, o := range db.store.Objects() {
		if IsSystemClass(o.Class) {
			byClass[o.Class] = append(byClass[o.Class], o.ID)
		}
	}
	for _, ids := range byClass {
		value.SortRefs(ids)
	}

	// Pass 1: decode and wire every system object. System classes are Go
	// bootstrap classes, so they decode before any DSL replay.
	sysObjs := make(map[oid.OID]*object.Object)
	for cls, ids := range byClass {
		for _, id := range ids {
			img, ok, err := db.store.Get(id)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("core: %s instance %s missing from heap", cls, id)
			}
			o, err := object.Decode(id, img, db.reg)
			if err != nil {
				return fmt.Errorf("core: materializing %s instance %s: %w", cls, id, err)
			}
			sysObjs[id] = o
			// Recovered images commit at LSN 0: older than any snapshot.
			db.dir.insert(id, o, 0, false, true, 0)
		}
	}
	load := func(cls string) error {
		for _, id := range byClass[cls] {
			if err := catalogLoaders[cls].load(db, sysObjs[id], nil); err != nil {
				return err
			}
		}
		return nil
	}

	// Pass 2: DSL class definitions, in definition order (seq), so
	// application instances can decode.
	defs := byClass[SysClassDefClass]
	seq := func(i int) int64 { s, _ := mustGet(sysObjs[defs[i]], "seq").AsInt(); return s }
	sort.Slice(defs, func(i, j int) bool { return seq(i) < seq(j) })
	if err := load(SysClassDefClass); err != nil {
		return err
	}

	// Pass 3: fail fast on unregistered classes. The old eager open failed
	// while decoding; the lazy open must not defer that surprise to an
	// arbitrary later fault-in.
	for _, cls := range db.store.Classes() {
		if db.reg.Lookup(cls) == nil {
			return fmt.Errorf("core: heap contains instances of unregistered class %q (register it in Options.Schema)", cls)
		}
	}

	// Pass 4: named events (before rules, which may reference them).
	if err := load(SysEventClass); err != nil {
		return err
	}

	// Pass 5: rules.
	for _, id := range byClass[SysRuleClass] {
		if err := db.rebuildRule(sysObjs[id]); err != nil {
			return err
		}
	}

	// Pass 6: subscriptions.
	for _, id := range byClass[SysSubClass] {
		o := sysObjs[id]
		reactive, _ := mustGet(o, "reactive").AsRef()
		consumer, _ := mustGet(o, "consumer").AsRef()
		db.subs[reactive] = append(db.subs[reactive], consumer)
		db.subObjs[subKey{reactive, consumer}] = id
	}

	// Passes 7 and 8: name bindings, then secondary indexes.
	if err := load(SysNameClass); err != nil {
		return err
	}
	return load(SysIndexClass)
}

// catalogLoader turns the committed objects of one system class into runtime
// state (load) and takes one back out (drop). Open (loadSystemObjects) and
// the replica apply (applyCatalog) share the table, so a catalog object lands
// the same way whether it was read at open or shipped. prev is the committed
// image load replaces: nil at open and on a create.
//
// __Rule and __Subscription have no row: they load at open only. A replica
// never fires rules, and promoting one reopens it.
type catalogLoader struct {
	load func(db *Database, o, prev *object.Object) error
	drop func(db *Database, o *object.Object)
}

var catalogLoaders = map[string]catalogLoader{
	SysClassDefClass: {load: (*Database).loadClassDef},
	SysEventClass:    {load: (*Database).loadEvent, drop: (*Database).dropEvent},
	SysNameClass:     {load: (*Database).loadName, drop: (*Database).dropName},
	SysIndexClass:    {load: (*Database).loadIndex, drop: (*Database).dropIndex},
}

// applyCatalog moves a replicated object's catalog state from its prior
// committed image to its new one (either may be nil).
func (db *Database) applyCatalog(o, prev *object.Object) error {
	if prev != nil && (o == nil || o.Class() != prev.Class()) {
		if drop := catalogLoaders[prev.Class().Name].drop; drop != nil {
			drop(db, prev)
		}
		prev = nil
	}
	if o == nil {
		return nil
	}
	if load := catalogLoaders[o.Class().Name].load; load != nil {
		return load(db, o, prev)
	}
	return nil
}

// loadClassDef registers the DSL class a __ClassDef carries; at open, a
// class Options.Schema already registered is an error. On a live replica a
// definition whose source differs from prev's replaces the registered class
// (a shipped `evolve class`), and a registered class is otherwise left
// alone, so applying a definition twice is harmless.
func (db *Database) loadClassDef(o, prev *object.Object) error {
	name, _ := mustGet(o, "name").AsString()
	src, _ := mustGet(o, "source").AsString()
	seq, _ := mustGet(o, "seq").AsInt()
	db.mu.Lock()
	db.dslClassSeq = max(db.dslClassSeq, int(seq))
	db.mu.Unlock()
	evolve := db.ready && db.reg.Lookup(name) != nil
	if evolve && (prev == nil || mustGet(prev, "source").Equal(value.Str(src))) {
		return nil
	}
	script, err := lang.ParseScript(src, db.eventResolver())
	if err != nil {
		return fmt.Errorf("core: class %s: %w", name, err)
	}
	for _, item := range script.Items {
		cd, ok := item.(*lang.ClassDecl)
		if !ok {
			return fmt.Errorf("core: class %s: definition contains a non-class item", name)
		}
		c, err := db.buildDSLClass(cd)
		if err != nil {
			return fmt.Errorf("core: class %s: %w", name, err)
		}
		if !evolve {
			err = db.reg.Register(c)
		} else {
			// Images decode by slot position, so every instance is faulted in
			// under the old layout first and held (dirty, hence resident)
			// until this batch installs its migrated image: older snapshots
			// and the covering indexes read that prior image.
			for _, id := range db.InstancesOf(c.Name) {
				if _, err := db.faultObject(id); err != nil {
					return err
				}
				db.dir.setDirty(id, true)
			}
			_, err = db.reg.Replace(c)
		}
		if err != nil {
			return fmt.Errorf("core: class %s: %w", name, err)
		}
	}
	return nil
}

func (db *Database) loadEvent(o, _ *object.Object) error {
	name, _ := mustGet(o, "name").AsString()
	src, _ := mustGet(o, "source").AsString()
	e, err := db.ParseEvent(src)
	if err != nil {
		return fmt.Errorf("core: rebuilding event %q: %w", name, err)
	}
	e.SetID(o.ID())
	db.mu.Lock()
	db.namedEvents[name] = e
	db.eventObjs[name] = o.ID()
	db.mu.Unlock()
	return nil
}

func (db *Database) dropEvent(o *object.Object) {
	name, _ := mustGet(o, "name").AsString()
	db.mu.Lock()
	if db.eventObjs[name] == o.ID() {
		delete(db.namedEvents, name)
		delete(db.eventObjs, name)
	}
	db.mu.Unlock()
}

func (db *Database) loadName(o, _ *object.Object) error {
	name, _ := mustGet(o, "name").AsString()
	target, _ := mustGet(o, "target").AsRef()
	db.mu.Lock()
	db.names[name] = target
	db.nameObjs[name] = o.ID()
	db.mu.Unlock()
	return nil
}

func (db *Database) dropName(o *object.Object) {
	name, _ := mustGet(o, "name").AsString()
	db.mu.Lock()
	if db.nameObjs[name] == o.ID() {
		delete(db.names, name)
		delete(db.nameObjs, name)
	}
	db.mu.Unlock()
}

// loadIndex builds the index an __Index object declares from the directory ∪
// heap population. Cold instances are decoded transiently — the build needs
// their key values, not their residency.
func (db *Database) loadIndex(o, _ *object.Object) error {
	k := indexKeyOf(o)
	db.mu.RLock()
	cur := db.indexObjs[k]
	db.mu.RUnlock()
	if cur == o.ID() {
		return nil
	}
	cls := db.reg.Lookup(k.class)
	if cls == nil {
		return fmt.Errorf("core: index catalog references unknown class %q", k.class)
	}
	h := index.NewHash(k.class, k.attr)
	err := db.forEachLiveObject(func(id oid.OID, obj *object.Object) error {
		if !obj.Class().IsSubclassOf(cls) {
			return nil
		}
		if a := obj.Class().AttributeNamed(k.attr); a != nil {
			h.Add(id, obj.GetSlot(a.Slot()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.setIndex(k, h, o.ID())
	return nil
}

func (db *Database) dropIndex(o *object.Object) {
	k := indexKeyOf(o)
	db.mu.RLock()
	cur := db.indexObjs[k]
	db.mu.RUnlock()
	if cur == o.ID() {
		db.setIndex(k, nil, 0)
	}
}

func indexKeyOf(o *object.Object) idxKey {
	cls, _ := mustGet(o, "class").AsString()
	attr, _ := mustGet(o, "attr").AsString()
	return idxKey{cls, attr}
}

// rebuildRule reconstructs the runtime rule from its persistent __Rule
// object: event source re-parses, "go:" references re-bind against the
// function registries (which the application fills in Options.Schema),
// SentinelQL sources re-compile.
func (db *Database) rebuildRule(o *object.Object) error {
	name, _ := mustGet(o, "name").AsString()
	evSrc, _ := mustGet(o, "event").AsString()
	condSrc, _ := mustGet(o, "cond").AsString()
	actSrc, _ := mustGet(o, "action").AsString()
	couplingI, _ := mustGet(o, "coupling").AsInt()
	priority, _ := mustGet(o, "priority").AsInt()
	enabled, _ := mustGet(o, "enabled").AsBool()
	classLevel, _ := mustGet(o, "classLevel").AsString()
	contextI, _ := mustGet(o, "context").AsInt()
	txScoped, _ := mustGet(o, "txScoped").AsBool()

	ev, err := db.ParseEvent(evSrc)
	if err != nil {
		return fmt.Errorf("core: rebuilding rule %q event: %w", name, err)
	}
	spec := RuleSpec{CondSrc: condSrc, ActionSrc: actSrc}
	cond, _, err := db.resolveCondition(spec)
	if err != nil {
		return fmt.Errorf("core: rebuilding rule %q condition (register go: functions in Options.Schema): %w", name, err)
	}
	act, _, err := db.resolveAction(spec)
	if err != nil {
		return fmt.Errorf("core: rebuilding rule %q action (register go: functions in Options.Schema): %w", name, err)
	}

	r := rule.New(name, ev, cond, act, rule.Coupling(couplingI))
	r.Priority = int(priority)
	r.Context = event.Context(contextI)
	r.CondSrc = condSrc
	r.ActSrc = actSrc
	r.ClassLevel = classLevel
	r.TxScoped = txScoped
	r.SetID(o.ID())
	ev.SetID(o.ID())
	if err := r.Compile(db.hierarchy()); err != nil {
		return fmt.Errorf("core: rebuilding rule %q: %w", name, err)
	}
	if !enabled {
		r.Disable()
	}
	db.rules[o.ID()] = r
	db.rulesByName[name] = r
	if classLevel != "" {
		db.classRules[classLevel] = append(db.classRules[classLevel], r)
	}
	return nil
}

// Checkpoint flushes committed state to the heap, writes the object table
// (with each object's class) and the metadata atomically, and truncates the
// WAL — keeping a replica's pending tail (tailRecords), which the heap does
// not hold. After a checkpoint, recovery restarts from this state.
// It holds ckptMu exclusively so no commit can enqueue WAL records between
// the heap flush and the log truncation (those records would vanish), and
// first awaits every batch enqueued before it, so the heap it flushes holds
// them all. It refuses once the log fail-stopped or the heap lags the log
// (ErrHeapBehind): truncating then would lose an unapplied batch.
func (db *Database) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := db.awaitQueued(); err != nil {
		return err
	}
	db.mu.RLock()
	meta := db.metaBlob()
	db.mu.RUnlock()
	if err := db.store.Checkpoint(meta); err != nil {
		return err
	}
	if err := db.log.Truncate(db.tailRecords()...); err != nil {
		return err
	}
	if db.opts.Replica {
		db.replMarkLogged = db.replMark
	}
	db.met.checkpoints.Inc()
	return nil
}

// awaitQueued flushes every batch enqueued so far — its flush applies it —
// and then reports what keeps the heap from mirroring the log:
// the log's fail-stop, or ErrHeapBehind. Caller holds ckptMu exclusive, so
// nothing enqueues meanwhile.
func (db *Database) awaitQueued() error {
	if err := db.log.Await(db.log.Last()); err != nil {
		return err
	}
	return db.heapErr()
}

// maybeAutoCheckpoint checkpoints when the WAL has outgrown the configured
// threshold. Runs at most once concurrently; failures are left for the next
// trigger or the explicit Checkpoint at Close (the commit that called us is
// already durable in the log).
func (db *Database) maybeAutoCheckpoint() {
	if db.store == nil || db.opts.CheckpointBytes < 0 {
		return
	}
	threshold := db.opts.CheckpointBytes
	if threshold == 0 {
		threshold = defaultCheckpointBytes
	}
	if db.log.Size() < threshold {
		return
	}
	if !db.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	defer db.ckptRunning.Store(false)
	_ = db.Checkpoint()
}

func mustGet(o *object.Object, attr string) value.Value {
	v, err := o.Get(attr)
	if err != nil {
		return value.Nil
	}
	return v
}
