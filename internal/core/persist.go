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
// establishes the heap-class catalog (from checkpoint metadata on a clean
// open, by heap scan after recovery), materializes the *system* objects,
// and rebuilds the runtime catalogs — DSL classes, named events, rules,
// subscriptions and name bindings — from them. Application objects stay on
// disk and fault in on first touch.
func (db *Database) openStorage() error {
	fsys := db.opts.VFS
	if fsys == nil {
		fsys = vfs.OS
	}
	store, err := heap.Open(db.opts.Dir, heap.Options{PoolPages: db.opts.PoolPages, VFS: fsys})
	if err != nil {
		return err
	}
	db.store = store
	catalogLoaded := db.loadMeta(store.Meta())

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
	log.SetGroupWindow(db.opts.GroupCommitWindow)

	// Redo recovery. First scan the log; any logged work means the side
	// index cannot be trusted (a crash may have left it at the previous
	// checkpoint while evictions advanced some pages), so the object table
	// is rebuilt by a page scan — every record embeds its OID — before the
	// committed transactions are re-applied.
	var recs []wal.Record
	hasWork := false
	err = log.Replay(func(r wal.Record) error {
		recs = append(recs, r)
		if r.Type != wal.RecCheckpoint {
			hasWork = true
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: WAL scan: %w", err)
	}
	if hasWork {
		if err := store.Rescan(); err != nil {
			return fmt.Errorf("core: heap rescan: %w", err)
		}
		pending := make(map[uint64][]wal.Record)
		committed := 0
		for _, r := range recs {
			switch r.Type {
			case wal.RecUpdate, wal.RecDelete:
				pending[r.Tx] = append(pending[r.Tx], r)
			case wal.RecCommit:
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
				committed++
			case wal.RecAbort:
				delete(pending, r.Tx)
			}
		}
		// The replication LSN counts committed batches since creation: the
		// checkpoint meta carried the count as of the checkpoint (loadMeta set
		// it), and each replayed commit record is one batch past that.
		if committed > 0 {
			db.replMu.Lock()
			db.replLSN += uint64(committed)
			db.replMu.Unlock()
		}
		// Uncommitted tails in `pending` are discarded (no-steal policy:
		// they were never applied to the heap). Recovery changed the heap
		// after the checkpoint, so the persisted catalog is stale.
		catalogLoaded = false
	}

	// The catalog must mirror the heap's object table exactly; rebuild it
	// by page scan when the checkpoint copy is missing, stale, or does not
	// match the table (pre-paging checkpoints, recovery).
	rebuiltCatalog := !catalogLoaded || db.heapCatSize() != store.Len()
	if rebuiltCatalog {
		if err := db.buildCatalogFromScan(); err != nil {
			return err
		}
	}
	db.catMu.RLock()
	var maxOID oid.OID
	for id := range db.heapCat {
		if id > maxOID {
			maxOID = id
		}
	}
	db.catMu.RUnlock()
	db.alloc.Advance(maxOID)

	if err := db.loadSystemObjects(); err != nil {
		return err
	}

	// Start the next epoch from a clean checkpoint when recovery changed
	// anything (which also persists the rebuilt catalog for the next
	// open). A clean open — empty WAL, catalog straight from the last
	// checkpoint — is already that checkpoint; skipping the rewrite keeps
	// cold opens at index-read + system-object cost.
	if hasWork || rebuiltCatalog {
		return db.Checkpoint()
	}
	return nil
}

// buildCatalogFromScan rebuilds the heap-class catalog by scanning every
// live record and peeking its class name (no full decode).
func (db *Database) buildCatalogFromScan() error {
	cat := make(map[oid.OID]string)
	names := make(map[string]string)
	err := db.store.Scan(func(id oid.OID, data []byte) error {
		cls, err := object.PeekClass(data)
		if err != nil {
			return fmt.Errorf("core: object %s: %w", id, err)
		}
		if interned, ok := names[cls]; ok {
			cls = interned
		} else {
			names[cls] = cls
		}
		cat[id] = cls
		return nil
	})
	if err != nil {
		return err
	}
	db.catMu.Lock()
	db.heapCat = cat
	db.catNames = names
	db.catMu.Unlock()
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
	db.catMu.RLock()
	for id, cls := range db.heapCat {
		if IsSystemClass(cls) {
			byClass[cls] = append(byClass[cls], id)
		}
	}
	db.catMu.RUnlock()
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
				return fmt.Errorf("core: catalog lists %s instance %s missing from heap", cls, id)
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

	// Pass 2: replay DSL class definitions (ordered by seq) so application
	// instances can decode. The replay transaction only registers classes;
	// nothing is re-persisted.
	type defEntry struct {
		seq    int64
		name   string
		source string
	}
	var entries []defEntry
	for _, id := range byClass[SysClassDefClass] {
		o := sysObjs[id]
		name, _ := mustGet(o, "name").AsString()
		src, _ := mustGet(o, "source").AsString()
		seq, _ := mustGet(o, "seq").AsInt()
		entries = append(entries, defEntry{seq: seq, name: name, source: src})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	if len(entries) > 0 {
		t := db.Begin()
		for _, e := range entries {
			script, err := lang.ParseScript(e.source, db.eventResolver())
			if err != nil {
				return fmt.Errorf("core: replaying class %s: %w", e.name, err)
			}
			for _, item := range script.Items {
				cd, ok := item.(*lang.ClassDecl)
				if !ok {
					return fmt.Errorf("core: catalog entry for class %s contains a non-class item", e.name)
				}
				if err := db.registerDSLClass(t, cd, false); err != nil {
					return fmt.Errorf("core: replaying class %s: %w", e.name, err)
				}
			}
		}
		if err := db.Commit(t); err != nil {
			return err
		}
	}

	// Pass 3: fail fast on unregistered classes. The old eager open failed
	// while decoding; the lazy open must not defer that surprise to an
	// arbitrary later fault-in.
	db.catMu.RLock()
	missing := ""
	for _, cls := range db.heapCat {
		if db.reg.Lookup(cls) == nil {
			missing = cls
			break
		}
	}
	db.catMu.RUnlock()
	if missing != "" {
		return fmt.Errorf("core: heap contains instances of unregistered class %q (register it in Options.Schema)", missing)
	}

	// Pass 4: named events (before rules, which may reference them).
	for _, id := range byClass[SysEventClass] {
		o := sysObjs[id]
		name, _ := mustGet(o, "name").AsString()
		src, _ := mustGet(o, "source").AsString()
		e, err := db.ParseEvent(src)
		if err != nil {
			return fmt.Errorf("core: rebuilding event %q: %w", name, err)
		}
		e.SetID(id)
		db.namedEvents[name] = e
		db.eventObjs[name] = id
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

	// Pass 7: name bindings.
	for _, id := range byClass[SysNameClass] {
		o := sysObjs[id]
		name, _ := mustGet(o, "name").AsString()
		target, _ := mustGet(o, "target").AsRef()
		db.names[name] = target
		db.nameObjs[name] = id
	}

	// Pass 8: secondary indexes, rebuilt from the directory ∪ heap
	// population. Cold instances are decoded transiently — the rebuild
	// needs their key values, not their residency.
	for _, id := range byClass[SysIndexClass] {
		o := sysObjs[id]
		clsName, _ := mustGet(o, "class").AsString()
		attr, _ := mustGet(o, "attr").AsString()
		cls := db.reg.Lookup(clsName)
		if cls == nil {
			return fmt.Errorf("core: index catalog references unknown class %q", clsName)
		}
		h := index.NewHash(clsName, attr)
		err := db.forEachLiveObject(func(id oid.OID, obj *object.Object) error {
			if !obj.Class().IsSubclassOf(cls) {
				return nil
			}
			if a := obj.Class().AttributeNamed(attr); a != nil {
				h.Add(id, obj.GetSlot(a.Slot()))
			}
			return nil
		})
		if err != nil {
			return err
		}
		k := idxKey{clsName, attr}
		db.indexes[k] = h
		db.indexObjs[k] = id
		db.indexByClass[clsName] = append(db.indexByClass[clsName], h)
	}
	return nil
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

// Checkpoint flushes committed state to the heap, writes the object-table
// index and metadata (including the heap-class catalog) atomically, and
// truncates the WAL. After a checkpoint, recovery restarts from this state.
// It holds ckptMu exclusively so no commit can append WAL records between
// the heap flush and the log truncation (those records would vanish), and
// refuses with ErrHeapBehind once the heap lags the log: truncating then
// would lose the unapplied batch.
func (db *Database) Checkpoint() error {
	if db.store == nil {
		return nil
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if err := db.heapErr(); err != nil {
		return err
	}
	db.mu.RLock()
	meta := db.metaBlob()
	db.mu.RUnlock()
	if err := db.store.Checkpoint(meta); err != nil {
		return err
	}
	if err := db.log.Truncate(); err != nil {
		return err
	}
	db.met.checkpoints.Inc()
	return nil
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
