package core

import (
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
)

// Consumer-resolution cache. The paper's performance argument (§3.5) is
// that per-object subscription makes propagation cheap: a raise should cost
// what the *consumers of this object* cost, not what the whole rule base
// costs. The naive implementation still re-derived the consumer set — walk
// the instance subscriptions, walk the MRO for class-level rules, dedup
// through a map — under the global catalog lock on every single raise.
//
// This cache memoizes that derivation. Invalidation is selective: every
// cached entry records the keys it was derived from — the source OID for
// instance subscriptions and func consumers, the exact class name for the
// MRO-walked class-level rules — and a mutation deletes only the entries
// whose key sets intersect the change (see invalidateConsumers for the
// mutation → blast-radius table). A global subscription epoch
// (db.subEpoch) remains as the safe fallback: recovery, base-state
// replacement and the GlobalConsumerInvalidation reference mode bump it,
// instantly staling every entry. The raise fast path is unchanged from the
// epoch-only scheme: one atomic epoch load + one shared-lock map read, zero
// allocations; an entry is valid iff it is present and carries the current
// epoch.
//
// Deletion-based invalidation has an ABA hazard the epoch scheme did not:
// a refresh that read the catalog *before* a mutation could publish its
// entry *after* the mutation deleted the (older) entry, installing a stale
// set that nothing would ever invalidate again. Per-key generation
// counters close it: mutators first mutate the catalog (under db.mu), then
// bump the affected generations and delete entries (under ccMu); a refresh
// snapshots the generations of its keys before reading the catalog and
// publishes under ccMu only if they are unchanged. Any mutation that lands
// between the snapshot and the publish either staled the snapshot (bump
// before snapshot ⇒ the refresh reads post-mutation state) or fails the
// publish check — the refresh then returns its computed slices for this
// one raise and lets the next raise recompute, the same non-guarantee a
// raise concurrent with a mutation always had.
//
// Entries are immutable once published (refreshes install a new entry), so
// readers can use the slices without holding any lock; callers must not
// mutate them.

// consumerEntry memoizes one reactive object's full consumer set. class
// records the derivation key linking it into db.classDeps so class-scoped
// invalidation can find it and entry removal can clean the back-reference.
type consumerEntry struct {
	epoch uint64
	class string
	rules []*rule.Rule
	fns   []*FuncConsumer
}

// classConsumerEntry memoizes the class-level rules visible from one class
// (its own and every MRO ancestor's), so computing a per-object entry does
// not re-walk the MRO for each instance of a hot class. Keyed by — and
// invalidated through — the exact class name: a mutation on an ancestor
// expands to the subtree at mutation time (see applyConsumerInvalidation),
// so the entry never needs to track its ancestors itself.
type classConsumerEntry struct {
	epoch uint64
	rules []*rule.Rule
}

// consumerScope names the blast radius of one catalog mutation.
//
//	mutation                      scope         entries invalidated
//	─────────────────────────────────────────────────────────────────────
//	Subscribe/Unsubscribe         obj(o)        o's entry
//	SubscribeFunc/unsubscribe     obj(o)        o's entry
//	DeleteObject                  obj(o)        o's entry (+ gen prune at
//	                                            commit, tombstone sweep)
//	CreateRule/DeleteRule (class) class(C)      C ∪ subclasses(C): class
//	                                            entries + their instances
//	CreateRule/DeleteRule (inst.) none          nothing (Subscribe carries
//	                                            the per-object scope)
//	EvolveClass                   class(C)      C's subtree (evolve demands
//	                                            no subclasses, so = C)
//	Enable/DisableRule            none          nothing (Notify checks
//	                                            enabledness per delivery)
//	recovery, ApplyBaseState      all           everything (epoch bump)
type consumerScope struct {
	kind scopeKind
	id   oid.OID // kindObj
	name string  // kindClass
}

type scopeKind uint8

const (
	scopeKindNone scopeKind = iota
	scopeKindObj
	scopeKindClass
	scopeKindAll
)

func scopeNone() consumerScope          { return consumerScope{kind: scopeKindNone} }
func scopeObj(id oid.OID) consumerScope { return consumerScope{kind: scopeKindObj, id: id} }
func scopeClass(name string) consumerScope {
	return consumerScope{kind: scopeKindClass, name: name}
}
func scopeAll() consumerScope { return consumerScope{kind: scopeKindAll} }

// invalidateConsumers is the single entry point every catalog mutation
// uses: it applies the scope's invalidation now and, when the mutation is
// transactional, registers ONE undo closure that restores the caller's
// catalog state and then re-applies the same invalidation — so an abort
// path can never forget its bump, and the invalidation always runs *after*
// the state restore (running it before would let a concurrent refresh
// cache the still-unrestored state as current).
//
// Call it after releasing db.mu; the scope application takes ccMu (and,
// for class scopes, the schema registry's read lock) itself.
func (db *Database) invalidateConsumers(t *Tx, sc consumerScope, undo func()) {
	db.applyConsumerInvalidation(sc)
	if undo != nil {
		t.onUndo(func() {
			undo()
			db.applyConsumerInvalidation(sc)
		})
	}
}

// applyConsumerInvalidation executes one scope. In the
// GlobalConsumerInvalidation reference mode every scope — including
// scopeNone, matching the pre-selective behaviour of bumping on each
// rule-state transition — escalates to a global epoch bump.
func (db *Database) applyConsumerInvalidation(sc consumerScope) {
	if db.opts.GlobalConsumerInvalidation {
		db.subEpoch.Add(1)
		db.met.ccInvalidations.Inc()
		return
	}
	switch sc.kind {
	case scopeKindNone:
		return
	case scopeKindAll:
		db.subEpoch.Add(1)
	case scopeKindObj:
		db.ccMu.Lock()
		db.dropObjEntryLocked(sc.id)
		db.objGen[sc.id]++
		db.ccMu.Unlock()
	case scopeKindClass:
		// Expand the blast radius to the registered subtree outside ccMu
		// (registry lock only); instances of a subclass see the mutated
		// ancestor's rules through their own class's MRO walk.
		names := []string{sc.name}
		if c := db.reg.Lookup(sc.name); c != nil {
			subs := db.reg.Subclasses(c)
			names = names[:0]
			for _, s := range subs {
				names = append(names, s.Name)
			}
		}
		db.ccMu.Lock()
		for _, n := range names {
			db.classGen[n]++
			delete(db.classConsumers, n)
			for id := range db.classDeps[n] {
				delete(db.objConsumers, id)
			}
			delete(db.classDeps, n)
		}
		db.ccMu.Unlock()
	}
	db.met.ccInvalidations.Inc()
}

// dropObjEntryLocked removes one object entry and its classDeps
// back-reference. Caller holds ccMu exclusively.
func (db *Database) dropObjEntryLocked(id oid.OID) {
	e := db.objConsumers[id]
	if e == nil {
		return
	}
	delete(db.objConsumers, id)
	if deps := db.classDeps[e.class]; deps != nil {
		delete(deps, id)
		if len(deps) == 0 {
			delete(db.classDeps, e.class)
		}
	}
}

// pruneConsumerState discards every per-key trace of a committed object
// deletion: the entry (already gone since DeleteObject's obj scope, but a
// stale-epoch entry may linger after a global bump), the classDeps
// back-reference, and the generation counter. Safe exactly at commit:
// strict 2PL means no raise — hence no in-flight refresh — can exist for
// an object whose deleting transaction still held its exclusive lock, and
// OIDs are never reused, so the generation cannot be observed again.
func (db *Database) pruneConsumerState(id oid.OID) {
	db.ccMu.Lock()
	db.dropObjEntryLocked(id)
	delete(db.objGen, id)
	db.ccMu.Unlock()
}

// consumersOf returns the notifiable consumers of a reactive object:
// instance-level subscriptions (rules and Go callbacks, §3.5) plus
// class-level rules over the MRO (§4.7). The common path is a cache hit:
// epoch load + one shared-lock map read, no allocations. The returned
// slices are shared and must not be mutated.
func (db *Database) consumersOf(src *object.Object) ([]*rule.Rule, []*FuncConsumer) {
	epoch := db.subEpoch.Load()
	id := src.ID()
	db.ccMu.RLock()
	e := db.objConsumers[id]
	db.ccMu.RUnlock()
	if e != nil && e.epoch == epoch {
		db.met.ccHits.Inc()
		return e.rules, e.fns
	}
	return db.refreshConsumers(src, epoch)
}

// refreshConsumers recomputes and publishes an object's consumer entry.
// Generation discipline: snapshot the object and class generations first,
// read the catalogs, then publish only if both generations are unchanged —
// see the file comment for why that closes the delete/publish race. A
// skipped publish still returns the computed slices; they are correct for
// this raise (it is concurrent with the mutation, so either ordering is a
// valid serialization).
func (db *Database) refreshConsumers(src *object.Object, epoch uint64) ([]*rule.Rule, []*FuncConsumer) {
	db.met.ccMisses.Inc()
	id := src.ID()
	cls := src.Class()

	db.ccMu.RLock()
	og := db.objGen[id]
	cg := db.classGen[cls.Name]
	ce := db.classConsumers[cls.Name]
	db.ccMu.RUnlock()

	var classRules []*rule.Rule
	if ce != nil && ce.epoch == epoch {
		classRules = ce.rules
	} else {
		classRules = db.refreshClassConsumers(cls.Name, cls.MRO(), epoch, cg)
	}

	db.mu.RLock()
	instSubs := db.subs[id]
	fns := db.funcConsumers[id]

	var rules []*rule.Rule
	if len(instSubs) == 0 {
		// No instance subscriptions: the class-level slice is the whole
		// rule set, shared as-is (entries are immutable).
		rules = classRules
	} else {
		rules = make([]*rule.Rule, 0, len(instSubs)+len(classRules))
		var seen map[oid.OID]bool
		if len(instSubs) > 1 || len(classRules) > 0 {
			seen = make(map[oid.OID]bool, len(instSubs)+len(classRules))
		}
		for _, rid := range instSubs {
			if r := db.rules[rid]; r != nil && (seen == nil || !seen[rid]) {
				if seen != nil {
					seen[rid] = true
				}
				rules = append(rules, r)
			}
		}
		for _, r := range classRules {
			if !seen[r.ID()] {
				seen[r.ID()] = true
				rules = append(rules, r)
			}
		}
	}
	db.mu.RUnlock()

	db.ccMu.Lock()
	if db.objGen[id] == og && db.classGen[cls.Name] == cg {
		db.objConsumers[id] = &consumerEntry{epoch: epoch, class: cls.Name, rules: rules, fns: fns}
		deps := db.classDeps[cls.Name]
		if deps == nil {
			deps = make(map[oid.OID]struct{}, 4)
			db.classDeps[cls.Name] = deps
		}
		deps[id] = struct{}{}
	}
	db.ccMu.Unlock()
	return rules, fns
}

// refreshClassConsumers recomputes the deduplicated class-level rules for
// one class name (walking the given MRO) and publishes the entry if the
// class generation cg — snapshotted by the caller before any catalog read
// — is still current.
func (db *Database) refreshClassConsumers(name string, mro []*schema.Class, epoch, cg uint64) []*rule.Rule {
	db.mu.RLock()
	var rules []*rule.Rule
	var seen map[oid.OID]bool
	for _, k := range mro {
		for _, r := range db.classRules[k.Name] {
			if seen == nil {
				seen = make(map[oid.OID]bool, 4)
			}
			if !seen[r.ID()] {
				seen[r.ID()] = true
				rules = append(rules, r)
			}
		}
	}
	db.mu.RUnlock()

	db.ccMu.Lock()
	if db.classGen[name] == cg {
		db.classConsumers[name] = &classConsumerEntry{epoch: epoch, rules: rules}
	}
	db.ccMu.Unlock()
	return rules
}

// consumerCacheEntries reports the live entry count across both cache
// maps (the sentinel_consumer_cache_entries gauge).
func (db *Database) consumerCacheEntries() int {
	db.ccMu.RLock()
	n := len(db.objConsumers) + len(db.classConsumers)
	db.ccMu.RUnlock()
	return n
}
