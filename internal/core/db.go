// Package core implements the Sentinel active-database runtime: the paper's
// primary contribution glued onto the substrates.
//
// A Database combines
//
//   - the meta-object schema registry (internal/schema),
//   - an in-memory object cache over a persistent heap + WAL
//     (internal/heap, internal/wal) — the Zeitgeist/zg-pos role,
//   - strict-2PL transactions (internal/txn),
//   - the event system (internal/event) and rules (internal/rule),
//   - and SentinelQL (internal/lang) for runtime rule/class definition.
//
// The paper's architecture maps onto this package as follows. Reactive
// classes declare an event interface; Database.Send is the message
// dispatcher that raises bom/eom occurrences for declared methods (§3.1,
// Fig. 1). The subscription mechanism associates notifiable consumers
// (rules, or arbitrary Go callbacks) with reactive instances at runtime
// (§3.5, Fig. 4). Rules and events are first-class objects: they are backed
// by system-class instances (__Rule, __Event, ...) that live in the same
// store, participate in the same transactions, and persist the same way as
// application objects (§3.3, §3.4, Fig. 3).
package core

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"sentinel/internal/event"
	"sentinel/internal/heap"
	"sentinel/internal/index"
	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/wal"
)

// Database is a Sentinel active object-oriented database instance.
type Database struct {
	opts  Options
	reg   *schema.Registry
	tm    *txn.Manager
	alloc *oid.Allocator
	clock atomic.Uint64

	store *heap.Store // nil when in-memory
	log   *wal.Log    // nil when in-memory

	// mu protects the runtime catalogs below. It is a reader/writer lock:
	// the event hot path (consumer resolution, object lookup, strategy
	// reads, stats snapshots) takes it shared, so concurrent transactions
	// raising events do not serialize on catalog mutation locks. Its place
	// in the lock order is in DESIGN.md §4k.
	mu            sync.RWMutex
	names         map[string]oid.OID
	nameObjs      map[string]oid.OID
	rules         map[oid.OID]*rule.Rule
	rulesByName   map[string]*rule.Rule
	subs          map[oid.OID][]oid.OID // ordered consumer lists (the paper's `consumers` attribute)
	subObjs       map[subKey]oid.OID
	classRules    map[string][]*rule.Rule
	funcConsumers map[oid.OID][]*FuncConsumer
	namedEvents   map[string]*event.Expr
	eventObjs     map[string]oid.OID
	dslClassSeq   int
	indexes       map[idxKey]*index.Hash
	indexObjs     map[idxKey]oid.OID

	// dir is the sharded resident-object directory (see directory.go):
	// object lookups go through it, missing entries fault in from the
	// heap, and the clock evictor reclaims clean unpinned residents when
	// MaxResidentObjects is exceeded. It is its own synchronization
	// domain — shard locks are leaves in the lock order.
	dir *objDirectory

	// evicting serializes clock sweeps (one at a time; extra faulters
	// skip instead of queueing).
	evicting atomic.Bool
	// evictRetry is non-zero after a sweep that could not reach its target
	// (everything left was pinned, dirty or MVCC-protected): the resident
	// count below which sweeping again is pointless. Releasing pins clears it.
	evictRetry atomic.Int64

	// MVCC coordination (see mvcc.go): lsn allocates commit LSNs and
	// tracks the stable (fully installed) prefix, snaps registers active
	// read-only snapshots, and lastSweep dedups post-commit chain sweeps by
	// the watermark they ran at.
	lsn       lsnTracker
	snaps     snapRegistry
	lastSweep atomic.Uint64

	// txFree is the free list of recycled transaction state (tx.go).
	txFree chan *txState

	// ckptMu fences checkpoints against commits: a commit holds it shared
	// around its WAL enqueue (commit.go); Checkpoint holds it exclusively,
	// awaits every batch already queued, then flushes the heap and truncates
	// the log, so a commit can never land its WAL records between the heap
	// flush and the log truncation (which would silently drop it).
	// heapBehind is the ErrHeapBehind fail-stop: set once, by a heap apply
	// that failed behind its commit record.
	ckptMu      sync.RWMutex
	ckptRunning atomic.Bool
	heapBehind  atomic.Pointer[error]

	// condFns / actFns are the named condition/action function registries
	// ("go:name" → rule.Condition / rule.Action): written during schema
	// setup, read when rules compile, never on the event hot path.
	condFns sync.Map
	actFns  sync.Map

	// Consumer-resolution cache (see consumers.go). Invalidation is
	// selective: a mutation deletes only the entries derived from the
	// keys it changed (object OID, class-name subtree); subEpoch is the
	// global fallback, bumped by recovery/base-state replacement (and the
	// GlobalConsumerInvalidation reference mode) to stale every entry at
	// once. objGen/classGen are per-key generation counters closing the
	// concurrent refresh-vs-delete race (snapshot before catalog read,
	// verify at publish); classDeps is the reverse index from exact class
	// name to the object entries derived from it. All four maps are
	// guarded by ccMu.
	subEpoch       atomic.Uint64
	ccMu           sync.RWMutex
	objConsumers   map[oid.OID]*consumerEntry
	classConsumers map[string]*classConsumerEntry
	objGen         map[oid.OID]uint64
	classGen       map[string]uint64
	classDeps      map[string]map[oid.OID]struct{}

	// pendingClassRules queues class-level rule declarations registered
	// before recovery completes; ready flips once Open finishes.
	pendingClassRules []RuleSpec
	ready             bool

	strategy rule.Strategy

	// detached is the conflict-aware executor pool for detached-coupling
	// rules (see detached.go): Options.DetachedWorkers goroutines draining
	// a bounded queue under a per-object conflict scheduler. Created at
	// Open when AsyncDetached is set, retired by Close (drain) or
	// CloseAbrupt (abandon); nil in synchronous mode.
	detached *detachedPool

	// sinkReg holds remote-sink subscriptions (see sink.go); sinkCount
	// mirrors its size so raise skips the registry — lock included — with
	// one atomic load when no remote subscriber exists.
	sinkReg   sinkRegistry
	sinkCount atomic.Int64

	// Replication state (see repl.go). replMu orders shipped batches: the
	// commit path holds it for LSN assignment + WAL enqueue +
	// Replicator.Ship, so followers see batches in log order, a valid
	// serialization order (conflicting commits are already ordered by 2PL;
	// replMu linearizes the rest). replLSN counts committed WAL batches since
	// database creation; it is persisted in the checkpoint meta and recovered
	// as meta-LSN + replayed commit count. On a replica it is the applied
	// LSN and replLogged the logged one.
	// replEpoch is the replication epoch this database's history belongs to:
	// bumped (and checkpointed) every time a primary starts over this
	// directory, persisted next to replLSN so the pair (epoch, LSN) names a
	// position in exactly one history. repl is the installed Replicator
	// (never nil; the zero value means none), swapped under replMu and read
	// lock-free — raise collects occurrences for shipping iff its Ship is
	// set. fenced flips when a newer epoch is observed (a follower was
	// promoted); a fenced database aborts every data-bearing commit with
	// ErrFenced so a deposed primary can never ack a write. applyMu
	// serializes follower-side ApplyReplicated/ApplyBaseState; it is not
	// replMu because an apply reads and writes the position (and
	// ApplyBaseState checkpoints) while holding it. replTail, replMark and
	// replMarkLogged are the replica's: the logged batches no durable mark
	// covers yet (LSNs replLSN+1..replLogged), the highest mark received and
	// the last one the WAL records (noMark: none). applyMu guards them;
	// writers also hold ckptMu shared, so a Checkpoint (exclusive) reads them
	// stable.
	replMu         sync.Mutex
	replLSN        uint64
	replLogged     uint64
	replEpoch      uint64
	repl           atomic.Pointer[Replicator]
	applyMu        sync.Mutex
	replTail       []ReplBatch
	replMark       uint64
	replMarkLogged uint64
	fenced         atomic.Bool

	// met is the metric set (counters, histograms, gauges, slow-rule log);
	// tracer is the installed obs.Tracer (nil when none — the hot path
	// pays one atomic load); metricsSrv is the Options.MetricsAddr HTTP
	// listener (nil when not configured).
	met        *coreMetrics
	tracer     atomic.Pointer[obs.Tracer]
	metricsSrv *obs.Server
}

type subKey struct{ reactive, consumer oid.OID }

// FuncConsumer is a transient Go notifiable: an arbitrary callback
// subscribed to a reactive object's events (the Notifiable role of §3.2
// without a rule attached). It is not persisted.
type FuncConsumer struct {
	Name string
	Fn   func(event.Occurrence)
}

// Open creates or reopens a database. With opts.Dir empty the database is
// in-memory; otherwise the directory holds the heap, its index, and the
// WAL, and Open performs crash recovery (replaying committed transactions
// logged after the last checkpoint).
func Open(opts Options) (*Database, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	strat, _ := rule.ParseStrategy(opts.Strategy) // validated above
	db := &Database{
		opts:           opts,
		reg:            schema.NewRegistry(),
		tm:             txn.NewManager(),
		txFree:         make(chan *txState, txFreeSize),
		alloc:          oid.NewAllocator(1),
		dir:            newObjDirectory(),
		names:          make(map[string]oid.OID),
		nameObjs:       make(map[string]oid.OID),
		rules:          make(map[oid.OID]*rule.Rule),
		rulesByName:    make(map[string]*rule.Rule),
		subs:           make(map[oid.OID][]oid.OID),
		subObjs:        make(map[subKey]oid.OID),
		classRules:     make(map[string][]*rule.Rule),
		funcConsumers:  make(map[oid.OID][]*FuncConsumer),
		namedEvents:    make(map[string]*event.Expr),
		eventObjs:      make(map[string]oid.OID),
		indexes:        make(map[idxKey]*index.Hash),
		indexObjs:      make(map[idxKey]oid.OID),
		objConsumers:   make(map[oid.OID]*consumerEntry),
		classConsumers: make(map[string]*classConsumerEntry),
		objGen:         make(map[oid.OID]uint64),
		classGen:       make(map[string]uint64),
		classDeps:      make(map[string]map[oid.OID]struct{}),
		strategy:       strat,
	}
	db.repl.Store(&Replicator{})
	db.met = newCoreMetrics(db, opts)
	if err := db.bootstrapSystemClasses(); err != nil {
		return nil, err
	}
	if opts.Schema != nil {
		if err := opts.Schema(db); err != nil {
			return nil, fmt.Errorf("core: schema setup: %w", err)
		}
	}
	if opts.Dir != "" {
		if err := db.openStorage(); err != nil {
			return nil, err
		}
	}
	// Start the detached executor pool before the metrics listener binds
	// (its gauges read db.detached) and after recovery (recovery never
	// dispatches detached work).
	if opts.AsyncDetached {
		db.detached = newDetachedPool(db, opts.DetachedWorkers)
	}
	// Bind the metrics listener last so a bad address fails fast without
	// leaking storage handles, and a failed recovery never leaves a
	// listener behind.
	if opts.MetricsAddr != "" {
		srv, err := obs.Serve(opts.MetricsAddr, db.met.reg)
		if err != nil {
			db.stopDetachedPool(false)
			if db.store != nil {
				db.store.CloseAbrupt()
				db.log.Close()
			}
			return nil, fmt.Errorf("core: metrics listener: %w", err)
		}
		db.metricsSrv = srv
	}
	db.ready = true
	// Recovery rebuilt the rule/subscription catalogs wholesale; the
	// global epoch bump is the safe fallback that stales anything cached
	// during the rebuild (selective scopes only cover live mutations).
	db.applyConsumerInvalidation(scopeAll())
	// A replica never instantiates rules locally: rule effects arrive as
	// shipped batches from the primary (and creating the __Rule objects
	// would be a write, which replicas reject).
	if !db.opts.Replica {
		if err := db.flushPendingClassRules(); err != nil {
			db.stopDetachedPool(false)
			if db.metricsSrv != nil {
				db.metricsSrv.Close()
			}
			return nil, err
		}
	}
	return db, nil
}

// MustOpen is Open that panics on error; for tests and examples.
func MustOpen(opts Options) *Database {
	db, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// Registry exposes the schema registry (for introspection; use
// RegisterClass to add classes so class-level rules are wired up).
func (db *Database) Registry() *schema.Registry { return db.reg }

// Persistent reports whether the database has a disk footprint.
func (db *Database) Persistent() bool { return db.store != nil }

// Dir returns the storage directory ("" for in-memory databases).
func (db *Database) Dir() string { return db.opts.Dir }

// CloseAbrupt closes the underlying files WITHOUT checkpointing —
// simulating a crash: the heap keeps only checkpointed state and the WAL
// keeps everything since, so the next Open exercises recovery. For tests
// and the recovery experiments.
func (db *Database) CloseAbrupt() error {
	// Abandon the executor pool: queued detached work is dropped (a crash
	// loses it), only firings already executing run out.
	db.closeSinks()
	db.stopDetachedPool(false)
	if db.metricsSrv != nil {
		db.metricsSrv.Close()
	}
	if db.store == nil {
		return nil
	}
	if err := db.store.CloseAbrupt(); err != nil {
		return err
	}
	return db.log.Close()
}

// WALSize returns the current write-ahead-log size in bytes (0 for
// in-memory databases).
func (db *Database) WALSize() int64 {
	if db.log == nil {
		return 0
	}
	return db.log.Size()
}

// Close shuts the database down in dependency order: first drain and stop
// rule execution (detached firings may still mutate objects and append WAL
// records), then stop the metrics listener (so a final scrape during
// shutdown cannot observe a half-closed store), then checkpoint and close
// the storage.
func (db *Database) Close() error {
	db.WaitIdle()
	// Remote subscriptions go first: detached firings drained below may
	// still commit and fan out, but no new subscription can land while the
	// database is dismantling itself. (The server layer closes its sessions
	// before closing the database; this is the belt to that suspender.)
	db.closeSinks()
	db.stopDetachedPool(true)
	if db.metricsSrv != nil {
		db.metricsSrv.Close()
	}
	if db.store == nil {
		return nil
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	if err := db.store.Close(); err != nil {
		return err
	}
	return db.log.Close()
}

// Now returns the current logical timestamp (the last one issued).
func (db *Database) Now() uint64 { return db.clock.Load() }

// SetStrategy swaps the conflict-resolution strategy at runtime without
// touching application code (§3 design goal 4).
func (db *Database) SetStrategy(name string) error {
	s, err := rule.ParseStrategy(name)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.strategy = s
	db.mu.Unlock()
	return nil
}

// currentStrategy reads the conflict-resolution strategy under the shared
// lock; raise resolves it once per immediate batch through this path.
func (db *Database) currentStrategy() rule.Strategy {
	db.mu.RLock()
	s := db.strategy
	db.mu.RUnlock()
	return s
}

// hier adapts the schema registry to event.Hierarchy.
type hier struct{ reg *schema.Registry }

// IsSubclass reports whether sub is super or a transitive subclass.
func (h hier) IsSubclass(sub, super string) bool {
	sc := h.reg.Lookup(sub)
	pc := h.reg.Lookup(super)
	if sc == nil || pc == nil {
		return false
	}
	return sc.IsSubclassOf(pc)
}

func (db *Database) hierarchy() event.Hierarchy { return hier{reg: db.reg} }

// nextSeq issues the next logical timestamp.
func (db *Database) nextSeq() uint64 { return db.clock.Add(1) }

// advanceClock moves the logical clock to at least seq (replication apply:
// the replica adopts the primary's stamps so a later promotion never
// reissues them).
func (db *Database) advanceClock(seq uint64) {
	for {
		cur := db.clock.Load()
		if seq <= cur || db.clock.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// objectByID returns the live object for id, faulting it in from the heap
// if it is not resident (nil if absent or tombstoned; decode errors also
// report nil — lockObject surfaces them). Callers must hold the appropriate
// transaction lock before touching fields; under eviction pressure only
// pinned objects (lockObject) have stable pointers, but ID() and Class()
// are immutable and safe on any returned pointer.
func (db *Database) objectByID(id oid.OID) *object.Object {
	o, _ := db.faultObject(id)
	return o
}

// LookupRule returns the runtime rule with the given name (nil if absent).
func (db *Database) LookupRule(name string) *rule.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rulesByName[name]
}

// RuleByID returns the runtime rule with the given object identity.
func (db *Database) RuleByID(id oid.OID) *rule.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rules[id]
}

// Rules returns all rules, by registration in unspecified order.
func (db *Database) Rules() []*rule.Rule {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*rule.Rule, 0, len(db.rules))
	for _, r := range db.rules {
		out = append(out, r)
	}
	return out
}

// LookupEvent returns a named event definition.
func (db *Database) LookupEvent(name string) (*event.Expr, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.namedEvents[name]
	return e, ok
}

// metaBlob encodes the checkpoint metadata: OID high-water mark, logical
// clock, DSL class sequence, two zero counts, then the replication LSN and
// epoch. Blobs kept in a v1 objects.idx hold a heap-class catalog (class
// names, then OID → class pairs) where the zero counts are, so loadMeta reads
// both layouts alike. LSN and epoch are written together so a checkpoint can
// never persist a new epoch with the other history's LSN or vice versa.
func (db *Database) metaBlob() []byte {
	buf := binary.AppendUvarint(nil, uint64(db.alloc.HighWater()))
	buf = binary.AppendUvarint(buf, db.clock.Load())
	buf = binary.AppendUvarint(buf, uint64(db.dslClassSeq))
	buf = append(buf, 0, 0)
	lsn, epoch := db.replPosition()
	buf = binary.AppendUvarint(buf, lsn)
	return binary.AppendUvarint(buf, epoch)
}

// loadMeta decodes the checkpoint metadata. A blob may end early: older
// checkpoints lack the replication LSN and epoch, and a store that lost its
// index has no blob at all; the missing fields keep their zero values.
func (db *Database) loadMeta(buf []byte) {
	next := func() uint64 {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			buf = nil
			return 0
		}
		buf = buf[n:]
		return v
	}
	db.alloc.Advance(oid.OID(next()))
	if clk := next(); db.clock.Load() < clk {
		db.clock.Store(clk)
	}
	db.dslClassSeq = max(db.dslClassSeq, int(next()))
	// Skip a v1-era heap-class catalog; the heap's object table holds classes.
	for n := next(); n > 0 && len(buf) > 0; n-- {
		l := next()
		buf = buf[min(l, uint64(len(buf))):]
	}
	for n := next(); n > 0 && len(buf) > 0; n-- {
		next()
		next()
	}
	// openStorage adds the committed batches replayed from the WAL on top
	// of this LSN base; the epoch carries over as-is.
	if len(buf) > 0 {
		db.replMu.Lock()
		db.replLSN = next()
		db.replEpoch = next()
		db.replMu.Unlock()
	}
}

func (db *Database) walPath() string { return filepath.Join(db.opts.Dir, "sentinel.wal") }

// Names returns all bound names, sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.names))
	for n := range db.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DescribeObject renders an object with its class and public attributes,
// under a shared lock.
func (db *Database) DescribeObject(t *Tx, id oid.OID) string {
	o, err := db.lockObject(t, id, txn.Shared)
	if err != nil {
		return fmt.Sprintf("%s <%v>", id, err)
	}
	return o.String()
}

// NamedEvents returns the names of all cataloged event definitions, sorted.
func (db *Database) NamedEvents() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.namedEvents))
	for n := range db.namedEvents {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
