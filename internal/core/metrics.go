package core

// metrics.go wires the obs layer into the runtime: the per-database metric
// set (counters, gauges, histograms), the tracer installation point, and
// the slow-rule log. Registration happens once at Open; the hot paths then
// touch only the returned pointers — a counter add costs the same atomic
// the pre-obs flat Stats counters did, and with no tracer installed every
// hook site is one atomic pointer load.

import (
	"fmt"
	"sync/atomic"
	"time"

	"sentinel/internal/obs"
)

// slowLogCapacity bounds the slow-rule ring (most recent entries win).
const slowLogCapacity = 128

// coreMetrics is the database's metric set. All pointer fields are
// registered once in newCoreMetrics and never change.
type coreMetrics struct {
	reg *obs.Registry

	// Event-propagation counters (the former flat Stats atomics).
	sends, eventsRaised, notifications, detections *obs.Counter
	conditionsRun, actionsRun, rulesScheduled      *obs.Counter
	slowFirings                                    *obs.Counter

	// Consumer-resolution cache instruments: hit/miss split on the raise
	// path, invalidations applied by catalog mutations (one per scope
	// application, however many entries it removed), and a live-entry
	// gauge (registered below; reads the cache maps under ccMu at scrape).
	ccHits, ccMisses, ccInvalidations *obs.Counter

	// Storage counters.
	faults, evictions, checkpoints  *obs.Counter
	walAppends, walFsyncs, walBytes *obs.Counter

	// MVCC / group-commit instruments. commitGroups counts group-commit
	// flushes, groupedCommits the commits they carried (their ratio is the
	// commits-per-fsync batching factor); commitGroupH records the size
	// distribution (the observed "duration" is the group size, not a time).
	// versionPrunes counts archived versions reclaimed by the watermark,
	// snapshots the read-only snapshots begun (they are not lock-manager
	// transactions, so the txns_* series do not count them).
	commitGroups, groupedCommits, versionPrunes, snapshots *obs.Counter
	commitGroupH                                           *obs.Histogram

	// Detached executor pool counters. detachedWorkerFirings has one
	// counter per pool worker (registered only with AsyncDetached, when
	// the pool size is known).
	detachedFirings, detachedStalls, detachedBackpressure *obs.Counter
	detachedWorkerFirings                                 []*obs.Counter

	// pushEvents counts occurrences fanned out to remote sinks after their
	// transaction committed (sink.go).
	pushEvents *obs.Counter

	// Failover counters. quorumDegraded counts commits whose SyncReplicas
	// quorum wait timed out and degraded to async; fencedWrites counts
	// commits aborted with ErrFenced on a deposed primary.
	quorumDegraded, fencedWrites *obs.Counter

	// Latency histograms. Commit, fsync, append and fault-in are always
	// timed (low frequency); firing/condition/action are fed at the
	// sampling rate unless a tracer or slow-rule threshold forces full
	// timing.
	commitH, firingH, condH, actionH *obs.Histogram
	fsyncH, appendH, faultH          *obs.Histogram

	// firingTick drives the 1-in-sampleN timing decision for rule firings.
	firingTick atomic.Uint64
	sampleN    uint64
	slowNs     int64
	slowLog    *obs.SlowLog
}

// newCoreMetrics builds and registers the database's metric set. The gauge
// callbacks read runtime state under the usual shared locks, so they must
// only run at snapshot/scrape time (they do).
func newCoreMetrics(db *Database, opts Options) *coreMetrics {
	reg := obs.NewRegistry()
	m := &coreMetrics{
		reg:     reg,
		sampleN: uint64(opts.MetricsSampling),
		slowNs:  int64(opts.SlowRuleThreshold),
		slowLog: obs.NewSlowLog(slowLogCapacity),

		sends:           reg.Counter("sentinel_sends_total", "method dispatches"),
		eventsRaised:    reg.Counter("sentinel_events_raised_total", "primitive occurrences generated"),
		notifications:   reg.Counter("sentinel_notifications_total", "occurrence deliveries to consumers"),
		detections:      reg.Counter("sentinel_detections_total", "event detections signalled"),
		conditionsRun:   reg.Counter("sentinel_conditions_run_total", "rule conditions evaluated"),
		actionsRun:      reg.Counter("sentinel_actions_run_total", "rule actions executed (condition held)"),
		rulesScheduled:  reg.Counter("sentinel_rules_scheduled_total", "detections scheduled for rule execution"),
		slowFirings:     reg.Counter("sentinel_slow_firings_total", "rule firings at or above SlowRuleThreshold"),
		ccHits:          reg.Counter("sentinel_consumer_cache_hits_total", "consumer-resolution cache hits on the raise path"),
		ccMisses:        reg.Counter("sentinel_consumer_cache_misses_total", "consumer-resolution cache recomputations"),
		ccInvalidations: reg.Counter("sentinel_consumer_cache_invalidations_total", "consumer-cache invalidation scopes applied by catalog mutations"),

		faults:      reg.Counter("sentinel_object_faults_total", "objects decoded from the heap on demand"),
		evictions:   reg.Counter("sentinel_object_evictions_total", "residents reclaimed by the clock sweep"),
		checkpoints: reg.Counter("sentinel_checkpoints_total", "checkpoints taken (explicit + automatic)"),
		walAppends:  reg.Counter("sentinel_wal_appends_total", "WAL record-batch appends"),
		walFsyncs:   reg.Counter("sentinel_wal_fsyncs_total", "physical WAL fsyncs (group commit shares them)"),
		walBytes:    reg.Counter("sentinel_wal_bytes_appended_total", "bytes appended to the WAL"),

		commitGroups:   reg.Counter("sentinel_commit_groups_total", "group-commit flushes (one write + at most one fsync each)"),
		groupedCommits: reg.Counter("sentinel_grouped_commits_total", "commits carried by group-commit flushes"),
		versionPrunes:  reg.Counter("sentinel_version_prunes_total", "archived MVCC versions reclaimed by the watermark"),
		snapshots:      reg.Counter("sentinel_snapshots_total", "read-only snapshots begun"),

		detachedFirings:      reg.Counter("sentinel_detached_firings_total", "detached firings executed by the worker pool"),
		detachedStalls:       reg.Counter("sentinel_detached_conflict_stalls_total", "detached firings enqueued behind a conflicting predecessor"),
		detachedBackpressure: reg.Counter("sentinel_detached_backpressure_waits_total", "commits that blocked on a full detached queue"),

		pushEvents: reg.Counter("sentinel_push_events_total", "committed occurrences fanned out to remote sinks"),

		quorumDegraded: reg.Counter("sentinel_repl_quorum_degraded_total", "quorum commits that timed out waiting for follower acks and degraded to async"),
		fencedWrites:   reg.Counter("sentinel_repl_fenced_writes_total", "commits aborted because this primary is fenced by a newer epoch"),

		commitH: reg.Histogram("sentinel_tx_commit_ns", "transaction commit latency"),
		firingH: reg.Histogram("sentinel_rule_firing_ns", "rule firing latency (condition + action)"),
		condH:   reg.Histogram("sentinel_condition_eval_ns", "rule condition evaluation latency"),
		actionH: reg.Histogram("sentinel_action_exec_ns", "rule action execution latency"),
		fsyncH:  reg.Histogram("sentinel_wal_fsync_ns", "WAL fsync latency"),
		appendH: reg.Histogram("sentinel_wal_append_ns", "WAL append write latency"),
		faultH:  reg.Histogram("sentinel_fault_in_ns", "object fault-in (read + decode) latency"),

		commitGroupH: reg.Histogram("sentinel_commit_group_size", "commits coalesced per group-commit flush (value is a count, not nanoseconds)"),
	}

	if opts.AsyncDetached {
		m.detachedWorkerFirings = make([]*obs.Counter, opts.DetachedWorkers)
		for i := range m.detachedWorkerFirings {
			m.detachedWorkerFirings[i] = reg.Counter(
				fmt.Sprintf("sentinel_detached_worker_%d_firings_total", i),
				fmt.Sprintf("detached firings executed by pool worker %d", i))
		}
	}

	reg.Gauge("sentinel_detached_workers", "detached executor pool size (0 = synchronous)", func() int64 {
		if db.detached == nil {
			return 0
		}
		return int64(db.detached.workers)
	})
	reg.Gauge("sentinel_detached_queue_depth", "detached firings queued, not yet executing", func() int64 {
		if db.detached == nil {
			return 0
		}
		queued, _ := db.detached.snapshot()
		return int64(queued)
	})
	reg.Gauge("sentinel_detached_inflight", "detached firings executing right now", func() int64 {
		if db.detached == nil {
			return 0
		}
		_, inflight := db.detached.snapshot()
		return int64(inflight)
	})
	reg.Gauge("sentinel_objects_resident", "objects materialized in the directory", func() int64 {
		resident, _ := db.countObjects()
		return int64(resident)
	})
	reg.Gauge("sentinel_objects_total", "live objects (directory ∪ heap)", func() int64 {
		_, total := db.countObjects()
		return int64(total)
	})
	reg.Gauge("sentinel_rules_defined", "rules in the catalog", func() int64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return int64(len(db.rules))
	})
	reg.Gauge("sentinel_consumer_cache_entries", "live consumer-resolution cache entries (object + class)", func() int64 {
		return int64(db.consumerCacheEntries())
	})
	reg.Gauge("sentinel_subscriptions", "instance-level subscriptions", func() int64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		n := 0
		for _, subs := range db.subs {
			n += len(subs)
		}
		return int64(n)
	})
	reg.Gauge("sentinel_remote_subscriptions", "live remote-sink subscriptions", func() int64 {
		return db.sinkCount.Load()
	})
	reg.Gauge("sentinel_wal_size_bytes", "current write-ahead-log size", func() int64 {
		return db.WALSize()
	})
	reg.Gauge("sentinel_versions_live", "archived MVCC versions across all chains", func() int64 {
		return db.dir.liveVersions.Load()
	})
	reg.Gauge("sentinel_snapshots_active", "registered read-only snapshots", func() int64 {
		return int64(db.snaps.activeCount())
	})
	reg.Gauge("sentinel_mvcc_watermark_lsn", "MVCC low-watermark (min of oldest snapshot and stable LSN)", func() int64 {
		return int64(db.watermark())
	})
	reg.Gauge("sentinel_version_chain_depth_max", "longest live version chain", func() int64 {
		return int64(db.dir.maxChainDepth())
	})
	reg.Gauge("sentinel_txns_started", "transactions started", func() int64 {
		return int64(db.tm.Stats().Started)
	})
	reg.Gauge("sentinel_txns_committed", "transactions committed", func() int64 {
		return int64(db.tm.Stats().Committed)
	})
	reg.Gauge("sentinel_txns_aborted", "transactions aborted", func() int64 {
		return int64(db.tm.Stats().Aborted)
	})
	reg.Gauge("sentinel_txn_deadlocks", "deadlocks detected and broken", func() int64 {
		return int64(db.tm.Stats().Deadlocks)
	})
	reg.Gauge("sentinel_repl_role", "replication role (0 none, 1 primary, 2 replica)", func() int64 {
		switch db.replicationStats().Role {
		case "primary":
			return 1
		case "replica":
			return 2
		}
		return 0
	})
	reg.Gauge("sentinel_repl_peers", "attached replication peers", func() int64 {
		return int64(db.replicationStats().Peers)
	})
	reg.Gauge("sentinel_repl_shipped_lsn", "last shipped (primary) or last known primary (replica) batch LSN", func() int64 {
		return int64(db.replicationStats().ShippedLSN)
	})
	reg.Gauge("sentinel_repl_applied_lsn", "min follower applied LSN (primary) or local applied LSN (replica)", func() int64 {
		return int64(db.replicationStats().AppliedLSN)
	})
	reg.Gauge("sentinel_repl_lag_batches", "shipped minus applied batches", func() int64 {
		return int64(db.replicationStats().LagBatches)
	})
	reg.Gauge("sentinel_repl_epoch", "replication epoch this node's history belongs to", func() int64 {
		return int64(db.ReplEpoch())
	})
	reg.Gauge("sentinel_repl_fenced", "1 when this node is a fenced (deposed) primary", func() int64 {
		if db.fenced.Load() {
			return 1
		}
		return 0
	})
	return m
}

// shouldTimeFiring decides whether this firing gets timed: always under a
// slow-rule threshold or a RuleFired tracer hook, else 1 in sampleN.
func (m *coreMetrics) shouldTimeFiring(tr *obs.Tracer) bool {
	if m.slowNs > 0 || (tr != nil && tr.RuleFired != nil) {
		return true
	}
	return m.sampleN > 0 && m.firingTick.Add(1)%m.sampleN == 0
}

// recordSlow appends a slow-rule entry when the firing met the threshold.
func (m *coreMetrics) recordSlow(name, coupling string, total, cond, act time.Duration, fired bool) {
	if m.slowNs <= 0 || int64(total) < m.slowNs {
		return
	}
	m.slowFirings.Inc()
	m.slowLog.Add(obs.SlowRule{
		Rule:     name,
		Coupling: coupling,
		Total:    total,
		Cond:     cond,
		Action:   act,
		Fired:    fired,
	})
}

// Metrics returns an immutable point-in-time snapshot of every registered
// metric: counters, gauges, and latency histograms with p50/p95/p99
// estimates. Safe to call concurrently with any database activity.
func (db *Database) Metrics() obs.Snapshot { return db.met.reg.Snapshot() }

// MetricsRegistry exposes the database's metric registry so applications
// can register their own counters, gauges and histograms alongside the
// runtime's — they are served by the same MetricsAddr listener and appear
// in the same Metrics snapshot.
func (db *Database) MetricsRegistry() *obs.Registry { return db.met.reg }

// SetTracer installs (or, with nil, removes) the tracer whose hooks the
// runtime invokes; see obs.Tracer for the hook contract. Installation is
// atomic and takes effect for operations that start after the call. With
// no tracer installed the hook sites cost one atomic load and zero
// allocations.
func (db *Database) SetTracer(tr *obs.Tracer) { db.tracer.Store(tr) }

// SlowRules returns the retained slow-rule log entries (oldest first) and
// the total number of slow firings ever recorded. Entries are only
// recorded when Options.SlowRuleThreshold is positive.
func (db *Database) SlowRules() ([]obs.SlowRule, uint64) { return db.met.slowLog.Entries() }

// MetricsAddr returns the bound metrics listener address ("" when
// Options.MetricsAddr was empty). With ":0" this is how the picked port is
// discovered.
func (db *Database) MetricsAddr() string {
	if db.metricsSrv == nil {
		return ""
	}
	return db.metricsSrv.Addr()
}
