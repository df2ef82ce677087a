package core

import (
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/txn"
)

// Snapshot is an immutable point-in-time view of the runtime counters,
// grouped by subsystem. It is returned by Database.Stats; for latency
// histograms and the full metric registry see Database.Metrics.
type Snapshot struct {
	Objects     ObjectStats
	Events      EventStats
	Rules       RuleStats
	Detached    DetachedStats
	Storage     StorageStats
	Replication ReplicationStats
	Txn         txn.Stats
}

// ObjectStats describes the live object population.
type ObjectStats struct {
	// Resident counts objects materialized in the directory; Total counts
	// the live population (directory ∪ heap). They diverge once demand
	// paging leaves cold objects on disk.
	Resident int
	Total    int
}

// EventStats counts event generation and propagation.
type EventStats struct {
	Sends         uint64 // method dispatches
	Raised        uint64 // primitive occurrences generated
	Notifications uint64 // occurrence deliveries to consumers
	Detections    uint64 // composite/primitive event detections signalled
}

// RuleStats counts the rule catalog and rule execution.
type RuleStats struct {
	Defined       int
	Subscriptions int
	ConditionsRun uint64
	ActionsRun    uint64
	SlowFirings   uint64 // firings at or above Options.SlowRuleThreshold

	// Consumer-resolution cache behaviour (see consumers.go): raises
	// served from a cached entry vs recomputed, invalidation scopes
	// applied by catalog mutations, and live entries across both maps.
	CacheHits          uint64
	CacheMisses        uint64
	CacheInvalidations uint64
	CacheEntries       int
}

// DetachedStats describes the conflict-aware detached executor pool
// (zero-valued when AsyncDetached is off and detached rules run
// synchronously).
type DetachedStats struct {
	Workers           int    // pool size (0 = synchronous execution)
	Queued            int    // firings enqueued, not yet executing
	InFlight          int    // firings executing right now
	Executed          uint64 // firings the pool has completed
	ConflictStalls    uint64 // firings enqueued behind a conflicting predecessor
	BackpressureWaits uint64 // commits that blocked on a full queue
}

// StorageStats counts paging, checkpointing, WAL, MVCC and group-commit
// activity.
type StorageStats struct {
	Faults      uint64 // objects decoded from the heap on demand
	Evictions   uint64 // residents reclaimed by the clock sweep
	Checkpoints uint64 // checkpoints taken (explicit + automatic)
	WALBytes    int64  // current write-ahead-log size

	WatermarkLSN    uint64 // MVCC low-watermark (min of oldest snapshot and stable LSN)
	SnapshotsActive int    // registered read-only snapshots
	VersionsLive    int64  // archived versions across all chains
	VersionPrunes   uint64 // archived versions reclaimed by the watermark
	MaxChainDepth   int    // longest live version chain
	CommitGroups    uint64 // group-commit flushes
	GroupedCommits  uint64 // commits carried by those flushes (ratio = commits per fsync)
}

// ReplicationStats describes the replication role and stream position.
// Zero-valued (Role "none") when the database neither ships nor follows.
type ReplicationStats struct {
	Role       string // "none", "primary", or "replica"
	Peers      int    // primary: attached followers; replica: connected primaries (0 or 1)
	ShippedLSN uint64 // primary: last committed batch; replica: primary's last known batch
	AppliedLSN uint64 // primary: min applied LSN across followers; replica: last applied batch
	LagBatches uint64 // ShippedLSN - AppliedLSN (0 with no peers)

	Epoch          uint64 // replication epoch this node's history belongs to
	Fenced         bool   // true on a deposed primary (newer epoch observed)
	QuorumDegraded uint64 // quorum commits that timed out and degraded to async
}

// Stats returns a snapshot of the runtime counters, grouped by subsystem.
func (db *Database) Stats() Snapshot {
	db.mu.RLock()
	rules := len(db.rules)
	subsN := 0
	for _, m := range db.subs {
		subsN += len(m)
	}
	db.mu.RUnlock()
	resident, total := db.countObjects()
	m := db.met
	return Snapshot{
		Objects: ObjectStats{Resident: resident, Total: total},
		Events: EventStats{
			Sends:         m.sends.Value(),
			Raised:        m.eventsRaised.Value(),
			Notifications: m.notifications.Value(),
			Detections:    m.detections.Value(),
		},
		Rules: RuleStats{
			Defined:       rules,
			Subscriptions: subsN,
			ConditionsRun: m.conditionsRun.Value(),
			ActionsRun:    m.actionsRun.Value(),
			SlowFirings:   m.slowFirings.Value(),

			CacheHits:          m.ccHits.Value(),
			CacheMisses:        m.ccMisses.Value(),
			CacheInvalidations: m.ccInvalidations.Value(),
			CacheEntries:       db.consumerCacheEntries(),
		},
		Detached: db.detachedStats(),
		Storage: StorageStats{
			Faults:      m.faults.Value(),
			Evictions:   m.evictions.Value(),
			Checkpoints: m.checkpoints.Value(),
			WALBytes:    db.WALSize(),

			WatermarkLSN:    db.watermark(),
			SnapshotsActive: db.snaps.activeCount(),
			VersionsLive:    db.dir.liveVersions.Load(),
			VersionPrunes:   m.versionPrunes.Value(),
			MaxChainDepth:   db.dir.maxChainDepth(),
			CommitGroups:    m.commitGroups.Value(),
			GroupedCommits:  m.groupedCommits.Value(),
		},
		Replication: db.replicationStats(),
		Txn:         db.tm.Stats(),
	}
}

// replicationStats reads the replication position. The local LSN is always
// authoritative for this node's side of the stream; Replicator.Info
// (installed by internal/repl) supplies the other side's position.
func (db *Database) replicationStats() ReplicationStats {
	var s ReplicationStats
	local, epoch := db.replPosition()
	s.Epoch = epoch
	s.Fenced = db.fenced.Load()
	s.QuorumDegraded = db.met.quorumDegraded.Value()
	r := db.repl.Load()
	switch {
	case db.opts.Replica:
		s.Role = "replica"
		s.AppliedLSN = local
		s.ShippedLSN = local
		if r.Info != nil {
			peers, shipped := r.Info()
			s.Peers = peers
			if shipped > s.ShippedLSN {
				s.ShippedLSN = shipped
			}
		}
	case r.Ship != nil:
		s.Role = "primary"
		s.ShippedLSN = local
		s.AppliedLSN = local
		if r.Info != nil {
			peers, applied := r.Info()
			s.Peers = peers
			if peers > 0 {
				s.AppliedLSN = applied
			}
		}
	default:
		s.Role = "none"
		return s
	}
	if s.ShippedLSN > s.AppliedLSN {
		s.LagBatches = s.ShippedLSN - s.AppliedLSN
	}
	return s
}

// detachedStats reads the executor-pool gauges and counters.
func (db *Database) detachedStats() DetachedStats {
	if db.detached == nil {
		return DetachedStats{}
	}
	queued, inflight := db.detached.snapshot()
	m := db.met
	return DetachedStats{
		Workers:           db.detached.workers,
		Queued:            queued,
		InFlight:          inflight,
		Executed:          m.detachedFirings.Value(),
		ConflictStalls:    m.detachedStalls.Value(),
		BackpressureWaits: m.detachedBackpressure.Value(),
	}
}

// countObjects computes the resident and total (directory ∪ heap) live
// populations: residents are directory entries minus tombstones, the total
// adds heap objects with no directory presence (a tombstone shadows its
// heap image — the delete is in flight).
func (db *Database) countObjects() (resident, total int) {
	present := make(map[oid.OID]bool)
	db.dir.forEach(func(id oid.OID, _ *object.Object, tomb bool) {
		present[id] = true
		if !tomb {
			resident++
		}
	})
	total = resident
	if db.store != nil {
		for _, o := range db.store.Objects() {
			if !present[o.ID] {
				total++
			}
		}
	}
	return resident, total
}
