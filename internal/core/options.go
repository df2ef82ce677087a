package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"sentinel/internal/rule"
	"sentinel/internal/vfs"
)

// Options configures a Database. The zero value is a usable in-memory
// configuration; every field documents its default. Open validates the
// options (see Validate) and rejects contradictory combinations instead of
// silently misbehaving.
type Options struct {
	// ---- Storage ----

	// Dir is the storage directory. Empty (the default) means a purely
	// in-memory database: no WAL, no heap, no recovery.
	Dir string
	// SyncOnCommit forces the WAL to disk at every commit. Default false:
	// commits are durable only up to the last fsync/checkpoint, like
	// group-commit systems trading tail durability for throughput. Only
	// meaningful with Dir set. Concurrent committers coalesce through the
	// WAL's group-commit protocol, sharing one write + fsync.
	SyncOnCommit bool
	// PoolPages is the heap buffer-pool capacity in pages. 0 means the
	// heap default (256). Must not be negative.
	PoolPages int
	// MaxResidentObjects caps the resident-object directory: when the
	// resident population exceeds it, clean, unpinned, non-system objects
	// are evicted (second-chance clock) and fault back in from the heap on
	// next touch. 0 (default) disables eviction — objects still fault in
	// lazily, but nothing is ever reclaimed. Requires Dir (an in-memory
	// database has no heap to evict to).
	MaxResidentObjects int
	// CheckpointBytes triggers an automatic checkpoint (heap flush + WAL
	// truncation) when the WAL grows past this many bytes, bounding both
	// recovery time and log size. 0 (default) means 4 MiB; negative
	// disables auto-checkpointing (checkpoints happen only at open/close
	// or explicit Checkpoint calls).
	CheckpointBytes int64
	// VFS is the filesystem the storage stack (WAL, heap, buffer pool)
	// runs on. Nil (the default) means the real OS filesystem. Tests
	// substitute vfs.NewMem for hermetic in-memory storage or vfs.NewFault
	// to inject I/O errors and enumerate crash states. Only meaningful
	// with Dir set.
	VFS vfs.FS
	// Replica opens the database as a read-only replication follower: the
	// only writer is ApplyReplicated, which replays batches shipped from a
	// primary's WAL. Application transactions can read (including MVCC
	// snapshots) and subscribe but any write — NewObject, Set, DeleteObject,
	// an exclusive lock — is rejected with ErrReplicaWrite. Rules do not
	// fire on a replica (the primary already ran them; replaying their
	// effects again would double-fire); subscription fan-out does run, fed
	// by the shipped occurrences. Requires Dir.
	Replica bool
	// SyncReplicas, when positive, makes every data-bearing commit wait
	// until this many followers have durably acknowledged the commit's
	// replication LSN before Commit returns (quorum/semi-sync commit). The
	// batch ships at its WAL enqueue, so the followers' fsyncs overlap the
	// primary's; the wait runs after local durability with no locks held, so
	// it can never wedge the commit pipeline; if the quorum does not arrive within
	// QuorumTimeout the commit degrades to asynchronous (it still
	// succeeded locally) and the sentinel_repl_quorum_degraded_total
	// counter records the miss. 0 (default): commits are asynchronous and
	// followers ack for lag accounting only. Requires Dir (the quorum is
	// over shipped WAL batches) and is meaningless on a Replica.
	SyncReplicas int
	// QuorumTimeout bounds the SyncReplicas wait per commit. 0 (default)
	// means 5 seconds; must not be negative, and only meaningful with
	// SyncReplicas set.
	QuorumTimeout time.Duration

	// ---- Rule execution ----

	// Strategy names the conflict-resolution strategy: "priority"
	// (default, also chosen by ""), "fifo", or "lifo".
	Strategy string
	// MaxCascadeDepth bounds rule-triggers-rule chains. 0 (default) means
	// 16. Must not be negative.
	MaxCascadeDepth int
	// AsyncDetached executes detached-coupling rules on a background
	// worker pool instead of synchronously after Commit returns — the
	// fully asynchronous propagation of §3.1. Use WaitIdle to quiesce
	// (tests, shutdown; Close drains automatically). Default false:
	// deterministic post-commit execution.
	AsyncDetached bool
	// SnapshotConditions evaluates detached-rule conditions against a
	// read-only MVCC snapshot instead of inside the firing's own
	// transaction: the condition sees a consistent committed state (at or
	// after the triggering commit) without taking object locks, so
	// condition evaluation never blocks or deadlocks with concurrent
	// writers. The action, when the condition holds, still runs in the
	// firing's own locking transaction. Default false: conditions lock,
	// as before.
	SnapshotConditions bool
	// DetachedWorkers sizes the detached-rule executor pool used with
	// AsyncDetached: that many goroutines execute detached firings
	// concurrently, with a conflict scheduler (keyed on each firing's
	// subscriber and scheduling-time write set) serializing firings over
	// shared objects while disjoint ones run in parallel. The pool's
	// bounded queue holds 64 firings per worker; committers block
	// (backpressure) while it is full. 0 (default) means GOMAXPROCS.
	// Must not be negative, and only meaningful with AsyncDetached.
	DetachedWorkers int
	// GlobalConsumerInvalidation disables selective consumer-cache
	// invalidation: every catalog mutation (subscription change, rule
	// create/delete/enable/disable, object delete, class evolution) bumps
	// the global subscription epoch and stales the whole cache, exactly
	// the pre-selective behaviour. It exists as the differential-testing
	// reference (selective and global invalidation must produce identical
	// firing traces) and as the baseline the consumer-cache churn test
	// compares against; production use is strictly slower under rule/schema
	// churn. Default false.
	GlobalConsumerInvalidation bool

	// ---- Application hooks ----

	// Schema, when set, is invoked after the system classes are registered
	// and before persistent objects are materialized; applications
	// register their Go-defined classes here so stored instances can
	// decode. Default nil.
	Schema func(*Database) error
	// Output receives print() text from SentinelQL. Default os.Stdout.
	Output io.Writer

	// ---- Observability ----

	// MetricsAddr, when non-empty, starts an HTTP listener on the given
	// host:port (":0" picks a free port; see Database.MetricsAddr) serving
	// Prometheus text on /metrics and expvar-style JSON on /debug/vars.
	// The listener binds at Open (misconfiguration fails fast) and stops
	// during Close, after rule execution has drained. Default "": no
	// listener.
	MetricsAddr string
	// SlowRuleThreshold, when positive, forces every rule firing to be
	// timed and records firings whose condition + action time meets the
	// threshold into the slow-rule log (Database.SlowRules) and the
	// sentinel_slow_firings_total counter. Default 0: disabled, firings
	// are only timed at the MetricsSampling rate. Must not be negative.
	SlowRuleThreshold time.Duration
	// MetricsSampling times 1 in N rule firings (and their condition and
	// action separately) to feed the latency histograms, amortizing the
	// timer cost away from the allocation-free raise path. 0 (default)
	// means 16; 1 times every firing. Must not be negative. Low-frequency
	// operations (commit, fsync, fault-in) are always timed regardless.
	MetricsSampling int
}

// defaultCheckpointBytes is the auto-checkpoint threshold when
// Options.CheckpointBytes is zero.
const defaultCheckpointBytes = 4 << 20

// defaultMetricsSampling is the firing-timer sampling rate when
// Options.MetricsSampling is zero.
const defaultMetricsSampling = 16

// defaultQuorumTimeout is the per-commit quorum wait bound when
// Options.QuorumTimeout is zero.
const defaultQuorumTimeout = 5 * time.Second

// withDefaults returns a copy with the documented defaults filled in.
func (o Options) withDefaults() Options {
	if o.MaxCascadeDepth == 0 {
		o.MaxCascadeDepth = 16
	}
	if o.Output == nil {
		o.Output = os.Stdout
	}
	if o.MetricsSampling == 0 {
		o.MetricsSampling = defaultMetricsSampling
	}
	if o.AsyncDetached && o.DetachedWorkers == 0 {
		o.DetachedWorkers = runtime.GOMAXPROCS(0)
	}
	if o.SyncReplicas > 0 && o.QuorumTimeout == 0 {
		o.QuorumTimeout = defaultQuorumTimeout
	}
	return o
}

// Validate checks ranges and rejects contradictory combinations with
// actionable errors. Zero values are always valid (they mean "use the
// default"); Open calls Validate after applying defaults, so a
// configuration rejected here never half-works at runtime.
func (o Options) Validate() error {
	var errs []error
	if o.PoolPages < 0 {
		errs = append(errs, fmt.Errorf("PoolPages is %d; must be >= 0 (0 means the 256-page default)", o.PoolPages))
	}
	if o.MaxCascadeDepth < 0 {
		errs = append(errs, fmt.Errorf("MaxCascadeDepth is %d; must be >= 0 (0 means the default of 16)", o.MaxCascadeDepth))
	}
	if o.MaxResidentObjects < 0 {
		errs = append(errs, fmt.Errorf("MaxResidentObjects is %d; must be >= 0 (0 disables eviction)", o.MaxResidentObjects))
	}
	if o.SlowRuleThreshold < 0 {
		errs = append(errs, fmt.Errorf("SlowRuleThreshold is %v; must be >= 0 (0 disables the slow-rule log)", o.SlowRuleThreshold))
	}
	if o.MetricsSampling < 0 {
		errs = append(errs, fmt.Errorf("MetricsSampling is %d; must be >= 0 (0 means the default of %d, 1 times every firing)", o.MetricsSampling, defaultMetricsSampling))
	}
	if o.DetachedWorkers < 0 {
		errs = append(errs, fmt.Errorf("DetachedWorkers is %d; must be >= 0 (0 means GOMAXPROCS)", o.DetachedWorkers))
	}
	if o.DetachedWorkers > 0 && !o.AsyncDetached {
		errs = append(errs, errors.New("DetachedWorkers is set but AsyncDetached is false: the worker pool only runs detached rules asynchronously; set AsyncDetached or drop DetachedWorkers"))
	}
	if _, err := rule.ParseStrategy(o.Strategy); err != nil {
		errs = append(errs, err)
	}
	if o.MaxResidentObjects > 0 && o.Dir == "" {
		errs = append(errs, errors.New("MaxResidentObjects is set but Dir is empty: an in-memory database has no heap to evict to; set Dir or drop the ceiling"))
	}
	if o.VFS != nil && o.Dir == "" {
		errs = append(errs, errors.New("VFS is set but Dir is empty: an in-memory database never touches a filesystem; set Dir or drop VFS"))
	}
	if o.Replica && o.Dir == "" {
		errs = append(errs, errors.New("Replica is set but Dir is empty: a follower replays the shipped log into local storage; set Dir or drop Replica"))
	}
	if o.SyncReplicas < 0 {
		errs = append(errs, fmt.Errorf("SyncReplicas is %d; must be >= 0 (0 means asynchronous replication)", o.SyncReplicas))
	}
	if o.SyncReplicas > 0 && o.Dir == "" {
		errs = append(errs, errors.New("SyncReplicas is set but Dir is empty: quorum commit waits on shipped WAL batches and an in-memory database ships none; set Dir or drop SyncReplicas"))
	}
	if o.SyncReplicas > 0 && o.Replica {
		errs = append(errs, errors.New("SyncReplicas and Replica are both set: a replica accepts no writes, so it has no commits to wait on; pick one"))
	}
	if o.QuorumTimeout < 0 {
		errs = append(errs, fmt.Errorf("QuorumTimeout is %v; must be >= 0 (0 means the default of %v)", o.QuorumTimeout, defaultQuorumTimeout))
	}
	if o.QuorumTimeout > 0 && o.SyncReplicas == 0 {
		errs = append(errs, errors.New("QuorumTimeout is set but SyncReplicas is 0: there is no quorum wait to bound; set SyncReplicas or drop the timeout"))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("core: invalid options: %w", errors.Join(errs...))
}
