package main

// embedded.go runs the three workloads that call the database in-process.
// They share one shape: set up (several times, for setup_s), warm up, then
// one measured window between two probes, the oracle, and — on a traced run
// — a short untraced reference window before the traced one.

import (
	"fmt"
	"time"

	"sentinel/internal/core"
)

// config is one run's input.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale divides every population (1 = the stated sizes); the smoke test
	// runs at 20.
	scale int
	// setupReps is the least number of times set-up is repeated for its
	// median (1 = exactly once).
	setupReps int
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is a tenth of the window, at least 100 ms: long enough for the
// consumer cache, the resident set and the JIT-less runtime's heap target to
// settle at every window length the benchmark is run with.
func (c config) warmup() time.Duration {
	w := c.window() / 10
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

func (c config) scaled(n int) int {
	if n /= c.scale; n < 1 {
		n = 1
	}
	return n
}

// run is what one workload run hands back before shaping.
type run struct {
	attempted, failed int64
	notes             []string
	m                 map[string]float64
}

func (r *run) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// embedded is one ready-to-run in-process instance.
type embedded struct {
	db *core.Database
	fs *devFS // nil when the workload has no storage
	mk *market

	workers int
	slice   time.Duration // slice width of the measured window
	rank    float64       // which slice is reported: bestDecile or medianSlice
	txMask  uint64        // trace sampling, see recorder.txMask

	// op issues worker w's next operation and reports success. lastTx, when
	// traced, receives the id of the transaction it ran in.
	op func(w int, lastTx *uint64) bool
	// touched limits the oracle's per-stock check (nil = every stock).
	touched func(pi, k int) bool
	// after runs once the window and the oracle are done, with the database
	// still open; it may close and replace e.db (recovery).
	after func(e *embedded, r *run) error
	// layers adds workload-specific per-layer metrics to a traced run.
	layers func(r *run)
}

func (e *embedded) close() error { return e.db.Close() }

// Set-up is repeated at least setupReps times and, when it is quick, until
// setupBudget has been spent on it (at most maxSetupReps times): a 30 ms
// set-up timed three times is mostly noise, timed fifteen times it is not.
const (
	setupBudget  = 1500 * time.Millisecond
	maxSetupReps = 15
)

// medianSetup builds the workload's ready state repeatedly, tearing down
// all but the last, and returns that instance with the median build time.
func medianSetup[T interface{ close() error }](reps int, build func() (T, error)) (T, float64, error) {
	var zero T
	var secs []float64
	begin := time.Now()
	for {
		t0 := time.Now()
		x, err := build()
		if err != nil {
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		enough := len(secs) >= reps && (reps == 1 || time.Since(begin) >= setupBudget || len(secs) == maxSetupReps)
		if enough {
			return x, median(secs), nil
		}
		if err := x.close(); err != nil {
			return zero, 0, fmt.Errorf("setup teardown: %w", err)
		}
	}
}

func runEmbedded(cfg config, build func() (*embedded, error)) (*run, error) {
	e, setupS, err := medianSetup(cfg.setupReps, build)
	if err != nil {
		return nil, err
	}
	defer func() { e.close() }()
	r := &run{m: map[string]float64{"setup_s": setupS}}

	plain := func(w int) bool { return e.op(w, nil) }
	closedLoop(e.workers, cfg.warmup(), cfg.warmup(), e.rank, false, plain)

	// A traced run first takes a short untraced reference (for the tracing
	// overhead), then measures with the tracer installed and every
	// operation's call and return logged.
	op, window := plain, cfg.window()
	var (
		refP50    float64
		tr        *recorder
		perWorker [][]request
		opErrs    int64
	)
	if cfg.traced {
		ref, _, refBad := closedLoop(e.workers, window/4, e.slice, e.rank, true, plain)
		refP50, opErrs, window = ref.p50us(), refBad, window*3/4
		e.db.WaitIdle()
		tr = newRecorder(1<<20, e.txMask)
		tr.install(e.db, 0)
		perWorker = make([][]request, e.workers)
		for w := range perWorker {
			perWorker[w] = make([]request, 0, 1<<16)
		}
		op = func(w int) bool {
			var tx uint64
			t0 := tr.now()
			ok := e.op(w, &tx)
			t1 := tr.now()
			if ok && tx&e.txMask == 0 && len(perWorker[w]) < cap(perWorker[w]) {
				perWorker[w] = append(perWorker[w], request{tx: tx, t0: t0, t1: t1})
			}
			return ok
		}
	}
	a := takeProbe(e.db, e.fs)
	rec, attempted, bad := closedLoop(e.workers, window, e.slice, e.rank, true, op)
	drainStart := time.Now()
	e.db.WaitIdle()
	b := takeProbe(e.db, e.fs)
	e.db.SetTracer(nil)
	r.attempted, opErrs = attempted, opErrs+bad
	r.fail(opErrs, "%d operations returned an error", opErrs)
	drainMs := float64(b.at.Sub(drainStart)) / 1e6

	_, ops := rec.total()
	r.m["op_per_s"] = rec.opsPerSec()
	r.m["op_p50_us"] = rec.p50us()
	r.m["op_p99_us"] = rec.tailus()
	r.m["runtime.cpu_us_per_op"] = rec.cpuUsPerOp()
	r.m["live_heap_mb"] = liveHeapMB()

	// Oracle: the database must hold exactly what the model predicts.
	read, done := snapshotReader(e.db)
	checked, bad, first := e.mk.verify(read, e.touched)
	done()
	r.attempted += checked
	r.fail(bad, "oracle: %d of %d attributes differ; first: %s", bad, checked, first)

	if cfg.traced {
		runtimeMetrics(r.m, a, b, ops)
		coreLayerCounts(r.m, a, b, ops)
		r.m["core.detached.drain_ms"] = drainMs
		recs := tr.records()
		var reqs []request
		for _, p := range perWorker {
			reqs = append(reqs, p...)
		}
		ss := embeddedSpans(reqs, recs)
		ht := timingsOf(recs, 0)
		hookLayerTimings(r.m, ht)
		r.m["core.send.self_ns"] = ss.selfP50us("core.send") * 1e3
		r.m["core.tx.commit_self_us"] = ss.selfP50us("core.tx")
		ss.traceMetrics(r.m, rec.p50us(), refP50)
		r.m["event.feed_ns_per_occ"] = eventReplay(occurrenceStream(recs, 0, e.mk.isIndex))
		if e.layers != nil {
			e.layers(r)
		}
		if err := ss.write(cfg.traceDir, cfg.workload); err != nil {
			return nil, err
		}
		if d := tr.dropped.Load(); d > 0 {
			r.notes = append(r.notes, fmt.Sprintf("trace buffer full: %d records dropped (sums use what was kept)", d))
		}
	}
	if e.after != nil {
		if err := e.after(e, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// embeddedSpans joins the benchmark's request log with the tracer records:
// root = the call, children = the transaction body and the commit.
func embeddedSpans(reqs []request, recs []rec) *spanSet {
	ss := newSpanSet()
	byTx := indexByTx(recs, 0)
	u := untimedOf(recs, 0)
	for i, q := range reqs {
		tree := []span{{req: int64(i), name: "op", layer: "bench", start: q.t0, end: q.t1, parent: -1}}
		tree, _ = txSpans(tree, 0, int64(i), byTx[q.tx], u)
		ss.addRequest(tree)
	}
	return ss
}

// coreLayerCounts fills the count metrics every database exposes through
// Stats(), as differences over the window.
func coreLayerCounts(m map[string]float64, a, b probe, ops int64) {
	ea, eb := a.st.Events, b.st.Events
	sends, raised := float64(eb.Sends-ea.Sends), float64(eb.Raised-ea.Raised)
	notes, dets := float64(eb.Notifications-ea.Notifications), float64(eb.Detections-ea.Detections)
	m["core.send.sends"] = sends
	m["core.send.raised"] = raised
	m["core.send.notifications"] = notes
	m["core.send.notifications_per_raise"] = ratio(notes, raised)
	m["event.detections"] = dets
	m["event.detections_per_notification"] = ratio(dets, notes)

	ra, rb := a.st.Rules, b.st.Rules
	hits, misses := float64(rb.CacheHits-ra.CacheHits), float64(rb.CacheMisses-ra.CacheMisses)
	m["core.consumers.hit_ratio"] = ratio(hits, hits+misses)
	m["core.consumers.invalidations"] = float64(rb.CacheInvalidations - ra.CacheInvalidations)
	m["core.consumers.entries"] = float64(rb.CacheEntries)
	conds, acts := float64(rb.ConditionsRun-ra.ConditionsRun), float64(rb.ActionsRun-ra.ActionsRun)
	m["rule.scheduled"] = dets // every detection is scheduled exactly once
	m["rule.conditions_run"] = conds
	m["rule.actions_run"] = acts
	m["rule.actions_per_condition"] = ratio(acts, conds)

	ta, tb := a.st.Txn, b.st.Txn
	committed := float64(tb.Committed - ta.Committed)
	m["txn.committed"] = committed
	m["txn.aborted"] = float64(tb.Aborted - ta.Aborted)
	m["txn.deadlocks"] = float64(tb.Deadlocks - ta.Deadlocks)
	m["txn.waits_per_commit"] = ratio(float64(tb.Waits-ta.Waits), committed)

	da, db := a.st.Detached, b.st.Detached
	m["core.detached.executed"] = float64(db.Executed - da.Executed)
	m["core.detached.conflict_stalls"] = float64(db.ConflictStalls - da.ConflictStalls)
	m["core.detached.backpressure_waits"] = float64(db.BackpressureWaits - da.BackpressureWaits)

	sa, sb := a.st.Storage, b.st.Storage
	faults := float64(sb.Faults - sa.Faults)
	m["core.pager.faults"] = faults
	m["core.pager.evictions"] = float64(sb.Evictions - sa.Evictions)
	m["core.pager.fault_ratio"] = ratio(faults, float64(ops))
	m["core.mvcc.versions_live"] = float64(sb.VersionsLive)
	m["core.mvcc.version_prunes"] = float64(sb.VersionPrunes - sa.VersionPrunes)
	m["core.mvcc.max_chain_depth"] = float64(sb.MaxChainDepth)
	groups, grouped := float64(sb.CommitGroups-sa.CommitGroups), float64(sb.GroupedCommits-sa.GroupedCommits)
	m["wal.commits_per_fsync"] = ratio(grouped, groups)
	m["heap.checkpoints"] = float64(sb.Checkpoints - sa.Checkpoints)

	f := b.fs.sub(a.fs)
	m["vfs.wal_write_bytes"] = float64(f.walWriteBytes)
	m["vfs.heap_write_bytes"] = float64(f.heapWriteBytes)
	m["vfs.heap_read_bytes"] = float64(f.heapReadBytes)
	m["vfs.writes"] = float64(f.walWrites + f.heapWrites)
	m["vfs.syncs"] = float64(f.walSyncs + f.heapSyncs)
	m["vfs.storage_bytes_per_op"] = ratio(float64(f.writeBytes()), float64(ops))
	m["wal.appends"] = float64(f.walWrites)
	m["wal.fsyncs"] = float64(f.walSyncs)
	m["wal.bytes_per_commit"] = ratio(float64(f.walWriteBytes), committed)
	m["heap.write_bytes_per_checkpoint"] = ratio(float64(f.heapWriteBytes), m["heap.checkpoints"])
	m["buffer.page_reads"] = float64(f.heapReads)
	m["buffer.page_writes"] = float64(f.heapWrites)
	m["buffer.page_reads_per_fault"] = ratio(float64(f.heapReads), faults)
}

// hookLayerTimings fills the timings that come from the tracer hooks.
func hookLayerTimings(m map[string]float64, h hookTimings) {
	m["lang.cond_p50_ns"] = h.cond.quantile(0.5)
	m["lang.action_p50_ns"] = h.action.quantile(0.5)
	m["core.tx.commit_p50_us"] = h.commit.p50us()
	m["core.tx.commit_p99_us"] = h.commit.tailus()
	m["wal.append_p50_us"] = h.appendD.p50us()
	m["wal.fsync_p50_us"] = h.fsync.p50us()
	m["wal.fsync_p99_us"] = h.fsync.tailus()
	m["core.pager.fault_p50_us"] = h.fault.p50us()
	m["core.pager.fault_p99_us"] = h.fault.tailus()
}
