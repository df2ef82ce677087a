package core

// Observability-layer tests: the instrumentation must not tax the event
// fast path (raising and firing stay allocation-free with metrics on),
// tracer hooks fire exactly at the documented points, Metrics/Stats
// snapshots are safe under concurrent churn, Close drains detached
// firings it races with, Options.Validate rejects nonsense, and the
// MetricsAddr listener serves what the registry holds. These live in
// package core so the allocation pins can drive raise directly.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/value"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; "" = valid
	}{
		{"zero value", Options{}, ""},
		{"negative pool", Options{PoolPages: -1}, "PoolPages"},
		{"negative cascade", Options{MaxCascadeDepth: -2}, "MaxCascadeDepth"},
		{"negative resident", Options{MaxResidentObjects: -1}, "MaxResidentObjects"},
		{"negative slow threshold", Options{SlowRuleThreshold: -time.Second}, "SlowRuleThreshold"},
		{"negative sampling", Options{MetricsSampling: -1}, "MetricsSampling"},
		{"unknown strategy", Options{Strategy: "random"}, "strategy"},
		{"ceiling without dir", Options{MaxResidentObjects: 8}, "Dir is empty"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}

	// Open must reject what Validate rejects, before touching storage.
	if _, err := Open(Options{PoolPages: -1}); err == nil {
		t.Fatal("Open accepted invalid options")
	}
	// Multiple problems are all reported at once.
	err := Options{PoolPages: -1, MetricsSampling: -1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "PoolPages") || !strings.Contains(err.Error(), "MetricsSampling") {
		t.Fatalf("Validate did not join both errors: %v", err)
	}
}

// raiseFiringAllocs opens a database with the given options, subscribes a
// condition-false rule to one P instance, and returns the steady-state
// allocations of a raise that notifies the rule and runs its condition,
// plus the allocations of a raise with no consumers at all.
func raiseFiringAllocs(t *testing.T, opts Options) (withRule, noConsumer float64) {
	t.Helper()
	db := MustOpen(opts)
	ids := hotPathClass(t, db, 2)
	quiet, watched := ids[0], ids[1]
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name:     "w",
			EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) {
				return false, nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, watched, r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	defer db.Abort(tx)
	src := db.objectByID(watched)
	quietSrc := db.objectByID(quiet)
	args := []value.Value{value.Float(1)}
	// Warm the consumer cache and the frame pool.
	for i := 0; i < 3; i++ {
		if err := db.raise(tx, src, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	withRule = testing.AllocsPerRun(200, func() {
		if err := db.raise(tx, src, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	noConsumer = testing.AllocsPerRun(200, func() {
		if err := db.raise(tx, quietSrc, "Set", event.End, args, nil, 0); err != nil {
			t.Fatal(err)
		}
	})
	// The counters really were fed the whole time.
	s := db.Stats()
	if s.Events.Raised == 0 || s.Rules.ConditionsRun == 0 {
		t.Fatalf("metrics missed the workload: %+v", s)
	}
	return withRule, noConsumer
}

// TestRaiseZeroAllocsWithMetrics pins the overhead contract of the
// observability layer: with the metric registry live (it always is) and no
// tracer installed, the raise fast path allocates exactly what it did
// before instrumentation — nothing on the no-consumer path, and timing a
// firing (forced by SlowRuleThreshold, which routes every firing through
// the histogram/slow-log epilogue) adds zero allocations over the untimed
// firing path.
func TestRaiseZeroAllocsWithMetrics(t *testing.T) {
	// sampleN so large the 1-in-N timer never triggers during the test:
	// the pure untimed baseline.
	base, baseQuiet := raiseFiringAllocs(t, Options{Output: io.Discard, MetricsSampling: 1 << 30})
	if baseQuiet != 0 {
		t.Errorf("raise with no consumers, metrics on: %v allocs/op, want 0", baseQuiet)
	}

	// Every firing timed: histograms, per-rule stats, slow-rule check.
	forced, forcedQuiet := raiseFiringAllocs(t, Options{Output: io.Discard, SlowRuleThreshold: time.Hour})
	if forcedQuiet != 0 {
		t.Errorf("raise with no consumers, forced timing: %v allocs/op, want 0", forcedQuiet)
	}
	if forced != base {
		t.Errorf("timed firing allocates %v/op vs %v/op untimed; timing must be allocation-free", forced, base)
	}
}

// TestTracerHooks drives every in-memory hook site and verifies each
// callback fires with sensible payloads, and that SetTracer(nil) silences
// them again.
func TestTracerHooks(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard})
	ids := hotPathClass(t, db, 1)
	watched := ids[0]
	var fired atomic.Uint64
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name:     "probe",
			EventSrc: "end P::Set(float v)",
			Action: func(rule.ExecContext, event.Detection) error {
				fired.Add(1)
				return nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, watched, r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	var occ, det, sched, ruleFired, begin, commit, abort atomic.Uint64
	var lastOcc obs.OccurrenceInfo
	var lastFire obs.RuleFireInfo
	var mu sync.Mutex
	db.SetTracer(&obs.Tracer{
		OccurrenceRaised: func(i obs.OccurrenceInfo) {
			mu.Lock()
			lastOcc = i
			mu.Unlock()
			occ.Add(1)
		},
		CompositeDetected: func(obs.DetectionInfo) { det.Add(1) },
		RuleScheduled:     func(obs.RuleScheduleInfo) { sched.Add(1) },
		RuleFired: func(i obs.RuleFireInfo) {
			mu.Lock()
			lastFire = i
			mu.Unlock()
			ruleFired.Add(1)
		},
		TxBegin:  func(obs.TxInfo) { begin.Add(1) },
		TxCommit: func(obs.TxInfo) { commit.Add(1) },
		TxAbort:  func(obs.TxInfo) { abort.Add(1) },
	})

	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.Send(tx, watched, "Set", value.Float(2))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	atx := db.Begin()
	if _, err := db.Send(atx, watched, "Set", value.Float(3)); err != nil {
		t.Fatal(err)
	}
	db.Abort(atx)

	if occ.Load() != 2 || det.Load() != 2 || sched.Load() != 2 || ruleFired.Load() != 2 {
		t.Fatalf("hook counts: occ=%d det=%d sched=%d fired=%d, want 2 each",
			occ.Load(), det.Load(), sched.Load(), ruleFired.Load())
	}
	if begin.Load() != 2 || commit.Load() != 1 || abort.Load() != 1 {
		t.Fatalf("tx hooks: begin=%d commit=%d abort=%d, want 2/1/1",
			begin.Load(), commit.Load(), abort.Load())
	}
	mu.Lock()
	if lastOcc.Class != "P" || lastOcc.Method != "Set" || lastOcc.Moment != "end" || lastOcc.Seq == 0 {
		t.Fatalf("OccurrenceInfo = %+v", lastOcc)
	}
	if lastFire.Rule != "probe" || !lastFire.Fired || lastFire.Coupling != "immediate" {
		t.Fatalf("RuleFireInfo = %+v", lastFire)
	}
	mu.Unlock()
	if fired.Load() != 2 {
		t.Fatalf("rule action ran %d times, want 2", fired.Load())
	}

	db.SetTracer(nil)
	before := occ.Load()
	if err := db.Atomically(func(tx *Tx) error {
		_, err := db.Send(tx, watched, "Set", value.Float(4))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if occ.Load() != before {
		t.Fatal("tracer still firing after SetTracer(nil)")
	}
}

// TestTracerStorageHooks drives the persistence hook sites: WAL appends and
// fsyncs on commit, page faults and evictions under a residency ceiling.
func TestTracerStorageHooks(t *testing.T) {
	db := MustOpen(Options{
		Output:             io.Discard,
		Dir:                t.TempDir(),
		SyncOnCommit:       true,
		MaxResidentObjects: 8,
	})
	defer db.Close()
	var appends, fsyncs, faults, evicts atomic.Uint64
	db.SetTracer(&obs.Tracer{
		WALAppend: func(i obs.WALInfo) {
			if i.Bytes <= 0 {
				t.Errorf("WALAppend with %d bytes", i.Bytes)
			}
			appends.Add(1)
		},
		WALFsync:  func(obs.WALInfo) { fsyncs.Add(1) },
		PageFault: func(obs.PageInfo) { faults.Add(1) },
		PageEvict: func(i obs.PageInfo) {
			if i.Evicted <= 0 {
				t.Errorf("PageEvict with %d evicted", i.Evicted)
			}
			evicts.Add(1)
		},
	})

	cls := mkPersistentClass(t, db)
	_ = cls
	const n = 64
	ids := mkPersistentObjects(t, db, n)
	// Touch the whole population twice: the ceiling forces eviction churn
	// and cold touches fault back in.
	for pass := 0; pass < 2; pass++ {
		for _, id := range ids {
			if err := db.Atomically(func(tx *Tx) error {
				_, err := db.GetSys(tx, id, "x")
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if appends.Load() == 0 || fsyncs.Load() == 0 {
		t.Fatalf("WAL hooks: appends=%d fsyncs=%d, want both > 0", appends.Load(), fsyncs.Load())
	}
	if faults.Load() == 0 || evicts.Load() == 0 {
		t.Fatalf("paging hooks: faults=%d evicts=%d, want both > 0", faults.Load(), evicts.Load())
	}
	// The always-timed storage histograms were fed too.
	m := db.Metrics()
	for _, name := range []string{"sentinel_wal_append_ns", "sentinel_wal_fsync_ns", "sentinel_fault_in_ns", "sentinel_tx_commit_ns"} {
		if h, ok := m.Histogram(name); !ok || h.Count == 0 {
			t.Errorf("histogram %s empty after persistent workload", name)
		}
	}
}

// mkPersistentClass registers a minimal persistent reactive class PX.
func mkPersistentClass(t *testing.T, db *Database) string {
	t.Helper()
	if err := db.Exec(`
		class PX reactive persistent {
			attr x float
			event end method Set(v float) { self.x := v }
		}
	`); err != nil {
		t.Fatal(err)
	}
	return "PX"
}

// mkPersistentObjects creates n PX instances in one transaction.
func mkPersistentObjects(t *testing.T, db *Database, n int) []oid.OID {
	t.Helper()
	out := make([]oid.OID, 0, n)
	if err := db.Atomically(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			id, err := db.NewObject(tx, "PX", map[string]value.Value{"x": value.Float(float64(i))})
			if err != nil {
				return err
			}
			out = append(out, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConcurrentMetricsUnderChurn snapshots Metrics and Stats while
// senders hammer the event path; meaningful mainly under -race, and pins
// that snapshots see monotonically advancing counters.
func TestConcurrentMetricsUnderChurn(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, MetricsSampling: 1})
	const pool = 4
	ids := hotPathClass(t, db, pool)
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "churn", EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := db.Subscribe(tx, id, r.ID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, ids[(g+i)%pool], "Set", value.Float(float64(i)))
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// Snapshot continuously until the senders have demonstrably done real
	// work, so the final histogram assertions cannot race a slow start.
	var lastRaised, lastCommits uint64
	for i := 0; lastRaised < 200; i++ {
		m := db.Metrics()
		s := db.Stats()
		raised, ok := m.Counter("sentinel_events_raised_total")
		if !ok {
			t.Fatal("sentinel_events_raised_total missing from snapshot")
		}
		if raised < lastRaised {
			t.Fatalf("counter went backwards: %d -> %d", lastRaised, raised)
		}
		lastRaised = raised
		if h, ok := m.Histogram("sentinel_tx_commit_ns"); ok {
			if h.Count < lastCommits {
				t.Fatalf("commit histogram count went backwards: %d -> %d", lastCommits, h.Count)
			}
			lastCommits = h.Count
		}
		if s.Events.Raised < s.Events.Detections {
			t.Fatalf("raised (%d) < detections (%d)?", s.Events.Raised, s.Events.Detections)
		}
		runtime.Gosched()
	}
	close(done)
	wg.Wait()

	m := db.Metrics()
	if h, ok := m.Histogram("sentinel_rule_firing_ns"); !ok || h.Count == 0 || h.P50 <= 0 || h.P99 < h.P50 {
		t.Fatalf("firing histogram after churn: %+v", h)
	}
	if h, ok := m.Histogram("sentinel_tx_commit_ns"); !ok || h.Count == 0 || h.P95 < h.P50 {
		t.Fatalf("commit histogram after churn: %+v", h)
	}
}

// TestCloseDrainsDetachedFirings pins the Close ordering contract: every
// detached firing dispatched before Close must have executed by the time
// Close returns, even when the background worker is still mid-queue.
func TestCloseDrainsDetachedFirings(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, AsyncDetached: true})
	ids := hotPathClass(t, db, 1)
	var ran atomic.Uint64
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "d", EventSrc: "end P::Set(float v)", Coupling: "detached",
			Action: func(rule.ExecContext, event.Detection) error {
				ran.Add(1)
				return nil
			},
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, ids[0], r.ID())
	}); err != nil {
		t.Fatal(err)
	}

	const sends = 50
	for i := 0; i < sends; i++ {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, ids[0], "Set", value.Float(float64(i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != sends {
		t.Fatalf("detached actions ran %d times after Close, want %d", got, sends)
	}
}

// TestCloseRacesDetachedDispatch races committers that schedule detached
// firings against Close. Run under -race this validates the shutdown
// handshake; the final assertion validates the no-drop guarantee: every
// send whose commit was accepted by the pool executes its detached action
// exactly once (on a worker or in Close's drain), while commits that lost
// the race report ErrDetachedStopped instead of silently dropping work.
func TestCloseRacesDetachedDispatch(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, AsyncDetached: true})
	const pool = 4
	ids := hotPathClass(t, db, pool)
	var ran atomic.Uint64
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "d", EventSrc: "end P::Set(float v)", Coupling: "detached",
			Action: func(rule.ExecContext, event.Detection) error {
				ran.Add(1)
				return nil
			},
		})
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := db.Subscribe(tx, id, r.ID()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var accepted, rejected atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := db.Atomically(func(tx *Tx) error {
					_, err := db.Send(tx, ids[(g+i)%pool], "Set", value.Float(1))
					return err
				})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrDetachedStopped):
					// Lost the race with Close: the write is durable but
					// the firing was refused. Stop sending.
					rejected.Add(1)
					return
				default:
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// Let the senders build a queue, then close under them.
	for ran.Load() < 20 {
		runtime.Gosched()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// Close drains everything the pool accepted, so once the senders are
	// quiescent the counts must match exactly: no accepted firing dropped,
	// no rejected firing executed.
	if ran.Load() != accepted.Load() {
		t.Fatalf("detached actions ran %d times for %d accepted sends (%d rejected with ErrDetachedStopped)",
			ran.Load(), accepted.Load(), rejected.Load())
	}
}

// TestMetricsEndpoint opens a database with a live listener and scrapes
// both formats end to end.
func TestMetricsEndpoint(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, MetricsAddr: "127.0.0.1:0", MetricsSampling: 1})
	defer db.Close()
	addr := db.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with a configured listener")
	}
	ids := hotPathClass(t, db, 1)
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "w", EventSrc: "end P::Set(float v)",
			Condition: func(rule.ExecContext, event.Detection) (bool, error) { return false, nil },
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, ids[0], r.ID())
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, ids[0], "Set", value.Float(float64(i)))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"sentinel_sends_total",
		"sentinel_tx_commit_seconds{quantile=\"0.5\"}",
		"sentinel_rule_firing_seconds_count",
		"sentinel_rules_defined 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if v, ok := vars["sentinel_sends_total"].(float64); !ok || v < 32 {
		t.Fatalf("expvar sentinel_sends_total = %v, want >= 32", vars["sentinel_sends_total"])
	}

	// The snapshot API agrees with the scrape.
	if h, ok := db.Metrics().Histogram("sentinel_tx_commit_ns"); !ok || h.Count < 32 || h.P50 <= 0 {
		t.Fatalf("commit histogram: %+v", h)
	}

	// A second database cannot bind the same port: Open must fail fast and
	// not leak the half-open database.
	if _, err := Open(Options{Output: io.Discard, MetricsAddr: addr}); err == nil {
		t.Fatal("second Open bound an already-used metrics address")
	}
}

// TestSlowRuleLog pins the slow-rule pipeline: a threshold of 1ns marks
// every firing slow, the counter and ring fill, and entries carry timings.
func TestSlowRuleLog(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, SlowRuleThreshold: time.Nanosecond})
	ids := hotPathClass(t, db, 1)
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "laggard", EventSrc: "end P::Set(float v)",
			Action: func(rule.ExecContext, event.Detection) error { return nil },
		})
		if err != nil {
			return err
		}
		return db.Subscribe(tx, ids[0], r.ID())
	}); err != nil {
		t.Fatal(err)
	}
	const sends = 10
	for i := 0; i < sends; i++ {
		if err := db.Atomically(func(tx *Tx) error {
			_, err := db.Send(tx, ids[0], "Set", value.Float(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries, total := db.SlowRules()
	if total != sends || len(entries) != sends {
		t.Fatalf("slow log: %d entries, %d total, want %d/%d", len(entries), total, sends, sends)
	}
	e := entries[0]
	if e.Rule != "laggard" || e.Total <= 0 || !e.Fired {
		t.Fatalf("slow entry: %+v", e)
	}
	if db.Stats().Rules.SlowFirings != sends {
		t.Fatalf("SlowFirings = %d, want %d", db.Stats().Rules.SlowFirings, sends)
	}

	// Per-rule execution stats accumulated via the forced timing.
	r := db.LookupRule("laggard")
	if r == nil {
		t.Fatal("rule lookup failed")
	}
	timed, totalDur, maxDur := r.ExecStats()
	if timed != sends || totalDur <= 0 || maxDur <= 0 {
		t.Fatalf("ExecStats = %d, %v, %v", timed, totalDur, maxDur)
	}
}
