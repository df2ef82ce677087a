package core

// Tests for the conflict-aware detached executor pool: option validation,
// the typed ErrDetachedStopped contract after Close, chained dispatch under
// -race across every supported pool size, per-object ordering while Close
// races a committer, and the pooled commit-scratch allocation budget. These
// live in package core because they pin unexported internals (the pool,
// the commit scratch) alongside the public Options surface.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sentinel/internal/event"
	"sentinel/internal/rule"
	"sentinel/internal/value"
)

func TestDetachedWorkersValidate(t *testing.T) {
	if err := (Options{AsyncDetached: true, DetachedWorkers: -1}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "DetachedWorkers") {
		t.Fatalf("negative DetachedWorkers: err = %v, want DetachedWorkers error", err)
	}
	if err := (Options{DetachedWorkers: 2}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "AsyncDetached") {
		t.Fatalf("DetachedWorkers without AsyncDetached: err = %v, want coupling error", err)
	}
	if err := (Options{AsyncDetached: true, DetachedWorkers: 4}).Validate(); err != nil {
		t.Fatalf("valid pool config rejected: %v", err)
	}
	// The default pool size is GOMAXPROCS, resolved before validation.
	o := Options{AsyncDetached: true}.withDefaults()
	if o.DetachedWorkers != runtime.GOMAXPROCS(0) {
		t.Fatalf("default DetachedWorkers = %d, want GOMAXPROCS = %d",
			o.DetachedWorkers, runtime.GOMAXPROCS(0))
	}
}

// TestDetachedStoppedTypedError pins the post-Close contract: a commit that
// schedules detached firings after the pool has stopped reports
// ErrDetachedStopped (the write itself is durable) instead of silently
// running the firings synchronously as the pre-pool implementation did.
func TestDetachedStoppedTypedError(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, AsyncDetached: true})
	ids := hotPathClass(t, db, 1)
	var ran atomic.Int64
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	err := db.Atomically(func(tx *Tx) error {
		_, err := db.Send(tx, ids[0], "Set", value.Float(1))
		return err
	})
	if !errors.Is(err, ErrDetachedStopped) {
		t.Fatalf("post-Close detached commit: err = %v, want ErrDetachedStopped", err)
	}
	// The rejected firing must not have run, and the write must be durable.
	if got := ran.Load(); got != 0 {
		t.Fatalf("detached action ran %d times after Close", got)
	}
	var x value.Value
	if err := db.Atomically(func(tx *Tx) error {
		var err error
		x, err = db.Get(tx, ids[0], "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if f, ok := x.AsFloat(); !ok || f != 1 {
		t.Fatalf("post-Close write not durable: x = %v", x)
	}
}

// TestChainedDetachedDispatch stresses worker-to-worker dispatch: a
// detached action whose own transaction schedules another detached firing,
// at every supported pool size, with several committers racing. Chained
// enqueues come from pool workers, which bypass backpressure — under -race
// and with a queue sized at 64·workers this validates the no-deadlock
// argument in detached.go for each pool shape.
func TestChainedDetachedDispatch(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := MustOpen(Options{
				Output: io.Discard, AsyncDetached: true, DetachedWorkers: workers,
			})
			defer db.Close()
			const pairs = 4
			ids := hotPathClass(t, db, 2*pairs)
			heads, tails := ids[:pairs], ids[pairs:]

			var chained atomic.Int64
			if err := db.Atomically(func(tx *Tx) error {
				first, err := db.CreateRule(tx, RuleSpec{
					Name: "first", EventSrc: "end P::Set(float v)", Coupling: "detached",
					Action: func(ctx rule.ExecContext, det event.Detection) error {
						// Forward to the partner object: fires "second" in
						// this detached transaction.
						for i, h := range heads {
							if det.Last().Source == h {
								_, err := ctx.Send(tails[i], "Set", det.Last().Args[0])
								return err
							}
						}
						return nil
					},
				})
				if err != nil {
					return err
				}
				for _, h := range heads {
					if err := db.Subscribe(tx, h, first.ID()); err != nil {
						return err
					}
				}
				second, err := db.CreateRule(tx, RuleSpec{
					Name: "second", EventSrc: "end P::Set(float v)", Coupling: "detached",
					Action: func(rule.ExecContext, event.Detection) error {
						chained.Add(1)
						return nil
					},
				})
				if err != nil {
					return err
				}
				for _, tl := range tails {
					if err := db.Subscribe(tx, tl, second.ID()); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			const perG, gs = 40, 4
			var wg sync.WaitGroup
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if err := db.Atomically(func(tx *Tx) error {
							_, err := db.Send(tx, heads[(g+i)%pairs], "Set", value.Float(float64(i)))
							return err
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			db.WaitIdle()
			if got := chained.Load(); got != perG*gs {
				t.Fatalf("chained detached rule fired %d times, want %d", got, perG*gs)
			}
			s := db.Stats().Detached
			if s.Workers != workers {
				t.Fatalf("Stats().Detached.Workers = %d, want %d", s.Workers, workers)
			}
			if s.Executed != 2*perG*gs {
				t.Fatalf("Stats().Detached.Executed = %d, want %d", s.Executed, 2*perG*gs)
			}
			if s.Queued != 0 || s.InFlight != 0 {
				t.Fatalf("pool not idle after WaitIdle: queued=%d inflight=%d", s.Queued, s.InFlight)
			}
		})
	}
}

// TestCloseWhileDrainingOrdering races Close against a committer sending an
// increasing sequence to one object, and verifies the per-object ordering
// guarantee survives the shutdown drain: the detached actions observed must
// be exactly the accepted commits' values, in commit order, with nothing
// dropped, duplicated, or reordered.
func TestCloseWhileDrainingOrdering(t *testing.T) {
	db := MustOpen(Options{Output: io.Discard, AsyncDetached: true, DetachedWorkers: 4})
	ids := hotPathClass(t, db, 1)
	var mu sync.Mutex
	var seen []float64
	if err := db.Atomically(func(tx *Tx) error {
		r, err := db.CreateRule(tx, RuleSpec{
			Name: "order", EventSrc: "end P::Set(float v)", Coupling: "detached",
			Action: func(_ rule.ExecContext, det event.Detection) error {
				mu.Lock()
				seen = append(seen, det.Last().Args[0].MustFloat())
				mu.Unlock()
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

	accepted := make(chan int, 1)
	go func() {
		n := 0
		for i := 1; ; i++ {
			err := db.Atomically(func(tx *Tx) error {
				_, err := db.Send(tx, ids[0], "Set", value.Float(float64(i)))
				return err
			})
			if errors.Is(err, ErrDetachedStopped) {
				break
			}
			if err != nil {
				t.Error(err)
				break
			}
			n++
		}
		accepted <- n
	}()

	// Let a backlog build, then close under the committer. Close must drain
	// every accepted firing before returning.
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n >= 10 {
			break
		}
		runtime.Gosched()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	n := <-accepted

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("observed %d firings for %d accepted commits", len(seen), n)
	}
	for i, v := range seen {
		if v != float64(i+1) {
			t.Fatalf("firing %d observed value %v, want %d (per-object order violated)", i, v, i+1)
		}
	}
}

// TestCommitScratchBudget pins the pooled commit scratch: the
// allocation cost of committing extra dirty records must stay within a
// small per-record budget. Before pooling, each record cost a fresh encode
// buffer plus a WAL payload slice on top of the locking bookkeeping; the
// budget below fails if either regresses.
func TestCommitScratchBudget(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 40
	ids := hotPathClass(t, db, n)
	v := value.Float(7)
	commit := func(k int) func() {
		return func() {
			if err := db.Atomically(func(tx *Tx) error {
				for _, id := range ids[:k] {
					if err := db.Set(tx, id, "x", v); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm pools (scratch, WAL frame buffer, lock tables) at full width.
	commit(n)()
	small := testing.AllocsPerRun(20, commit(8))
	large := testing.AllocsPerRun(20, commit(n))
	// Locking and undo bookkeeping legitimately cost ~6.5 allocations per
	// record; the unpooled WAL path added at least two more (a fresh encode
	// buffer and a payload slice per record), so a budget of 8 passes with
	// the pooled scratch and fails if either pool is removed. The framing
	// path itself is pinned at exactly zero in internal/wal.
	perRecord := (large - small) / (n - 8)
	if perRecord > 8 {
		t.Fatalf("commit allocations grew %.2f per record (small=%.0f large=%.0f); pooled budget is 8",
			perRecord, small, large)
	}
}
