package core

// detached.go implements the conflict-aware executor pool for
// detached-coupling rules (DESIGN.md §4e). Options.DetachedWorkers
// goroutines pull firings from a shared bounded queue; a lightweight
// conflict scheduler — keyed on each firing's subscriber OID plus the
// write-set OIDs recorded when the firing was scheduled — lets firings
// over disjoint objects run fully in parallel while firings that share a
// key retain their enqueue order, which is the conflict-resolution
// strategy order their committing transactions established.
//
// Ordering guarantee: for any conflict key k, the firings carrying k
// execute in enqueue order. Enqueues happen at commit time on the
// committing goroutine, so per-object execution order equals the serial
// (synchronous-detached) order; firings with disjoint keys carry no
// ordering promise, exactly like independent transactions.
//
// No-deadlock argument for the bounded queue under chained dispatch:
//
//  1. The conflict graph is acyclic: every dependency edge points from an
//     earlier-enqueued task to a later-enqueued one (tails chaining), so
//     waiting tasks always have a finished-or-running predecessor chain.
//  2. If queued > 0 and nothing is in flight, the earliest queued task's
//     predecessors have all finished, so its wait count is zero and it is
//     on the ready list — a worker can always make progress.
//  3. Workers never block on backpressure: a chained dispatch (a detached
//     rule whose own commit schedules more detached work) bypasses the
//     capacity wait, so the worker executing the parent cannot deadlock
//     against the queue it is supposed to drain. Chained enqueues happen
//     while the parent is still in flight (pending > 0), so quiescence is
//     never declared under them.
//  4. External committers blocked on a full queue are woken by every
//     dequeue (room) and by stop, which fails them with
//     ErrDetachedStopped instead of leaving them parked.
//
// The queue is therefore bounded by capacity plus one in-flight batch per
// concurrently committing transaction (a batch is admitted atomically once
// any room exists, so a committed transaction's firings are never split
// across the Close boundary).

import (
	"errors"
	"sync"

	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
)

// ErrDetachedStopped is returned by Commit when a transaction's detached
// firings could not be handed to the executor pool because Close (or a
// concurrent Close) already stopped it. The transaction itself committed
// durably — only its detached firings were dropped. Before the pool, a
// dispatch racing shutdown silently fell back to synchronous execution;
// the typed error makes the dropped work visible instead.
var ErrDetachedStopped = errors.New("core: detached executor stopped (database closing); detached firings not dispatched")

// detachedQueuePerWorker sizes the bounded firing queue: capacity is
// DetachedWorkers × this, replacing the old fixed 1024-slot channel with
// one derived from the configured parallelism.
const detachedQueuePerWorker = 64

// detachedTask is one queued firing plus its conflict-scheduling state.
type detachedTask struct {
	f    rule.Firing
	keys []oid.OID // deduped conflict keys: subscriber ∪ write set

	waits int             // unfinished predecessors (shared keys)
	succs []*detachedTask // tasks enqueued behind this one on some key
	next  *detachedTask   // intrusive ready-list link
}

// detachedPool is the conflict-aware worker pool. All scheduling state is
// guarded by mu; firing execution happens outside it.
type detachedPool struct {
	db       *Database
	workers  int
	capacity int

	mu   sync.Mutex
	work *sync.Cond // a ready task appeared, or stop
	idle *sync.Cond // pending drained to zero
	room *sync.Cond // queue space freed, or stop

	// tails maps each conflict key to the most recently enqueued task
	// carrying it; a new task with a shared key chains behind that tail.
	tails map[oid.OID]*detachedTask

	readyHead, readyTail *detachedTask

	queued   int // enqueued, not yet picked up by a worker
	inflight int // executing right now
	pending  int // queued + inflight: the quiescence counter
	quitting bool
	abandon  bool // CloseAbrupt: drop queued work instead of draining

	done sync.WaitGroup
}

// newDetachedPool starts the workers. Capacity derives from the worker
// count (detachedQueuePerWorker per worker).
func newDetachedPool(db *Database, workers int) *detachedPool {
	p := &detachedPool{
		db:       db,
		workers:  workers,
		capacity: workers * detachedQueuePerWorker,
		tails:    make(map[oid.OID]*detachedTask),
	}
	p.work = sync.NewCond(&p.mu)
	p.idle = sync.NewCond(&p.mu)
	p.room = sync.NewCond(&p.mu)
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// appendConflictKey adds k to keys unless it is Nil or already present.
// Deduping a task's own keys matters for correctness: a duplicate key
// would chain the task behind itself. Key lists are small (subscriber +
// a commit's write set), so the linear scan beats a map.
func appendConflictKey(keys []oid.OID, k oid.OID) []oid.OID {
	if k == oid.Nil {
		return keys
	}
	for _, e := range keys {
		if e == k {
			return keys
		}
	}
	return append(keys, k)
}

// enqueue admits an ordered batch of firings. Non-worker callers block
// while the queue is at capacity (backpressure); callers that are
// themselves detached workers bypass the wait — see the no-deadlock
// argument above. The whole batch is admitted atomically once there is
// any room, so a batch is all-or-nothing with respect to stop.
func (p *detachedPool) enqueue(batch []rule.Firing, fromWorker bool) error {
	if len(batch) == 0 {
		return nil
	}
	m := p.db.met
	p.mu.Lock()
	if !fromWorker && p.queued >= p.capacity && !p.quitting {
		m.detachedBackpressure.Inc()
		for p.queued >= p.capacity && !p.quitting {
			p.room.Wait()
		}
	}
	if p.quitting && (!fromWorker || p.abandon) {
		p.mu.Unlock()
		return ErrDetachedStopped
	}
	for i := range batch {
		t := &detachedTask{f: batch[i]}
		t.keys = appendConflictKey(t.keys, batch[i].Subscriber)
		for _, w := range batch[i].WriteSet {
			t.keys = appendConflictKey(t.keys, w)
		}
		for _, k := range t.keys {
			if prev := p.tails[k]; prev != nil {
				prev.succs = append(prev.succs, t)
				t.waits++
			}
			p.tails[k] = t
		}
		p.queued++
		p.pending++
		if t.waits == 0 {
			p.pushReady(t)
			p.work.Signal()
		} else {
			m.detachedStalls.Inc()
		}
	}
	p.mu.Unlock()
	return nil
}

func (p *detachedPool) pushReady(t *detachedTask) {
	t.next = nil
	if p.readyTail == nil {
		p.readyHead, p.readyTail = t, t
		return
	}
	p.readyTail.next = t
	p.readyTail = t
}

func (p *detachedPool) popReady() *detachedTask {
	t := p.readyHead
	p.readyHead = t.next
	if p.readyHead == nil {
		p.readyTail = nil
	}
	t.next = nil
	return t
}

// worker executes ready tasks until stop. On a draining stop every worker
// parks until global quiescence (chained dispatches can refill the ready
// list at any point before then); on an abandoning stop it exits as soon
// as the ready list is empty.
func (p *detachedPool) worker(idx int) {
	defer p.done.Done()
	var perWorker *obs.Counter
	if m := p.db.met; idx < len(m.detachedWorkerFirings) {
		perWorker = m.detachedWorkerFirings[idx]
	}
	p.mu.Lock()
	for {
		for p.readyHead == nil {
			if p.quitting && (p.abandon || p.pending == 0) {
				p.mu.Unlock()
				return
			}
			p.work.Wait()
		}
		t := p.popReady()
		p.queued--
		p.inflight++
		p.room.Signal()
		p.mu.Unlock()

		p.db.execDetached(&t.f, true)
		p.db.met.detachedFirings.Inc()
		if perWorker != nil {
			perWorker.Inc()
		}

		p.mu.Lock()
		p.finishLocked(t)
	}
}

// finishLocked retires a completed task: releases its conflict keys,
// unblocks successors, and signals quiescence when the last pending task
// drains. Successor propagation is skipped after abandon — the queued
// work was already dropped.
func (p *detachedPool) finishLocked(t *detachedTask) {
	p.inflight--
	p.pending--
	if !p.abandon {
		for _, k := range t.keys {
			if p.tails[k] == t {
				delete(p.tails, k)
			}
		}
		for _, s := range t.succs {
			s.waits--
			if s.waits == 0 {
				p.pushReady(s)
				p.work.Signal()
			}
		}
	}
	if p.pending == 0 {
		p.idle.Broadcast()
		if p.quitting {
			p.work.Broadcast() // wake parked workers so they can exit
		}
	}
}

// waitIdle blocks until every dispatched firing — including chained ones,
// which enqueue while their parent is still in flight — has finished.
func (p *detachedPool) waitIdle() {
	p.mu.Lock()
	for p.pending > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// stop retires the pool. With drain set (Close) the workers first finish
// everything pending, chained work included; without it (CloseAbrupt, the
// crash simulation) queued-but-unstarted work is dropped and only firings
// already executing run to completion. Idempotent; the drain/abandon mode
// of the first call wins.
func (p *detachedPool) stop(drain bool) {
	p.mu.Lock()
	if !p.quitting {
		p.quitting = true
		if !drain {
			p.abandon = true
			p.pending -= p.queued
			p.queued = 0
			p.readyHead, p.readyTail = nil, nil
			p.tails = make(map[oid.OID]*detachedTask)
			if p.pending == 0 {
				p.idle.Broadcast()
			}
		}
		p.work.Broadcast()
		p.room.Broadcast()
	}
	p.mu.Unlock()
	p.done.Wait()
}

// snapshot reads the pool gauges for stats and the metrics endpoint.
func (p *detachedPool) snapshot() (queued, inflight int) {
	p.mu.Lock()
	queued, inflight = p.queued, p.inflight
	p.mu.Unlock()
	return queued, inflight
}

// execDetached runs one detached firing in its own transaction. fromWorker
// marks transactions begun by a pool worker: chained dispatches from their
// commits bypass queue backpressure (point 3 above).
func (db *Database) execDetached(f *rule.Firing, fromWorker bool) {
	dtx := db.Begin()
	dtx.fromDetachedWorker = fromWorker
	if err := db.runDetachedFiring(dtx, f, 1); err != nil {
		db.Abort(dtx)
		return
	}
	// Commit rolls back on its own failures; a chained dispatch rejected
	// by an abandoning stop surfaces as ErrDetachedStopped and is dropped
	// with the rest of the queue.
	_ = db.Commit(dtx)
}

// WaitIdle blocks until every asynchronously dispatched detached rule has
// finished, including detached work those rules' own commits enqueued (a
// chained firing enqueues while its parent is still in flight, so the
// pool's pending count only reaches zero at true quiescence). A no-op
// when AsyncDetached is off.
func (db *Database) WaitIdle() {
	if db.detached != nil {
		db.detached.waitIdle()
	}
}

// stopDetachedPool retires the executor pool if one was started.
func (db *Database) stopDetachedPool(drain bool) {
	if db.detached != nil {
		db.detached.stop(drain)
	}
}
