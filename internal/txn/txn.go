// Package txn implements transactions for the object store: strict
// two-phase locking at object (OID) granularity and deadlock detection over
// a waits-for graph.
//
// The paper requires that rules and events be "subject to the same
// transaction semantics" as other objects (§3.4), that rule actions can
// abort the triggering transaction (Fig. 9), and that detached-mode rules
// run in their own transactions. This package is that substrate; the core
// layer decides what to log and when (deferred rules run just before
// Commit, detached rules after it) and keeps its own undo list.
package txn

import (
	"errors"
	"sync"
)

// ID identifies a transaction. IDs are monotonically increasing, so a
// smaller ID means an older transaction.
type ID uint64

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// State is a transaction lifecycle state.
type State uint8

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

// ErrDeadlock is returned from a lock request that would complete a cycle
// in the waits-for graph. The requesting transaction should abort.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrNotActive is returned when operating on a finished transaction.
var ErrNotActive = errors.New("txn: transaction is not active")

// Lockable abstracts the resource identifier locks are taken on (OIDs in
// practice; any comparable uint64-convertible id works).
type Lockable uint64

type lockState struct {
	holders map[ID]Mode
	waiters int
	// cond is allocated by the first waiter and kept when the state is
	// recycled: an uncontended lock never needs one.
	cond *sync.Cond
}

// maxFree bounds each of the Manager's free lists, and the size of a held
// map worth keeping, so a burst of locks or one huge transaction does not
// stay pinned once it is over.
const maxFree = 256

// Manager coordinates transactions and the lock table.
type Manager struct {
	mu     sync.Mutex
	nextID ID
	locks  map[Lockable]*lockState
	active map[ID]*Tx
	// waitsFor[a][b] == true: transaction a is waiting for a lock held by b.
	waitsFor map[ID]map[ID]bool

	// freeLocks holds lock states (with their empty holders maps) that left
	// the lock table, freeHeld the emptied held-lock maps of finished
	// transactions; Lock and Begin take from them before allocating. A
	// state is recycled only once it has neither holders nor waiters, so no
	// goroutine still points at it.
	freeLocks []*lockState
	freeHeld  []map[Lockable]Mode

	// Stats.
	started, committed, aborted, deadlocks, waits uint64
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	return &Manager{
		locks:    make(map[Lockable]*lockState),
		active:   make(map[ID]*Tx),
		waitsFor: make(map[ID]map[ID]bool),
	}
}

// Stats holds manager counters.
type Stats struct {
	Started, Committed, Aborted, Deadlocks, Waits uint64
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{m.started, m.committed, m.aborted, m.deadlocks, m.waits}
}

// Begin starts a new transaction.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	m.started++
	t := &Tx{id: m.nextID, mgr: m, state: Active}
	if n := len(m.freeHeld); n > 0 {
		t.held = m.freeHeld[n-1]
		m.freeHeld = m.freeHeld[:n-1]
	} else {
		t.held = make(map[Lockable]Mode)
	}
	m.active[t.id] = t
	return t
}

// ReadOnly returns a transaction that takes the next ID from the sequence
// Begin draws from but never locks: it is not in the active table, has no
// held-lock map and is never counted as started, committed or aborted, so
// the deadlock detector cannot see it. Lock on it fails with ErrNotActive;
// the caller ends it by dropping it, never with Commit or Abort.
func (m *Manager) ReadOnly() *Tx {
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()
	return &Tx{id: id, mgr: m, state: Active}
}

// ActiveCount returns the number of live transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// Tx is a single transaction.
type Tx struct {
	id    ID
	mgr   *Manager
	state State
	held  map[Lockable]Mode
}

// ID returns the transaction's identifier.
func (t *Tx) ID() ID { return t.id }

// State returns the lifecycle state.
func (t *Tx) State() State { return t.state }

// Active reports whether the transaction can still do work.
func (t *Tx) Active() bool { return t.state == Active }

// Lock acquires the lock on res in the given mode, blocking until granted.
// Lock upgrades (S held, X requested) are supported. It returns ErrDeadlock
// when waiting would create a cycle.
func (t *Tx) Lock(res Lockable, mode Mode) error {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.state != Active || t.held == nil {
		return ErrNotActive
	}
	if cur, ok := t.held[res]; ok && (cur == Exclusive || mode == Shared) {
		return nil // already sufficient
	}
	ls := m.locks[res]
	if ls == nil {
		if n := len(m.freeLocks); n > 0 {
			ls = m.freeLocks[n-1]
			m.freeLocks = m.freeLocks[:n-1]
		} else {
			ls = &lockState{holders: make(map[ID]Mode)}
		}
		m.locks[res] = ls
	}
	for !grantable(ls, t.id, mode) {
		// Record waits-for edges against current conflicting holders.
		blockers := conflicting(ls, t.id, mode)
		if len(blockers) == 0 {
			// Conflict comes from other waiters only; re-check after wakeup.
			blockers = nil
		}
		edges := m.waitsFor[t.id]
		if edges == nil {
			edges = make(map[ID]bool)
			m.waitsFor[t.id] = edges
		}
		for _, b := range blockers {
			edges[b] = true
		}
		if m.cycleFrom(t.id) {
			delete(m.waitsFor, t.id)
			m.deadlocks++
			return ErrDeadlock
		}
		m.waits++
		if ls.cond == nil {
			ls.cond = sync.NewCond(&m.mu)
		}
		ls.waiters++
		ls.cond.Wait()
		ls.waiters--
		delete(m.waitsFor, t.id)
		if t.state != Active {
			return ErrNotActive
		}
	}
	ls.holders[t.id] = maxMode(ls.holders[t.id], mode)
	t.held[res] = ls.holders[t.id]
	return nil
}

func maxMode(a, b Mode) Mode {
	if a == Exclusive || b == Exclusive {
		return Exclusive
	}
	return Shared
}

// grantable reports whether tx may take res in mode given current holders.
func grantable(ls *lockState, tx ID, mode Mode) bool {
	for h, hm := range ls.holders {
		if h == tx {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// conflicting lists the holders blocking tx's request.
func conflicting(ls *lockState, tx ID, mode Mode) []ID {
	var out []ID
	for h, hm := range ls.holders {
		if h == tx {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			out = append(out, h)
		}
	}
	return out
}

// cycleFrom reports whether the waits-for graph has a cycle reachable from
// start. Caller holds m.mu.
func (m *Manager) cycleFrom(start ID) bool {
	seen := make(map[ID]bool)
	var stack []ID
	for b := range m.waitsFor[start] {
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == start {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for b := range m.waitsFor[n] {
			stack = append(stack, b)
		}
	}
	return false
}

// releaseAllLocked drops every lock held by t and wakes waiters. A lock
// state left with neither holders nor waiters goes to the free list, and so
// does t's emptied held map: t is finished, so Lock never reads it again.
// Caller holds m.mu.
func (m *Manager) releaseAllLocked(t *Tx) {
	for res := range t.held {
		ls := m.locks[res]
		if ls == nil {
			continue
		}
		delete(ls.holders, t.id)
		switch {
		case ls.waiters > 0:
			ls.cond.Broadcast()
		case len(ls.holders) == 0:
			delete(m.locks, res)
			if len(m.freeLocks) < maxFree {
				m.freeLocks = append(m.freeLocks, ls)
			}
		}
	}
	if t.held != nil && len(t.held) <= maxFree && len(m.freeHeld) < maxFree {
		clear(t.held)
		m.freeHeld = append(m.freeHeld, t.held)
	}
	t.held = nil
	delete(m.active, t.id)
	delete(m.waitsFor, t.id)
}

// Commit finishes the transaction successfully and releases its locks.
func (t *Tx) Commit() error {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.state != Active {
		return ErrNotActive
	}
	t.state = Committed
	m.committed++
	m.releaseAllLocked(t)
	return nil
}

// Abort ends the transaction unsuccessfully and releases its locks; the
// caller has already rolled back its writes. Aborting a finished
// transaction is a no-op.
func (t *Tx) Abort() {
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if t.state != Active {
		return
	}
	t.state = Aborted
	m.aborted++
	m.releaseAllLocked(t)
}
