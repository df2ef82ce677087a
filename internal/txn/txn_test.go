package txn

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBasicLifecycle(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if !tx.Active() || tx.State() != Active {
		t.Fatal("fresh tx not active")
	}
	if err := tx.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Fatal("not committed")
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
	st := m.Stats()
	if st.Started != 1 || st.Committed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSharedLocksCompatible(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	// A second shared lock must not block.
	done := make(chan error, 1)
	go func() { done <- b.Lock(1, Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("shared lock blocked on shared lock")
	}
	a.Abort()
	b.Abort()
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(1, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := b.Lock(1, Exclusive); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("X lock granted while held")
	case <-time.After(50 * time.Millisecond):
	}
	a.Commit()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("lock not granted after release")
	}
	b.Commit()
}

func TestLockUpgrade(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	if err := a.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(1, Exclusive); err != nil {
		t.Fatal(err)
	}
	// Re-request of weaker mode is a no-op.
	if err := a.Lock(1, Shared); err != nil {
		t.Fatal(err)
	}
	a.Abort()
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(2, Exclusive); err != nil {
		t.Fatal(err)
	}
	// a waits for 2, b tries 1 → cycle. Exactly one request must fail with
	// ErrDeadlock.
	errs := make(chan error, 2)
	go func() {
		err := a.Lock(2, Exclusive)
		if errors.Is(err, ErrDeadlock) {
			a.Abort()
		}
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // let a block first
	go func() {
		err := b.Lock(1, Exclusive)
		if errors.Is(err, ErrDeadlock) {
			b.Abort()
		}
		errs <- err
	}()

	var deadlocks, oks int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, ErrDeadlock):
				deadlocks++
			case err == nil:
				oks++
			case errors.Is(err, ErrNotActive):
				// The survivor may observe the victim's abort wake-up; any
				// terminal outcome other than hanging is acceptable here.
				oks++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock not detected (requests hung)")
		}
	}
	if deadlocks == 0 {
		t.Fatal("no request reported ErrDeadlock")
	}
	a.Abort()
	b.Abort()
	if m.Stats().Deadlocks == 0 {
		t.Fatal("deadlock counter not bumped")
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two transactions hold S and both try to upgrade: a classic cycle.
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	a.Lock(1, Shared)
	b.Lock(1, Shared)
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(1, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- b.Lock(1, Exclusive) }()

	gotDeadlock := false
	for i := 0; i < 1; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				gotDeadlock = true
				// Abort the victim so the other side can proceed.
				a.Abort()
				b.Abort()
			}
		case <-time.After(2 * time.Second):
			t.Fatal("upgrade deadlock hung")
		}
	}
	if !gotDeadlock {
		// One upgrade may have succeeded if timing allowed; drain the other.
		select {
		case err := <-errs:
			if !errors.Is(err, ErrDeadlock) && err != nil && !errors.Is(err, ErrNotActive) {
				t.Fatalf("unexpected: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("second upgrade hung")
		}
	}
	a.Abort()
	b.Abort()
}

func TestLockAfterFinishFails(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Lock(1, Shared); !errors.Is(err, ErrNotActive) {
		t.Fatalf("lock after commit: %v", err)
	}
	tx.Abort() // a no-op on a finished transaction
	if tx.State() != Committed || m.Stats().Aborted != 0 {
		t.Fatalf("abort after commit: state %v, stats %+v", tx.State(), m.Stats())
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	// A bank-transfer stress test: concurrent transactions move amounts
	// between 10 accounts under 2PL; deadlock victims retry. The total
	// must be conserved.
	m := NewManager()
	balances := make([]int, 10)
	for i := range balances {
		balances[i] = 100
	}
	var bmu sync.Mutex // balances themselves (the lock table guards logical access)

	transfer := func(from, to, amt int) bool {
		tx := m.Begin()
		// Lock in request order to create deadlock opportunities.
		if err := tx.Lock(Lockable(from), Exclusive); err != nil {
			tx.Abort()
			return false
		}
		if err := tx.Lock(Lockable(to), Exclusive); err != nil {
			tx.Abort()
			return false
		}
		// A transfer aborts only before it touches the balances, so it
		// has nothing to roll back.
		bmu.Lock()
		balances[from] -= amt
		balances[to] += amt
		bmu.Unlock()
		return tx.Commit() == nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				from := (g + i) % 10
				to := (g*3 + i*7) % 10
				if from == to {
					continue
				}
				for try := 0; try < 20; try++ {
					if transfer(from, to, 1) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, b := range balances {
		total += b
	}
	if total != 1000 {
		t.Fatalf("total = %d, want 1000 (balances %v)", total, balances)
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("%d transactions leaked", m.ActiveCount())
	}
}

// recycleLockStates runs n uncontended transactions over res, so the lock
// states and held maps the next requests get come from the manager's free
// lists (with no cond allocated: nobody ever waited on them).
func recycleLockStates(t *testing.T, m *Manager, n int, res ...Lockable) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := m.Begin()
		for _, r := range res {
			if err := tx.Lock(r, Exclusive); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.locks) != 0 {
		t.Fatalf("%d lock states left in the table after every holder finished", len(m.locks))
	}
	if len(m.freeLocks) == 0 {
		t.Fatal("no lock state was recycled")
	}
}

// TestRecycledLockStateWakesWaiter: a contended lock on a recycled lock
// state allocates its cond when the first waiter arrives, and the holder's
// release wakes that waiter. Repeated so the cond itself is reused too.
func TestRecycledLockStateWakesWaiter(t *testing.T) {
	m := NewManager()
	recycleLockStates(t, m, 100, 1, 2, 3)
	for round := 0; round < 50; round++ {
		holder := m.Begin()
		if err := holder.Lock(1, Exclusive); err != nil {
			t.Fatal(err)
		}
		waiter := m.Begin()
		got := make(chan error, 1)
		go func() { got <- waiter.Lock(1, Exclusive) }()
		for {
			m.mu.Lock()
			waiting := m.locks[1].waiters
			m.mu.Unlock()
			if waiting == 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case err := <-got:
			t.Fatalf("waiter got the lock (%v) while the holder had it", err)
		default:
		}
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("round %d: waiter: %v", round, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: the waiter on a recycled lock state was never woken", round)
		}
		if err := waiter.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.locks) != 0 {
		t.Fatalf("%d lock states left in the table", len(m.locks))
	}
}

// TestRecycledLockStateDeadlock: a two-party cycle over recycled lock
// states still returns ErrDeadlock to one party, and the survivor gets its
// lock once the victim aborts.
func TestRecycledLockStateDeadlock(t *testing.T) {
	m := NewManager()
	recycleLockStates(t, m, 100, 1, 2)
	for round := 0; round < 20; round++ {
		a, b := m.Begin(), m.Begin()
		if err := a.Lock(1, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := b.Lock(2, Exclusive); err != nil {
			t.Fatal(err)
		}
		aErr := make(chan error, 1)
		go func() { aErr <- a.Lock(2, Exclusive) }()
		for {
			m.mu.Lock()
			waiting := m.locks[2].waiters
			m.mu.Unlock()
			if waiting == 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if err := b.Lock(1, Exclusive); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("round %d: closing the cycle returned %v, want ErrDeadlock", round, err)
		}
		b.Abort()
		select {
		case err := <-aErr:
			if err != nil {
				t.Fatalf("round %d: survivor: %v", round, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: the survivor was never woken after the victim aborted", round)
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Deadlocks != 20 {
		t.Fatalf("Deadlocks = %d, want 20", st.Deadlocks)
	}
}

// TestReadOnly: a read-only transaction draws its ID from the same sequence
// as Begin, never enters the active table or the counters, refuses every
// lock, and — should a caller end it anyway — leaves no nil held map on the
// free list for the next Begin to inherit.
func TestReadOnly(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	ro := m.ReadOnly()
	b := m.Begin()
	if !(a.ID() < ro.ID() && ro.ID() < b.ID()) {
		t.Fatalf("IDs %d, %d, %d are not one increasing sequence", a.ID(), ro.ID(), b.ID())
	}
	if !ro.Active() {
		t.Fatal("a fresh read-only transaction is not active")
	}
	if n := m.ActiveCount(); n != 2 {
		t.Fatalf("ActiveCount = %d, want 2 (the read-only transaction is not registered)", n)
	}
	if err := ro.Lock(1, Shared); !errors.Is(err, ErrNotActive) {
		t.Fatalf("Lock on a read-only transaction: %v, want ErrNotActive", err)
	}
	if st := m.Stats(); st.Started != 2 {
		t.Fatalf("stats = %+v, want 2 started", st)
	}
	a.Abort()
	b.Abort()
	_ = ro.Commit()
	c := m.Begin()
	if err := c.Lock(1, Exclusive); err != nil {
		t.Fatalf("a transaction begun after a read-only one ended: %v", err)
	}
	c.Abort()
}
