package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/oid"
)

// TestCommitBatchSerial checks the uncontended path: one committer leads
// immediately, its records land in order, and a group of exactly 1 is
// observed.
func TestCommitBatchSerial(t *testing.T) {
	l, _ := openTemp(t)
	var groups []int
	l.SetGroupHook(func(n int) { groups = append(groups, n) })
	for tx := uint64(1); tx <= 3; tx++ {
		batch := []Record{
			{Type: RecUpdate, Tx: tx, OID: oid.OID(tx), Data: []byte("v")},
			{Type: RecCommit, Tx: tx},
		}
		if err := l.CommitBatch(batch, true); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l)
	if len(got) != 6 {
		t.Fatalf("replayed %d records, want 6", len(got))
	}
	for i, n := range groups {
		if n != 1 {
			t.Errorf("group %d coalesced %d commits, want 1 (serial committer)", i, n)
		}
	}
}

// TestCommitBatchConcurrent drives many goroutines through CommitBatch and
// verifies (a) every transaction's records replay contiguously with its
// commit record last — frames from different groups never interleave — and
// (b) at least one flush coalesced more than one commit.
func TestCommitBatchConcurrent(t *testing.T) {
	l, _ := openTemp(t)
	var maxGroup atomic.Int64
	var flushes atomic.Int64
	l.SetGroupHook(func(n int) {
		flushes.Add(1)
		for {
			cur := maxGroup.Load()
			if int64(n) <= cur || maxGroup.CompareAndSwap(cur, int64(n)) {
				break
			}
		}
	})

	const goroutines = 8
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tx := uint64(g*perG + i + 1)
				batch := []Record{
					{Type: RecUpdate, Tx: tx, OID: oid.OID(2 * tx), Data: []byte(fmt.Sprintf("g%d-%d", g, i))},
					{Type: RecUpdate, Tx: tx, OID: oid.OID(2*tx + 1), Data: []byte("second")},
					{Type: RecCommit, Tx: tx},
				}
				if err := l.CommitBatch(batch, true); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	got := collect(t, l)
	if len(got) != goroutines*perG*3 {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*perG*3)
	}
	// Contiguity: scanning in order, each transaction's records must appear
	// as an unbroken run ending in its commit record.
	var curTx uint64
	var run int
	for i, r := range got {
		if curTx == 0 {
			curTx, run = r.Tx, 0
		}
		if r.Tx != curTx {
			t.Fatalf("record %d: tx %d interleaved into tx %d's run", i, r.Tx, curTx)
		}
		run++
		if r.Type == RecCommit {
			if run != 3 {
				t.Fatalf("tx %d committed after %d records, want 3", curTx, run)
			}
			curTx = 0
		}
	}
	if curTx != 0 {
		t.Fatalf("log ends inside tx %d's run", curTx)
	}
	if flushes.Load() == int64(goroutines*perG) && maxGroup.Load() == 1 {
		t.Log("no coalescing observed (legal but unexpected under concurrency)")
	}
}

// TestCommitBatchNoSyncSkipsFsync checks that a group with no durable
// request does not fsync (the caller opted into group-commit durability
// semantics: durable only up to the next sync/checkpoint).
func TestCommitBatchNoSyncSkipsFsync(t *testing.T) {
	l, _ := openTemp(t)
	var fsyncs atomic.Int64
	l.SetHooks(nil, func(time.Duration) { fsyncs.Add(1) })
	if err := l.CommitBatch([]Record{{Type: RecCommit, Tx: 1}}, false); err != nil {
		t.Fatal(err)
	}
	if n := fsyncs.Load(); n != 0 {
		t.Fatalf("non-durable CommitBatch fsynced %d times, want 0", n)
	}
	if err := l.CommitBatch([]Record{{Type: RecCommit, Tx: 2}}, true); err != nil {
		t.Fatal(err)
	}
	if n := fsyncs.Load(); n != 1 {
		t.Fatalf("durable CommitBatch fsynced %d times, want 1", n)
	}
}

// TestAwaitFlushedTicketIsFree: waiting for a position that is already
// flushed — the zero ticket, or Last() after a durable commit — returns at
// once without another write or fsync, which is what makes a read-only
// commit's wait free on an idle log.
func TestAwaitFlushedTicketIsFree(t *testing.T) {
	l, _ := openTemp(t)
	var fsyncs atomic.Int64
	l.SetHooks(nil, func(time.Duration) { fsyncs.Add(1) })
	if err := l.Await(l.Last()); err != nil {
		t.Fatal(err)
	}
	if err := l.CommitBatch([]Record{{Type: RecCommit, Tx: 1}}, true); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	for _, tk := range []Ticket{0, l.Last()} {
		if err := l.Await(tk); err != nil {
			t.Fatal(err)
		}
	}
	if n := fsyncs.Load(); n != 1 || l.Size() != size {
		t.Fatalf("awaiting flushed tickets: %d fsyncs (want 1), %d bytes written", n, l.Size()-size)
	}
}

// TestFlushHookSeesGroupInLogOrder: batches enqueued before anyone awaits
// form one group; its leader hands the payloads to the flush hook in
// enqueue order, once, and before any member's Await returns. A nil
// payload (a CommitBatch caller's) is passed through as nil.
func TestFlushHookSeesGroupInLogOrder(t *testing.T) {
	l, _ := openTemp(t)
	var calls [][]any
	l.SetFlushHook(func(ps []any) { calls = append(calls, append([]any(nil), ps...)) })
	var tickets []Ticket
	for tx := uint64(1); tx <= 3; tx++ {
		tk, err := l.Enqueue(commitRecs(tx), true, int(tx))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if len(calls) != 0 {
		t.Fatalf("the hook ran before anyone awaited: %v", calls)
	}
	if err := l.Await(tickets[1]); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || len(calls[0]) != 3 || calls[0][0] != 1 || calls[0][1] != 2 || calls[0][2] != 3 {
		t.Fatalf("flush hook calls %v, want one call with [1 2 3]", calls)
	}
	if err := l.Await(tickets[2]); err != nil || len(calls) != 1 {
		t.Fatalf("awaiting a flushed member: %v, %d hook calls", err, len(calls))
	}
	if err := l.CommitBatch(commitRecs(4), true); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || len(calls[1]) != 1 || calls[1][0] != nil {
		t.Fatalf("flush hook calls %v, want a second call with [nil]", calls)
	}
}
