package wal

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"sentinel/internal/oid"
)

func openTemp(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	l, _ := openTemp(t)
	recs := []Record{
		{Type: RecUpdate, Tx: 1, OID: oid.OID(10), Data: []byte("hello")},
		{Type: RecUpdate, Tx: 1, OID: oid.OID(11), Data: nil},
		{Type: RecDelete, Tx: 1, OID: oid.OID(12)},
		{Type: RecCommit, Tx: 1},
		{Type: RecAbort, Tx: 2},
		{Type: RecCheckpoint},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Type != r.Type || g.Tx != r.Tx || g.OID != r.OID || string(g.Data) != string(r.Data) {
			t.Errorf("record %d: got %+v, want %+v", i, g, r)
		}
	}
}

func TestAppendBatch(t *testing.T) {
	l, _ := openTemp(t)
	batch := []Record{
		{Type: RecUpdate, Tx: 5, OID: 1, Data: []byte("a")},
		{Type: RecUpdate, Tx: 5, OID: 2, Data: []byte("bb")},
		{Type: RecCommit, Tx: 5},
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != 3 || got[2].Type != RecCommit {
		t.Fatalf("batch replay = %+v", got)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	l, path := openTemp(t)
	if err := l.Append(Record{Type: RecUpdate, Tx: 1, OID: 1, Data: []byte("good")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecCommit, Tx: 1}); err != nil {
		t.Fatal(err)
	}
	goodSize := l.Size()
	if err := l.Append(Record{Type: RecUpdate, Tx: 2, OID: 2, Data: []byte("torn")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Truncate mid-record to simulate a crash during append.
	if err := os.Truncate(path, goodSize+5); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
	// The torn tail was dropped; appends continue from the valid prefix.
	if l2.Size() != goodSize {
		t.Fatalf("size after replay = %d, want %d", l2.Size(), goodSize)
	}
	if err := l2.Append(Record{Type: RecCommit, Tx: 3}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != 3 {
		t.Fatalf("post-recovery append: %d records", len(got))
	}
}

func TestCorruptCRCStopsReplay(t *testing.T) {
	l, path := openTemp(t)
	l.Append(Record{Type: RecUpdate, Tx: 1, OID: 1, Data: []byte("aaaa")})
	l.Append(Record{Type: RecUpdate, Tx: 1, OID: 2, Data: []byte("bbbb")})
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the second record's payload.
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 1 || got[0].OID != 1 {
		t.Fatalf("replay past corruption: %+v", got)
	}
}

func TestTruncate(t *testing.T) {
	l, _ := openTemp(t)
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: RecUpdate, Tx: uint64(i), OID: oid.OID(i), Data: make([]byte, 100)})
	}
	before := l.Size()
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("truncate did not shrink the log: %d -> %d", before, l.Size())
	}
	got := collect(t, l)
	if len(got) != 1 || got[0].Type != RecCheckpoint {
		t.Fatalf("after truncate: %+v", got)
	}
	// The log is still usable.
	if err := l.Append(Record{Type: RecCommit, Tx: 9}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("append after truncate: %+v", got)
	}
}

func TestEmptyLog(t *testing.T) {
	l, _ := openTemp(t)
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("empty log replayed %d records", len(got))
	}
}

func TestLargeRecord(t *testing.T) {
	l, _ := openTemp(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := l.Append(Record{Type: RecUpdate, Tx: 1, OID: 1, Data: big}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != 1 || len(got[0].Data) != len(big) {
		t.Fatal("large record roundtrip failed")
	}
	for i := range big {
		if got[0].Data[i] != big[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

func TestConcurrentAppendsDoNotInterleave(t *testing.T) {
	l, _ := openTemp(t)
	const workers, per = 8, 200
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				err := l.AppendBatch([]Record{
					{Type: RecUpdate, Tx: uint64(w), OID: oid.OID(i + 1), Data: []byte{byte(w), byte(i)}},
					{Type: RecCommit, Tx: uint64(w)},
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every frame must replay intact: correct count, no torn records.
	recs := collect(t, l)
	if len(recs) != workers*per*2 {
		t.Fatalf("replayed %d records, want %d", len(recs), workers*per*2)
	}
	for _, r := range recs {
		if r.Type == RecUpdate && len(r.Data) != 2 {
			t.Fatalf("corrupt record: %+v", r)
		}
	}
}

// TestAwaitLastCoversQueuedBatches: concurrent committers each enqueue a
// batch and wait on Last() rather than on their own ticket. Whatever ticket
// Last() names, every batch enqueued before it — the waiter's own included
// — has been through the flush hook when Await returns, and every record
// replays. Tickets stay ordered across a Truncate.
func TestAwaitLastCoversQueuedBatches(t *testing.T) {
	l, _ := openTemp(t)
	l.SetFlushHook(func(ps []any) {
		for _, p := range ps {
			p.(*atomic.Bool).Store(true)
		}
	})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				flushed := new(atomic.Bool)
				if _, err := l.Enqueue([]Record{
					{Type: RecUpdate, Tx: uint64(w), OID: oid.OID(i + 1), Data: []byte("x")},
					{Type: RecCommit, Tx: uint64(w)},
				}, true, flushed); err != nil {
					t.Error(err)
					return
				}
				if err := l.Await(l.Last()); err != nil {
					t.Error(err)
					return
				}
				if !flushed.Load() {
					t.Errorf("worker %d: Await(Last()) returned before its own batch was flushed", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(collect(t, l)); got != workers*per*2 {
		t.Fatalf("records = %d, want %d", got, workers*per*2)
	}
	before := l.Last()
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	tk, err := l.Enqueue([]Record{{Type: RecCommit, Tx: 1}}, true, new(atomic.Bool))
	if err != nil {
		t.Fatal(err)
	}
	if tk <= before {
		t.Fatalf("ticket %d after a truncate does not follow %d", tk, before)
	}
	if err := l.Await(tk); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBatchZeroAllocs pins the pooled frame buffer: once warm,
// AppendBatch frames an entire commit batch without allocating. This guards
// the per-record payload allocation the old implementation made (one
// appendPayload(nil, ...) slice per record per commit).
func TestAppendBatchZeroAllocs(t *testing.T) {
	l, _ := openTemp(t)
	batch := []Record{
		{Type: RecUpdate, Tx: 9, OID: 1, Data: make([]byte, 64)},
		{Type: RecUpdate, Tx: 9, OID: 2, Data: make([]byte, 256)},
		{Type: RecDelete, Tx: 9, OID: 3},
		{Type: RecCommit, Tx: 9},
	}
	// Warm the buffer so the measured runs reuse it at full capacity.
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBatch allocated %.1f times per batch, want 0", allocs)
	}
}

// TestAppendBatchRetentionCap verifies one oversized batch does not pin its
// peak buffer forever: after framing well past maxBatchBufRetain the
// retained buffer is dropped, and the log still appends correctly.
func TestAppendBatchRetentionCap(t *testing.T) {
	l, _ := openTemp(t)
	huge := []Record{{Type: RecUpdate, Tx: 1, OID: 1, Data: make([]byte, maxBatchBufRetain+1)}}
	if err := l.AppendBatch(huge); err != nil {
		t.Fatal(err)
	}
	if l.buf != nil {
		t.Fatalf("retained %d-byte buffer past the %d cap", cap(l.buf), maxBatchBufRetain)
	}
	small := []Record{{Type: RecUpdate, Tx: 2, OID: 2, Data: []byte("x")}, {Type: RecCommit, Tx: 2}}
	if err := l.AppendBatch(small); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}
