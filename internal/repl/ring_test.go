package repl

import (
	"fmt"
	"io"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/wire"
)

// nopSession is a FollowerSession that accepts every frame.
type nopSession struct{}

func (nopSession) SessionID() uint64                       { return 1 }
func (nopSession) Send(byte, []byte, <-chan struct{}) bool { return true }
func (nopSession) TrySend(byte, []byte) bool               { return true }

// newRingPrimary returns a primary over an in-memory database whose ring
// holds n one-batch entries, with a follower caught up to the last.
func newRingPrimary(tb testing.TB, n int) (*Primary, *followerState) {
	db, err := core.Open(core.Options{Output: io.Discard})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	body := wire.AppendReplBody(nil, wire.ReplBatch{LSN: 1})
	p := NewPrimary(db, PrimaryOptions{RingBytes: n * len(body)})
	tb.Cleanup(p.Close)
	for lsn := uint64(1); lsn <= uint64(n); lsn++ {
		p.ship(core.ReplBatch{LSN: lsn})
	}
	if _, _, _, err := p.AddFollower(nopSession{}, uint64(n), uint64(n), p.Epoch()); err != nil {
		tb.Fatal(err)
	}
	return p, p.followers[1]
}

// TestRingOffsetLookup: the ring finds every retained LSN by offset, keeps
// at most RingBytes after trimming, compacts its backing slice, and sends a
// follower behind the floor to base state.
func TestRingOffsetLookup(t *testing.T) {
	const n = 100
	p, f := newRingPrimary(t, n)
	const last = 5 * n
	for lsn := uint64(n + 1); lsn <= last; lsn++ {
		p.ship(core.ReplBatch{LSN: lsn})
	}
	live := len(p.ring) - p.head
	if p.ringBytes > p.opts.RingBytes || live < n/2 {
		t.Fatalf("ring retains %d entries, %d bytes (bound %d)", live, p.ringBytes, p.opts.RingBytes)
	}
	if len(p.ring) > 2*live {
		t.Fatalf("ring slice grew to %d for %d live entries: the trimmed prefix is never compacted", len(p.ring), live)
	}
	floor := p.ring[p.head].lsn
	if floor != last-uint64(live)+1 {
		t.Fatalf("ring floor %d with %d live entries up to %d: LSNs not dense", floor, live, last)
	}
	for _, tc := range []struct {
		next     uint64
		want     int
		needBase bool
	}{
		{floor, live, false},
		{last, 1, false},
		{last + 1, 0, false}, // caught up
		{floor - 1, 0, true}, // trimmed past
	} {
		f.next = tc.next
		pend, needBase := f.pending(nil)
		if len(pend) != tc.want || needBase != tc.needBase {
			t.Fatalf("next %d: %d pending (needBase %v), want %d (%v)", tc.next, len(pend), needBase, tc.want, tc.needBase)
		}
		for i, e := range pend {
			if e.lsn != tc.next+uint64(i) {
				t.Fatalf("next %d: entry %d is LSN %d", tc.next, i, e.lsn)
			}
		}
	}
}

// BenchmarkShipperCatchUp measures one shipper wake-up against a full ring:
// the caught-up follower collects the newest batch. The cost must not grow
// with the ring.
func BenchmarkShipperCatchUp(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("ring=%d", n), func(b *testing.B) {
			_, f := newRingPrimary(b, n)
			var pend []ringEntry
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.next = uint64(n)
				pend, _ = f.pending(pend[:0])
			}
			if len(pend) != 1 {
				b.Fatalf("collected %d entries, want 1", len(pend))
			}
		})
	}
}
