package repl_test

// Follower-lifecycle teardown coverage: a follower killed mid-stream, a
// primary closing with followers attached, and a wedged follower must all
// tear down without goroutine leaks — and the wedged case must never stall
// the primary's commit path (the PR's no-stall guarantee).

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/value"
	"sentinel/internal/wire"
)

// stableGoroutines samples runtime.NumGoroutine until it drops to want or
// the deadline passes, letting teardown goroutines finish first.
func stableGoroutines(deadline time.Duration, want int) int {
	end := time.Now().Add(deadline)
	n := runtime.NumGoroutine()
	for time.Now().Before(end) {
		if n <= want {
			return n
		}
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestFollowerKilledMidStream: the follower dies (abrupt close) while the
// primary is streaming; the primary sheds its shipper goroutine and keeps
// committing.
func TestFollowerKilledMidStream(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	fn := startFollower(t, t.TempDir(), p.srv.Addr())
	waitApplied(t, fn.f.DB, p.db.ReplLSN())

	// Kill the follower while commits are in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := p.db.Exec(fmt.Sprintf("A!SetVal(%d)", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	fn.close()
	<-done

	// Primary: zero followers, shipper gone, goroutines back to baseline.
	deadline := time.Now().Add(5 * time.Second)
	for p.pri.Followers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("primary still reports %d followers", p.pri.Followers())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := stableGoroutines(5*time.Second, baseline); got > baseline {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
	if err := p.db.Exec("A!SetVal(999)"); err != nil {
		t.Fatalf("primary stopped committing after follower death: %v", err)
	}
}

// TestPrimaryClosesWithFollowersAttached: closing the primary's server and
// shipper with live followers must not deadlock or leak; the followers
// fall back to redialing.
func TestPrimaryClosesWithFollowersAttached(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := startPrimary(t, t.TempDir())
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	var fns []*followerNode
	for i := 0; i < 3; i++ {
		fn := startFollower(t, t.TempDir(), p.srv.Addr())
		fns = append(fns, fn)
	}
	for _, fn := range fns {
		waitApplied(t, fn.f.DB, p.db.ReplLSN())
	}

	// Primary goes away first; followers are mid-session.
	p.close()
	for _, fn := range fns {
		fn.close()
	}
	if got := stableGoroutines(5*time.Second, baseline); got > baseline {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, got)
	}
}

// TestWedgedFollowerNeverStallsCommits: a "follower" that handshakes and
// then stops reading wedges its own session queue. The primary's commit
// path must stay wait-free regardless — the wedged stream blocks only its
// shipper goroutine.
func TestWedgedFollowerNeverStallsCommits(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}

	// A raw wire client that sends ReplHello and then never reads again:
	// the server's out-queue for this session fills and stays full.
	conn, err := net.Dial("tcp", p.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := wire.AppendValues(nil, value.Int(0), value.Int(0), value.Int(0))
	if _, err := wire.WriteFrame(conn, nil, wire.Frame{Op: wire.OpReplHello, ReqID: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	// Wait until the primary has registered the follower.
	deadline := time.Now().Add(5 * time.Second)
	for p.pri.Followers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedged follower never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Commits must proceed at full speed with the wedged stream attached.
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := p.db.Exec(fmt.Sprintf("A!SetVal(%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("commit path stalled behind wedged follower: 200 commits took %v", elapsed)
	}

	// A healthy follower attached at the same time still converges.
	fn := startFollower(t, t.TempDir(), p.srv.Addr())
	defer fn.close()
	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	expectVal(t, fn.f.DB, "A", "val", "199")
}

// TestFollowerCloseInterruptsRetry: closing a follower that is stuck
// redialing an unreachable primary returns promptly.
func TestFollowerCloseInterruptsRetry(t *testing.T) {
	// A listener that accepts nothing useful, then goes away.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	fn := startFollower(t, t.TempDir(), addr)
	start := time.Now()
	fn.close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("follower close took %v while redialing", elapsed)
	}
}

// TestClientContextCancellation: the context-aware client API abandons a
// call whose context is cancelled without leaking its pending entry (the
// futures map honors cancellation).
func TestClientContextCancellation(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(context.Background(), p.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Lookup(ctx, "A"); err == nil {
		t.Fatal("cancelled lookup succeeded")
	}
	// The connection survives the abandoned call.
	if _, ok, err := c.Lookup(context.Background(), "A"); err != nil || !ok {
		t.Fatalf("lookup after cancellation: %v ok=%v", err, ok)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}
