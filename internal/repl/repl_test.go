package repl_test

// End-to-end replication over real TCP: a primary ships committed batches,
// a follower replays them and serves identical reads, subscriptions fan
// out on the follower, and every resync path (fresh stream, base sync,
// resume after restart, primary restart with a new epoch) converges.

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/repl"
	"sentinel/internal/server"
	"sentinel/internal/wire"
)

const replSchema = `class Item reactive persistent {
	attr val int
	event end method SetVal(v int) { self.val := v }
}
bind A new Item(val: 1)
bind B new Item(val: 2)`

// primaryNode is a primary database + shipper + server over a real socket.
type primaryNode struct {
	db  *core.Database
	pri *repl.Primary
	srv *server.Server
}

func (n *primaryNode) close() {
	n.srv.Close()
	n.pri.Close()
	n.db.Close()
}

func startPrimary(t *testing.T, dir string) *primaryNode {
	t.Helper()
	db, err := core.Open(core.Options{Dir: dir, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	pri := repl.NewPrimary(db, repl.PrimaryOptions{})
	srv, err := server.New(db, server.Options{Addr: "127.0.0.1:0", Primary: pri})
	if err != nil {
		pri.Close()
		db.Close()
		t.Fatal(err)
	}
	return &primaryNode{db: db, pri: pri, srv: srv}
}

// followerNode is a replica runtime + its own read/subscription server.
type followerNode struct {
	f   *repl.Follower
	srv *server.Server
}

func (n *followerNode) close() {
	n.srv.Close()
	n.f.Close()
}

func startFollower(t *testing.T, dir, primaryAddr string) *followerNode {
	t.Helper()
	f, err := repl.StartFollower(repl.FollowerOptions{
		PrimaryAddr: primaryAddr,
		Core:        core.Options{Dir: dir, Output: io.Discard},
		MaxBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(f.DB, server.Options{Addr: "127.0.0.1:0"})
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return &followerNode{f: f, srv: srv}
}

// waitApplied blocks until the replica's applied LSN reaches target.
func waitApplied(t *testing.T, db *core.Database, target uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for db.ReplLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at LSN %d, want %d", db.ReplLSN(), target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readVal reads name.attr through a snapshot on db.
func readVal(t *testing.T, db *core.Database, name, attr string) (string, bool) {
	t.Helper()
	id, ok := db.Lookup(name)
	if !ok {
		return "", false
	}
	snap := db.BeginSnapshot()
	defer db.Abort(snap)
	v, err := db.Get(snap, id, attr)
	if err != nil {
		t.Fatalf("get %s.%s: %v", name, attr, err)
	}
	return v.String(), true
}

// expectVal asserts name.attr reads the same on both databases and equals
// want on the replica.
func expectVal(t *testing.T, replica *core.Database, name, attr, want string) {
	t.Helper()
	got, ok := replica.Lookup(name)
	if !ok {
		t.Fatalf("replica: %q not bound", name)
	}
	_ = got
	v, _ := readVal(t, replica, name, attr)
	if v != want {
		t.Fatalf("replica %s.%s = %s, want %s", name, attr, v, want)
	}
}

// TestFollowerStreamsFromScratch: follower attaches to an empty-history
// primary before any writes; every committed batch streams over and reads
// on the replica match the primary.
func TestFollowerStreamsFromScratch(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	fn := startFollower(t, t.TempDir(), p.srv.Addr())
	defer fn.close()

	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := p.db.Exec(fmt.Sprintf("A!SetVal(%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	expectVal(t, fn.f.DB, "A", "val", "19")
	expectVal(t, fn.f.DB, "B", "val", "2")

	if role := fn.f.DB.Stats().Replication.Role; role != "replica" {
		t.Fatalf("follower role = %q, want replica", role)
	}
	if s := p.db.Stats().Replication; s.Role != "primary" || s.Peers != 1 {
		t.Fatalf("primary stats = %+v, want role=primary peers=1", s)
	}
}

// TestFollowerBaseSync: the primary has history that predates the shipper
// (never entered the ring), so the follower must install base state.
func TestFollowerBaseSync(t *testing.T) {
	dir := t.TempDir()
	// Seed history without any shipper attached.
	db, err := core.Open(core.Options{Dir: dir, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("A!SetVal(42)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	p := startPrimary(t, dir)
	defer p.close()
	fn := startFollower(t, t.TempDir(), p.srv.Addr())
	defer fn.close()

	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	expectVal(t, fn.f.DB, "A", "val", "42")

	// The stream keeps flowing after the install.
	if err := p.db.Exec("B!SetVal(7)"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	expectVal(t, fn.f.DB, "B", "val", "7")
}

// TestFollowerResume: a follower that restarts resumes from its applied
// LSN (same epoch) and catches up on what it missed.
func TestFollowerResume(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	fdir := t.TempDir()
	fn := startFollower(t, fdir, p.srv.Addr())

	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Exec("A!SetVal(1)"); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	fn.close()

	// Commits land while the follower is down.
	for i := 2; i <= 5; i++ {
		if err := p.db.Exec(fmt.Sprintf("A!SetVal(%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	fn = startFollower(t, fdir, p.srv.Addr())
	defer fn.close()
	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	expectVal(t, fn.f.DB, "A", "val", "5")
}

// TestPrimaryRestartEpochMismatch: the primary restarts (fresh epoch), so
// the follower's position — although numerically plausible — is re-seeded
// from base state, and converges.
func TestPrimaryRestartEpochMismatch(t *testing.T) {
	pdir := t.TempDir()
	p := startPrimary(t, pdir)
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	fn := startFollower(t, fdir, p.srv.Addr())
	waitApplied(t, fn.f.DB, p.db.ReplLSN())
	fn.close()
	addr := p.srv.Addr()
	p.close()

	// Restart the primary on the same directory and address: new epoch.
	p2, err := core.Open(core.Options{Dir: pdir, Output: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	pri := repl.NewPrimary(p2, repl.PrimaryOptions{})
	srv, err := server.New(p2, server.Options{Addr: addr, Primary: pri})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		pri.Close()
		p2.Close()
	}()
	if err := p2.Exec("B!SetVal(99)"); err != nil {
		t.Fatal(err)
	}

	fn = startFollower(t, fdir, addr)
	defer fn.close()
	waitApplied(t, fn.f.DB, p2.ReplLSN())
	expectVal(t, fn.f.DB, "A", "val", "1")
	expectVal(t, fn.f.DB, "B", "val", "99")
}

// TestReplicaRejectsWrites: application writes on a replica fail with
// ErrReplicaWrite; reads keep working.
func TestReplicaRejectsWrites(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	fn := startFollower(t, t.TempDir(), p.srv.Addr())
	defer fn.close()
	waitApplied(t, fn.f.DB, p.db.ReplLSN())

	if err := fn.f.DB.Exec("A!SetVal(123)"); err == nil {
		t.Fatal("replica accepted a write")
	}
	if err := fn.f.DB.Exec("bind C new Item(val: 3)"); err == nil {
		t.Fatal("replica accepted an object creation")
	}
	expectVal(t, fn.f.DB, "A", "val", "1")
}

// TestFollowerFanOut: a subscriber on the FOLLOWER's server receives
// pushes for commits that happened on the PRIMARY — the shipped batch
// carries the occurrences and the replica fans them out locally.
func TestFollowerFanOut(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	fn := startFollower(t, t.TempDir(), p.srv.Addr())
	defer fn.close()
	waitApplied(t, fn.f.DB, p.db.ReplLSN())

	c, err := client.Dial(context.Background(), fn.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, ok, err := c.Lookup(context.Background(), "A")
	if err != nil || !ok {
		t.Fatalf("lookup on follower: %v ok=%v", err, ok)
	}
	got := make(chan wire.Event, 8)
	if _, err := c.Subscribe(context.Background(), id, "SetVal", wire.MomentAny, func(ev wire.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}

	if err := p.db.Exec("A!SetVal(77)"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev.Method != "SetVal" || ev.Source != id {
			t.Fatalf("unexpected push %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no push delivered through the follower")
	}
}

// TestMultipleFollowers: three followers all converge, and the primary's
// lag accounting drains to zero.
func TestMultipleFollowers(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.close()
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	var fns []*followerNode
	for i := 0; i < 3; i++ {
		fn := startFollower(t, t.TempDir(), p.srv.Addr())
		defer fn.close()
		fns = append(fns, fn)
	}
	for i := 0; i < 10; i++ {
		if err := p.db.Exec(fmt.Sprintf("A!SetVal(%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	target := p.db.ReplLSN()
	for _, fn := range fns {
		waitApplied(t, fn.f.DB, target)
		expectVal(t, fn.f.DB, "A", "val", "9")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := p.db.Stats().Replication
		if s.Peers == 3 && s.LagBatches == 0 && s.AppliedLSN == target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never drained: %+v (want peers=3 applied=%d)", s, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPromoteAfterFollowerRestartKeepsAckedCommit: a quorum-acked commit —
// the follower acks once it logged the batch, maybe before the durable mark
// let it expose the batch — survives a follower restart and then the loss
// of the primary: the promoted follower holds it.
func TestPromoteAfterFollowerRestartKeepsAckedCommit(t *testing.T) {
	db, err := core.Open(core.Options{Dir: t.TempDir(), Output: io.Discard, SyncOnCommit: true,
		SyncReplicas: 1, QuorumTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pri := repl.NewPrimary(db, repl.PrimaryOptions{})
	srv, err := server.New(db, server.Options{Addr: "127.0.0.1:0", Primary: pri})
	if err != nil {
		t.Fatal(err)
	}
	p := &primaryNode{db: db, pri: pri, srv: srv}
	fdir := t.TempDir()
	fn := startFollower(t, fdir, p.srv.Addr())
	for pri.Followers() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := p.db.Exec(replSchema); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Exec("A!SetVal(77)"); err != nil {
		t.Fatal(err)
	}
	if n := p.db.Stats().Replication.QuorumDegraded; n != 0 {
		t.Fatalf("%d commits degraded: the follower did not ack", n)
	}
	fn.close()
	p.close()

	f, err := repl.StartFollower(repl.FollowerOptions{
		PrimaryAddr: p.srv.Addr(),
		Core:        core.Options{Dir: fdir, Output: io.Discard},
		MaxBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	promoted, pri2, err := f.Promote(repl.PrimaryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pri2.Close()
		promoted.Close()
	}()
	if v, _ := readVal(t, promoted, "A", "val"); v != "77" {
		t.Fatalf("promoted A.val = %s, want the quorum-acked 77", v)
	}
}
