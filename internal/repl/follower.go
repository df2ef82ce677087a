package repl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/wire"
)

// FollowerOptions configure a replica runtime.
type FollowerOptions struct {
	// PrimaryAddr is the primary server's listen address.
	PrimaryAddr string
	// Core configures the local replica database. Dir is required;
	// Replica is forced true.
	Core core.Options
	// MaxBackoff caps the dial-retry backoff (default 2s).
	MaxBackoff time.Duration
}

// Follower is a replica runtime: it opens the database once in replica
// mode, then maintains a connection to the primary, installing base state
// when told to and applying streamed batches. DB serves local reads (wrap
// it in a server.Server for network reads and push fan-out); the follower
// goroutines own all writes into it.
type Follower struct {
	// DB is the replica database. Open for the Follower's whole life —
	// resyncs install base state live through the MVCC machinery, so
	// readers and the serving layer never see the pointer change.
	DB *core.Database

	opts   FollowerOptions
	cancel context.CancelFunc
	wg     sync.WaitGroup

	connected  atomic.Int32
	primaryLSN atomic.Uint64

	cliMu sync.Mutex
	cli   *client.Client
}

// StartFollower opens the replica database and starts the streaming loop.
// Close stops the loop and closes the database.
func StartFollower(opts FollowerOptions) (*Follower, error) {
	opts.Core.Replica = true
	db, err := core.Open(opts.Core)
	if err != nil {
		return nil, err
	}
	f := &Follower{DB: db, opts: opts}
	db.SetReplicator(core.Replicator{Info: func() (int, uint64) {
		return int(f.connected.Load()), f.primaryLSN.Load()
	}})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go f.run(ctx)
	return f, nil
}

// Connected reports whether a primary connection is live and past its
// handshake.
func (f *Follower) Connected() bool { return f.connected.Load() != 0 }

// PrimaryLSN returns the highest primary LSN observed (shipped-at-hello or
// streamed), for lag accounting.
func (f *Follower) PrimaryLSN() uint64 { return f.primaryLSN.Load() }

// Close stops the streaming loop and closes the replica database.
func (f *Follower) Close() error {
	f.cancel()
	f.cliMu.Lock()
	if f.cli != nil {
		f.cli.Close()
	}
	f.cliMu.Unlock()
	f.wg.Wait()
	f.DB.SetReplicator(core.Replicator{})
	return f.DB.Close()
}

func (f *Follower) setCli(c *client.Client) {
	f.cliMu.Lock()
	f.cli = c
	f.cliMu.Unlock()
}

// run dials, streams until the connection (or the stream's consistency)
// breaks, and redials. Every reconnect re-handshakes from the replica's
// applied and logged LSNs, so a broken stream costs retransmission, never
// correctness.
func (f *Follower) run(ctx context.Context) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		cli, err := client.DialRetry(ctx, f.opts.PrimaryAddr, f.opts.MaxBackoff)
		if err != nil {
			return // ctx cancelled
		}
		f.setCli(cli)
		f.stream(ctx, cli)
		f.connected.Store(0)
		f.setCli(nil)
		cli.Close()
	}
}

// push is one replication frame copied off the client's reader goroutine.
type push struct {
	op      byte
	payload []byte
}

// stream runs one connection's worth of replication: handshake, optional
// base sync, then apply frames until something breaks. Returning (for any
// reason) tears the connection down; run redials.
func (f *Follower) stream(ctx context.Context, cli *client.Client) {
	// The reader goroutine copies each push into applyCh; a full channel
	// blocks the reader, which backpressures the primary through TCP —
	// exactly the per-follower pacing the shipper is built for.
	applyCh := make(chan push, 64)
	cli.OnPush(func(op byte, payload []byte) {
		m := push{op: op, payload: append([]byte(nil), payload...)}
		select {
		case applyCh <- m:
		case <-cli.Done():
		}
	})

	primaryEpoch, shipped, needBase, err := cli.ReplResume(ctx, f.DB.ReplLSN(), f.DB.ReplLogged(), f.DB.ReplEpoch())
	if err != nil {
		return
	}
	if shipped > f.primaryLSN.Load() {
		f.primaryLSN.Store(shipped)
	}
	f.connected.Store(1)
	if !needBase {
		// Resuming (or streaming from scratch): our state is already part
		// of this epoch's history — possibly as the shared prefix of the
		// previous epoch, after a promotion — so adopt the new epoch now and
		// checkpoint it durable. The checkpoint is the follower-side fence
		// point: from here this replica's (epoch, LSN) names a position in
		// the new history, and it will ack (and re-handshake) under the new
		// epoch even across its own crashes.
		f.adoptEpoch(primaryEpoch)
	}

	// Acks run on their own goroutine so a slow ack round-trip never stalls
	// the apply loop (and the apply loop never waits on the ack loop — no
	// circular dependency). Latest-wins coalescing: the ack carries the
	// logged LSN read at send time.
	ackCh := make(chan struct{}, 1)
	ackCtx, ackCancel := context.WithCancel(ctx)
	var ackWG sync.WaitGroup
	ackWG.Add(1)
	go func() {
		defer ackWG.Done()
		for {
			select {
			case <-ackCh:
				if cli.ReplAck(ackCtx, f.DB.ReplLogged(), f.DB.ReplEpoch()) != nil {
					return
				}
			case <-ackCtx.Done():
				return
			}
		}
	}()
	defer func() {
		ackCancel()
		ackWG.Wait()
	}()
	kickAck := func() {
		select {
		case ackCh <- struct{}{}:
		default:
		}
	}

	var (
		base    []core.ReplBaseObject
		carried *push // the frame that ended the last run, handled next
	)
	syncing := needBase
	for {
		var m push
		if carried != nil {
			m, carried = *carried, nil
		} else {
			select {
			case <-ctx.Done():
				return
			case <-cli.Done():
				return
			case m = <-applyCh:
			}
		}
		switch m.op {
		case wire.OpReplSnap:
			objs, err := wire.DecodeReplSnap(m.payload)
			if err != nil {
				return
			}
			for _, o := range objs {
				base = append(base, core.ReplBaseObject{ID: o.ID, Img: o.Img})
			}
		case wire.OpReplSnapEnd:
			baseLSN, err := wire.DecodeReplSnapEnd(m.payload)
			if err != nil {
				return
			}
			// Adopt the epoch before the install: ApplyBaseState ends
			// with a checkpoint, so the new (epoch, LSN) pair persists
			// atomically with the installed state. A failed install
			// leaves the in-memory state torn, so drop to epoch 0 —
			// "history of no verifiable lineage" — which forces the next
			// handshake to re-seed from base state (a fresh install
			// repairs any tear; images are full and idempotent).
			f.DB.SetReplEpoch(primaryEpoch)
			if err := f.DB.ApplyBaseState(baseLSN, base); err != nil {
				f.DB.SetReplEpoch(0)
				return
			}
			base = nil
			syncing = false
			if baseLSN > f.primaryLSN.Load() {
				f.primaryLSN.Store(baseLSN)
			}
			kickAck()
		case wire.OpReplFrames:
			if syncing {
				// The base state being installed covers whatever races
				// it, and its mark belongs to a history the install may
				// replace: applying a frame now would land ahead of it.
				continue
			}
			wb, err := wire.DecodeReplBatch(m.payload)
			if err != nil {
				return
			}
			var run []core.ReplBatch
			run, carried = gatherRun(applyCh, []core.ReplBatch{BatchFromWire(wb)})
			var last uint64
			for _, b := range run {
				last = max(last, b.LSN)
			}
			if last > f.primaryLSN.Load() {
				f.primaryLSN.Store(last)
			}
			if err := f.DB.ApplyReplicated(run...); err != nil {
				// Gap or apply failure: tear the stream down and
				// re-handshake from the replica's position.
				return
			}
			if last != 0 {
				kickAck() // one ack per run, at its last logged batch
			}
		}
	}
}

// gatherRun extends a run by every replication frame already queued on
// applyCh (at most the channel's capacity), so its data batches cost one WAL
// write and one fsync (ApplyReplicated splits it only at event-only
// batches). A snapshot frame, or one that fails to decode, ends the run; it
// is returned for the caller to handle next.
func gatherRun(applyCh chan push, run []core.ReplBatch) ([]core.ReplBatch, *push) {
	for len(run) < cap(applyCh) {
		var m push
		select {
		case m = <-applyCh:
		default:
			return run, nil
		}
		if m.op == wire.OpReplFrames {
			if wb, err := wire.DecodeReplBatch(m.payload); err == nil {
				run = append(run, BatchFromWire(wb))
				continue
			}
		}
		return run, &m
	}
	return run, nil
}

// adoptEpoch moves the replica onto the primary's epoch and checkpoints it
// durable. No-op when already there (the common reconnect); checkpoint
// failure is best-effort — the replica keeps presenting the old epoch and
// resumes through the shared-prefix rule until a later checkpoint lands.
func (f *Follower) adoptEpoch(epoch uint64) {
	if f.DB.ReplEpoch() == epoch {
		return
	}
	f.DB.SetReplEpoch(epoch)
	_ = f.DB.Checkpoint()
}

// Promote turns this follower into a primary: the failover path when the
// old primary is lost (see DESIGN.md §4i).
//
// The sequence: stop the streaming loop (sealing replay at the logged
// LSN — nothing arrives after this), expose the logged tail (the one mark a
// follower sets itself: its log is about to become the history, so a batch
// the old primary left in doubt is kept — and pushed), close the replica
// database (the final checkpoint persists its exact (epoch, LSN) position),
// reopen the same
// directory as a writable primary-mode database (the full recovery path
// rebuilds rules, subscriptions and indexes, which the replica apply loop
// deliberately does not maintain live), and start a Primary over it —
// which bumps the epoch past the old primary's and records the applied LSN
// as the seal, so surviving followers at or below it re-handshake without a
// base copy while the deposed primary, coming back with unacked commits
// past the seal, is re-seeded.
//
// mutate, when non-nil, adjusts the reopened database's options (e.g.
// enabling SyncReplicas/SyncOnCommit — replica-mode options cannot carry
// them). The Follower is spent after Promote: do not reuse it, and do not
// call Close (the returned database and Primary are the live handles).
func (f *Follower) Promote(popts PrimaryOptions, mutate func(*core.Options)) (*core.Database, *Primary, error) {
	// Seal: stop the dial/stream loop and wait the apply goroutines out.
	// After wg.Wait returns nothing can call ApplyReplicated again.
	f.cancel()
	f.cliMu.Lock()
	if f.cli != nil {
		f.cli.Close()
	}
	f.cliMu.Unlock()
	f.wg.Wait()
	f.DB.SetReplicator(core.Replicator{})
	if err := f.DB.ApplyReplicated(core.ReplBatch{Mark: f.DB.ReplLogged()}); err != nil {
		return nil, nil, err
	}
	if err := f.DB.Close(); err != nil {
		return nil, nil, err
	}

	opts := f.opts.Core
	opts.Replica = false
	if mutate != nil {
		mutate(&opts)
	}
	db, err := core.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	return db, NewPrimary(db, popts), nil
}
