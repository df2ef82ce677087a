package main

// remote_push: the flagship of ROADMAP item 1. One process holds a real
// TCP-loopback primary (server.New + repl.NewPrimary, SyncOnCommit on the
// 200 µs/fsync device, SyncReplicas=1) and two TCP followers, each on its own
// device and behind its own server. Connection A sends
// `S<k>!SetPrice(<seq>)` scripts to the primary (there is no Send opcode: a
// remote send is an Exec script) and holds a push subscription on every
// stock; connection B holds the same subscriptions on follower 1. The price
// carries the request's sequence number, so every push is matched to the
// request that caused it.
//
// The measured window has two parts. The first 70 % is open-loop at a fixed
// rate: a request is due on a schedule whether or not earlier ones are done,
// and is timed from its due time to the push arriving at B — the whole
// client → wire → session → parse → tx → raise → fire → commit → fsync →
// ship → apply → push path. The last 30 % is closed-loop with four requests
// in flight, which keeps the primary's session busy and so measures what it
// can complete per second.
//
// This is the only workload where client, wire, server, the parser,
// core.sink and repl are on the blocking path; it uses the commit path
// serially with a quorum wait where commit_durable uses it concurrently
// without one.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/repl"
	"sentinel/internal/server"
	"sentinel/internal/vfs"
	"sentinel/internal/wire"
)

const (
	remoteStocks     = 200
	remoteFollowers  = 2
	remoteIndexEvery = 4
	// remoteRate is the reference rate of the open-loop part, fixed at about
	// half of what the 2-core sandbox sustains (see README); remoteLadder are
	// the rates of the traced run's ladder. Constants, never adapted at run
	// time: a faster system shows lower latency at the same offered load.
	remoteRate = 150.0
	// remoteDepth is the closed-loop part's requests in flight.
	remoteDepth = 4
	// pushLimitUs is the latency limit a ladder step must meet at its tail.
	pushLimitUs = 20000.0
)

var remoteLadder = []float64{75, 150, 300, 600}

// cluster is the primary, its followers and the two load connections.
type cluster struct {
	pfs  *devFS
	pdb  *core.Database
	pri  *repl.Primary
	psrv *server.Server
	fol  []*repl.Follower
	fsrv []*server.Server
	mk   *market
	a, b *client.Client
	log  *pushLog
	// srvBase is the server counters at the start of the traced window.
	srvBase map[string]uint64
}

func nodeOptions(fs vfs.FS) core.Options {
	return core.Options{Dir: dbDir, VFS: fs, SyncOnCommit: true, Output: io.Discard}
}

func newDevice() *devFS { return newDevFS(vfs.NewLatency(vfs.NewMem(), deviceFsync, 0)) }

func (c *cluster) close() error {
	if c.a != nil {
		c.a.Close()
	}
	if c.b != nil {
		c.b.Close()
	}
	for _, s := range c.fsrv {
		s.Close()
	}
	for _, f := range c.fol {
		f.Close()
	}
	if c.psrv != nil {
		c.psrv.Close()
	}
	if c.pri != nil {
		c.pri.Close()
	}
	if c.pdb != nil {
		return c.pdb.Close()
	}
	return nil
}

// waitApplied blocks until every follower has applied the primary's log.
func (c *cluster) waitApplied(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		target, done := c.pdb.ReplLSN(), true
		for _, f := range c.fol {
			if f.DB.ReplLSN() < target {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers stuck below LSN %d", target)
		}
		time.Sleep(time.Millisecond)
	}
}

// buildCluster brings the cluster to its ready state: followers attached
// and caught up, market populated through the quorum-committing primary,
// both subscribers attached. This is what setup_s times.
func buildCluster(cfg config) (c *cluster, err error) {
	c = &cluster{pfs: newDevice()}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	popts := nodeOptions(c.pfs)
	popts.SyncReplicas = 1
	popts.AsyncDetached = true
	if c.pdb, err = core.Open(popts); err != nil {
		return nil, err
	}
	c.pri = repl.NewPrimary(c.pdb, repl.PrimaryOptions{})
	if c.psrv, err = server.New(c.pdb, server.Options{Addr: "127.0.0.1:0", Primary: c.pri}); err != nil {
		return nil, err
	}
	// Followers attach before the market exists: with SyncReplicas=1 every
	// commit below already waits for one of them.
	for i := 0; i < remoteFollowers; i++ {
		f, err := repl.StartFollower(repl.FollowerOptions{
			PrimaryAddr: c.psrv.Addr(),
			Core:        nodeOptions(newDevice()),
			MaxBackoff:  200 * time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("follower %d: %w", i, err)
		}
		c.fol = append(c.fol, f)
		s, err := server.New(f.DB, server.Options{Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, fmt.Errorf("follower %d server: %w", i, err)
		}
		c.fsrv = append(c.fsrv, s)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.pri.Followers() < remoteFollowers {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d followers attached", c.pri.Followers(), remoteFollowers)
		}
		time.Sleep(time.Millisecond)
	}
	c.mk, err = buildMarket(c.pdb, marketSpec{
		stocks:    cfg.scaled(remoteStocks),
		parts:     1,
		padBytes:  64,
		audit:     true,
		buyAll:    true,
		bindNames: true,
	}, newRNG(cfg.seed))
	if err != nil {
		return nil, err
	}
	c.pdb.WaitIdle()
	if err := c.waitApplied(30 * time.Second); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if c.a, err = client.Dial(ctx, c.psrv.Addr()); err != nil {
		return nil, err
	}
	if c.b, err = client.Dial(ctx, c.fsrv[0].Addr()); err != nil {
		return nil, err
	}
	c.log = newPushLog()
	p := c.mk.parts[0]
	for _, sub := range []struct {
		cli *client.Client
		h   func(wire.Event)
	}{{c.a, c.log.a.onPush}, {c.b, c.log.b.onPush}} {
		for _, id := range p.stocks {
			if _, err := sub.cli.Subscribe(ctx, id, "SetPrice", uint8(event.End), sub.h); err != nil {
				return nil, fmt.Errorf("subscribe: %w", err)
			}
		}
		if _, err := sub.cli.Subscribe(ctx, p.index, "SetValue", uint8(event.End), sub.h); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	return c, nil
}

// pushLog holds the per-request timestamps, indexed by sequence number.
// due, sent and ack belong to the sender (and its ack collector); a and b
// are the two subscribers.
type pushLog struct {
	epoch time.Time
	due   []int64
	sent  []int64
	ack   []atomic.Int64
	a, b  *subscriber

	scripts []string // what was sent, for the parser replay
	isIndex []bool
}

// subscriber is one connection's push subscriptions: when each request's
// push arrived, and the violations of exactly-once, per-object-order
// delivery. onPush runs on the connection's reader goroutine, which owns
// last; everything else is atomic.
type subscriber struct {
	now             func() int64
	at              []atomic.Int64 // receipt time by sequence number, 0 = not yet
	got, dup, order atomic.Int64
	last            map[oid.OID]int64
}

// maxRequests bounds one run's requests; the schedule cannot exceed it.
const maxRequests = 1 << 17

func newPushLog() *pushLog {
	l := &pushLog{
		epoch: time.Now(),
		due:   make([]int64, maxRequests),
		sent:  make([]int64, maxRequests),
		ack:   make([]atomic.Int64, maxRequests),
	}
	newSub := func() *subscriber {
		return &subscriber{now: l.now, at: make([]atomic.Int64, maxRequests), last: map[oid.OID]int64{}}
	}
	l.a, l.b = newSub(), newSub()
	return l
}

func (l *pushLog) now() int64 { return int64(time.Since(l.epoch)) }

// onPush books one delivered event: the price it carries is the sequence
// number of the request that caused it.
func (sub *subscriber) onPush(ev wire.Event) {
	now := sub.now()
	seq := int64(-1)
	if len(ev.Args) == 1 {
		seq, _ = ev.Args[0].AsInt()
	}
	if seq <= 0 || seq >= maxRequests || !sub.at[seq].CompareAndSwap(0, now) {
		sub.dup.Add(1) // a second delivery, or a push no request explains
		return
	}
	if seq < sub.last[ev.Source] {
		sub.order.Add(1)
	}
	sub.last[ev.Source] = seq
	sub.got.Add(1)
}

// sender owns connection A's request stream.
type sender struct {
	c    *cluster
	gen  *rng
	next int64 // next sequence number; 0 is never used
	errs int64 // requests answered with an error
}

// issue sends request seq (due at the given instant) and returns its call.
func (s *sender) issue(due int64) (*client.Call, int64) {
	l, p := s.c.log, s.c.mk.parts[0]
	seq := s.next
	s.next++
	var script string
	if seq%remoteIndexEvery == 0 {
		script = fmt.Sprintf("IDX0!SetValue(%d)", seq)
		p.setValue(seq)
		l.isIndex = append(l.isIndex, true)
	} else {
		k := int(s.gen.intn(int64(len(p.stocks))))
		script = fmt.Sprintf("S%d!SetPrice(%d)", k, seq)
		p.setPrice(k, seq, p.watched(k, true))
		l.isIndex = append(l.isIndex, false)
	}
	l.scripts = append(l.scripts, script)
	l.due[seq] = due
	call := s.c.a.GoExec(context.Background(), script)
	l.sent[seq] = l.now()
	return call, seq
}

func (s *sender) complete(call *client.Call, seq int64) {
	f, err := call.Wait(context.Background())
	s.c.log.ack[seq].Store(s.c.log.now())
	if err != nil || f.Op != wire.OpOK {
		atomic.AddInt64(&s.errs, 1)
	}
}

// sentCall is a request on the wire, waiting for its response.
type sentCall struct {
	call *client.Call
	seq  int64
}

// phase is one stretch of load: the sequence numbers it issued and what the
// generator observed about itself.
type phase struct {
	first, last int64 // sequence numbers [first, last)
	start, end  int64
	cpu         *slices // the phase cut into slices, carrying their CPU time
	late        durs    // open loop: how late each request left
	inflightMid int64
	inflightEnd int64
	pings       durs
}

// Slice widths: an open-loop slice must hold enough requests for a tail
// percentile (300 at the reference rate), a closed-loop slice enough
// completions for a rate.
const (
	openSlice   = 2 * time.Second
	closedSlice = time.Second
)

func (s *sender) begin(d, width time.Duration) phase {
	l := s.c.log
	start := l.now()
	return phase{first: s.next, start: start, cpu: newSlices(l.epoch.Add(time.Duration(start)), d, width, medianSlice)}
}

// openLoop offers rate requests per second for d, on a fixed schedule. The
// collector goroutine takes responses in order; the sender never waits for
// one. ping, when set, round-trips a no-op frame every pingEvery requests.
func (s *sender) openLoop(rate float64, d time.Duration, ping bool) phase {
	const pingEvery = 100
	l := s.c.log
	ph := s.begin(d, openSlice)
	// Buffer = the whole schedule: the sender must never block on the
	// collector, or the loop would close.
	n := int(rate*d.Seconds()) + 1
	calls := make(chan sentCall, n)
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ph.cpu.sampleCPU()
	}()
	go func() {
		defer wg.Done()
		for sc := range calls {
			s.complete(sc.call, sc.seq)
			acked.Add(1)
		}
	}()
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n-1 && s.next < maxRequests-1; i++ {
		due := ph.start + int64(i)*int64(period)
		// The probe goes out in the gap before a request is due, when the
		// session is normally idle, so it times the round trip and not the
		// request queued ahead of it.
		if ping && i%pingEvery == pingEvery-1 && int64(i) == acked.Load() {
			t0 := time.Now()
			if err := s.c.a.Ping(context.Background()); err == nil {
				ph.pings = append(ph.pings, time.Since(t0))
			}
		}
		if wait := due - l.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		call, seq := s.issue(due)
		ph.late = append(ph.late, time.Duration(l.sent[seq]-due))
		calls <- sentCall{call, seq}
		if i == (n-1)/2 {
			ph.inflightMid = int64(i+1) - acked.Load()
		}
	}
	ph.inflightEnd = (s.next - ph.first) - acked.Load()
	close(calls)
	wg.Wait()
	ph.last, ph.end = s.next, l.now()
	return ph
}

// closedLoop keeps depth requests in flight for d: the next one leaves when
// the oldest is answered. A request's due time is the moment it was sent.
func (s *sender) closedLoop(depth int, d time.Duration) phase {
	l := s.c.log
	ph := s.begin(d, closedSlice)
	var window []sentCall
	end := ph.start + int64(d)
	for l.now() < end && s.next < maxRequests-1 {
		if len(window) == depth {
			s.complete(window[0].call, window[0].seq)
			window = window[1:]
		}
		call, seq := s.issue(l.now())
		window = append(window, sentCall{call, seq})
	}
	for _, sc := range window {
		s.complete(sc.call, sc.seq)
	}
	ph.last, ph.end = s.next, l.now()
	return ph
}

// settle waits until both connections have every push up to seq last (or
// the deadline passes: the missing ones are then counted as dropped).
func (c *cluster) settle(last int64, timeout time.Duration) {
	want := last - 1 // sequence numbers start at 1
	deadline := time.Now().Add(timeout)
	for (c.log.a.got.Load() < want || c.log.b.got.Load() < want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// latencies collects, over a phase, the time from each request's due time
// to the given event, into the phase's slices (by due time).
func (l *pushLog) latencies(ph phase, to func(seq int64) int64) *slices {
	sl := &slices{start: ph.cpu.start, width: ph.cpu.width, rank: ph.cpu.rank, s: make([]slice, len(ph.cpu.s))}
	for i := range sl.s {
		sl.s[i].cpu = ph.cpu.s[i].cpu
	}
	for seq := ph.first; seq < ph.last; seq++ {
		t := to(seq)
		if t == 0 {
			continue // never happened; counted as a failure elsewhere
		}
		if s := sl.at(l.epoch.Add(time.Duration(l.due[seq]))); s != nil {
			s.h.add(time.Duration(t - l.due[seq]))
			s.ops++
		}
	}
	return sl
}

func (l *pushLog) toPushB(seq int64) int64 { return l.b.at[seq].Load() }
func (l *pushLog) toPushA(seq int64) int64 { return l.a.at[seq].Load() }
func (l *pushLog) toAck(seq int64) int64   { return l.ack[seq].Load() }

func runRemotePush(cfg config) (*run, error) {
	c, setupS, err := medianSetup(cfg.setupReps, func() (*cluster, error) { return buildCluster(cfg) })
	if err != nil {
		return nil, err
	}
	defer c.close()
	r := &run{m: map[string]float64{"setup_s": setupS}}
	s := &sender{c: c, gen: newRNG(cfg.seed + 1), next: 1}
	l := c.log

	s.openLoop(remoteRate, cfg.warmup(), false)
	c.settle(s.next, 10*time.Second)

	var (
		open, closed phase
		a, b         probe
		tr           *recorder
		ladder       []phase
		refP50       float64
	)
	if !cfg.traced {
		a = takeProbe(c.pdb, c.pfs)
		open = s.openLoop(remoteRate, cfg.window()*7/10, false)
		closed = s.closedLoop(remoteDepth, cfg.window()*3/10)
		b = takeProbe(c.pdb, c.pfs)
	} else {
		// Untraced ladder first (its reference step doubles as the baseline
		// for the tracing overhead), then the traced reference step.
		for _, rate := range remoteLadder {
			ph := s.openLoop(rate, cfg.window()/8, false)
			c.settle(s.next, 10*time.Second)
			ladder = append(ladder, ph)
			if rate == remoteRate {
				refP50 = l.latencies(ph, l.toPushB).p50us()
			}
		}
		tr = newRecorder(1<<19, 0)
		tr.install(c.pdb, 0)
		for i, f := range c.fol {
			tr.install(f.DB, uint8(i+1))
		}
		stopLag := c.sampleLag(r)
		c.srvBase = serverCounters(c.pdb)
		a = takeProbe(c.pdb, c.pfs)
		open = s.openLoop(remoteRate, cfg.window()/2, true)
		b = takeProbe(c.pdb, c.pfs)
		stopLag()
	}
	c.settle(s.next, 10*time.Second)
	c.pdb.WaitIdle()
	if err := c.waitApplied(30 * time.Second); err != nil {
		r.fail(1, "%v", err)
	}
	if cfg.traced {
		c.pdb.SetTracer(nil)
		for _, f := range c.fol {
			f.DB.SetTracer(nil)
		}
	}

	// End-to-end figures. Latency and CPU come from the open-loop part (a
	// fixed offered load), the rate from the closed-loop part.
	push := l.latencies(open, l.toPushB)
	r.m["op_p50_us"] = push.p50us()
	r.m["op_p99_us"] = push.tailus()
	r.m["runtime.cpu_us_per_op"] = push.cpuUsPerOp()
	if !cfg.traced {
		// Four in flight, steady state: requests sent per slice = answered.
		r.m["op_per_s"] = l.latencies(closed, l.toAck).opsPerSec()
	}
	r.m["live_heap_mb"] = liveHeapMB()

	// Oracle. Every request was answered OK; every push arrived exactly once
	// and in per-object order on both connections; the primary holds what
	// the model predicts; every follower holds what the primary holds.
	sent := s.next - 1
	r.attempted = sent
	r.fail(s.errs, "%d requests were answered with an error", s.errs)
	for name, sub := range map[string]*subscriber{"A": l.a, "B": l.b} {
		r.attempted += sent
		r.fail(sent-sub.got.Load(), "connection %s: %d of %d pushes never arrived", name, sent-sub.got.Load(), sent)
		r.fail(sub.dup.Load(), "connection %s: %d duplicate or unexplained pushes", name, sub.dup.Load())
		r.fail(sub.order.Load(), "connection %s: %d pushes out of per-object order", name, sub.order.Load())
	}
	dbs := []*core.Database{c.pdb}
	for _, f := range c.fol {
		dbs = append(dbs, f.DB)
	}
	for i, db := range dbs {
		read, done := snapshotReader(db)
		checked, bad, first := c.mk.verify(read, nil)
		done()
		r.attempted += checked
		r.fail(bad, "node %d: %d of %d attributes differ from the model; first: %s", i, bad, checked, first)
	}
	met := c.pdb.Metrics()
	drops, _ := met.Counter("sentinel_server_push_drops_total")
	cmdErrs, _ := met.Counter("sentinel_server_cmd_errors_total")
	fdrops, _ := c.fol[0].DB.Metrics().Counter("sentinel_server_push_drops_total")
	r.fail(int64(drops+fdrops), "%d pushes dropped on a full session queue", drops+fdrops)

	if cfg.traced {
		if err := c.layerMetrics(cfg, r, s, open, ladder, a, b, tr, refP50, float64(cmdErrs), float64(drops+fdrops)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sampleLag polls the primary's replication lag every 10 ms until stopped
// and records the maximum.
func (c *cluster) sampleLag(r *run) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var maxLag uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if lag := c.pdb.Stats().Replication.LagBatches; lag > maxLag {
					maxLag = lag
				}
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		r.m["repl.lag_batches_max"] = float64(maxLag)
	}
}
