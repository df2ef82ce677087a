package main

// remote_trace.go turns remote_push's traced pass into spans and per-layer
// metrics. Every timestamp — the generator's, the primary's tracer, the
// followers' tracers, the two subscribers' — is read from one process clock,
// so the spans of one request line up without clock alignment.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"sentinel/internal/client"
	"sentinel/internal/core"
	"sentinel/internal/value"
	"sentinel/internal/wire"
)

// captureReplFrames attaches a passive third follower connection to the
// primary — after the window, so it is never on a measured path — sends n
// more requests and returns the OpReplFrames payloads the primary shipped
// for them. The tap never acknowledges; the real followers keep the quorum.
func (c *cluster) captureReplFrames(s *sender, n int) ([][]byte, error) {
	ctx := context.Background()
	tap, err := client.Dial(ctx, c.psrv.Addr())
	if err != nil {
		return nil, err
	}
	defer tap.Close()
	var mu sync.Mutex
	var frames [][]byte
	tap.OnPush(func(op byte, payload []byte) {
		if op == wire.OpReplFrames {
			mu.Lock()
			frames = append(frames, append([]byte(nil), payload...))
			mu.Unlock()
		}
	})
	if _, _, _, err := tap.ReplHello(ctx, c.pdb.ReplLSN(), c.pri.Epoch()); err != nil {
		return nil, fmt.Errorf("tap hello: %w", err)
	}
	for i := 0; i < n; i++ {
		call, seq := s.issue(c.log.now())
		s.complete(call, seq)
	}
	c.settle(s.next, 10*time.Second)
	c.pdb.WaitIdle()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := len(frames)
		mu.Unlock()
		if got >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	return frames, nil
}

func (c *cluster) layerMetrics(cfg config, r *run, s *sender, open phase, ladder []phase,
	a, b probe, tr *recorder, refP50, cmdErrs, drops float64) error {
	l, m := c.log, r.m
	ops := open.last - open.first
	runtimeMetrics(m, a, b, ops)
	coreLayerCounts(m, a, b, ops)
	recs := tr.records()
	// The recorder and the push log have different epochs; shift the tracer
	// records onto the push log's clock.
	shift := int64(tr.epoch.Sub(l.epoch))
	for i := range recs {
		recs[i].end += shift
	}
	ht := timingsOf(recs, 0)
	hookLayerTimings(m, ht)

	// loadgen: was the offered load what the schedule says?
	m["loadgen.offered_rps"] = ratio(float64(ops), float64(open.end-open.start)/1e9)
	m["loadgen.late_p99_us"] = open.late.tailus()
	m["loadgen.inflight_end"] = float64(open.inflightEnd)
	m["loadgen.sustained_rps"] = c.sustained(ladder)
	m["client.ping_rtt_p50_us"] = open.pings.p50us()
	ack := l.latencies(open, l.toAck)
	m["client.ack_p50_us"], m["client.ack_p99_us"] = ack.p50us(), ack.tailus()
	pa := l.latencies(open, l.toPushA)
	m["core.sink.push_p50_us"], m["core.sink.push_p99_us"] = pa.p50us(), pa.tailus()
	var lag durs
	for seq := open.first; seq < open.last; seq++ {
		if pa, pb := l.toPushA(seq), l.toPushB(seq); pa != 0 && pb != 0 {
			lag = append(lag, time.Duration(pb-pa))
		}
	}
	m["repl.apply_lag_p50_us"], m["repl.apply_lag_p99_us"] = lag.p50us(), lag.tailus()
	m["repl.quorum_degraded"] = float64(b.st.Replication.QuorumDegraded - a.st.Replication.QuorumDegraded)

	// server and sink counters, from the databases' metric registries.
	for name, v := range serverCounters(c.pdb) {
		m[name] = float64(v - c.srvBase[name])
	}
	m["server.push_drops"], m["server.cmd_errors"] = drops, cmdErrs

	// Replays: parser, codecs, detector.
	parseNs, err := parseReplay(l.scripts[open.first-1 : open.last-1])
	if err != nil {
		return fmt.Errorf("parse replay: %w", err)
	}
	m["lang.parse_ns_per_req"] = parseNs
	m["event.feed_ns_per_occ"] = eventReplay(l.isIndex[open.first-1 : open.last-1])
	const tapped = 64
	first := s.next
	batches, err := c.captureReplFrames(s, tapped)
	if err != nil {
		return err
	}
	var frames []wire.Frame
	for seq := first; seq < s.next; seq++ {
		script := l.scripts[seq-1]
		frames = append(frames,
			wire.Frame{Op: wire.OpExec, ReqID: uint32(seq), Payload: wire.AppendValues(nil, value.Str(script))},
			wire.Frame{Op: wire.OpOK, ReqID: uint32(seq)})
	}
	for _, ev := range c.sampleEvents(first, s.next) {
		// One push per connection per request.
		f := wire.Frame{Op: wire.OpEvent, Payload: wire.AppendEvent(nil, ev)}
		frames = append(frames, f, f)
	}
	for _, p := range batches {
		// Shipped once per follower.
		f := wire.Frame{Op: wire.OpReplFrames, Payload: p}
		for i := 0; i < remoteFollowers; i++ {
			frames = append(frames, f)
		}
	}
	m["wire.encode_ns_per_frame"], m["wire.decode_ns_per_frame"], m["wire.bytes_per_op"], err = wireReplay(frames, tapped)
	if err != nil {
		return fmt.Errorf("wire replay: %w", err)
	}

	// Spans.
	ss, quorum, serverSelf := c.spans(open, recs, parseNs)
	m["repl.quorum_wait_p50_us"] = quorum.p50us()
	m["server.self_p50_us"] = serverSelf.p50us()
	m["core.send.self_ns"] = ss.selfP50us("core.send") * 1e3
	m["core.tx.commit_self_us"] = ss.selfP50us("core.tx")
	ss.traceMetrics(m, l.latencies(open, l.toPushB).p50us(), refP50)
	if d := tr.dropped.Load(); d > 0 {
		r.notes = append(r.notes, fmt.Sprintf("trace buffer full: %d records dropped", d))
	}
	return ss.write(cfg.traceDir, cfg.workload)
}

// serverCounters reads the session layer's and the sink's counters from the
// database's metric registry (they are not part of Stats()).
func serverCounters(db *core.Database) map[string]uint64 {
	snap := db.Metrics()
	out := map[string]uint64{}
	for name, key := range map[string]string{
		"server.frames_in":      "sentinel_server_frames_in_total",
		"server.frames_out":     "sentinel_server_frames_out_total",
		"server.pushes_sent":    "sentinel_server_pushes_sent_total",
		"core.sink.push_events": "sentinel_push_events_total",
	} {
		out[name], _ = snap.Counter(key)
	}
	return out
}

// sustained is the highest ladder rate whose step met the push-latency
// limit at its tail, lost nothing and did not build a backlog.
func (c *cluster) sustained(ladder []phase) float64 {
	l := c.log
	best := 0.0
	for i, ph := range ladder {
		n := ph.last - ph.first
		push := l.latencies(ph, l.toPushB)
		h, got := push.total()
		ok := got == n && h.quantile(tailQ(h.n))/1e3 <= pushLimitUs && ph.inflightEnd <= ph.inflightMid+2
		if ok && remoteLadder[i] > best {
			best = remoteLadder[i]
		}
	}
	return best
}

// sampleEvents rebuilds the push events of requests [first, last) as the
// server encodes them.
func (c *cluster) sampleEvents(first, last int64) []wire.Event {
	p := c.mk.parts[0]
	var out []wire.Event
	for seq := first; seq < last; seq++ {
		ev := wire.Event{SubID: uint64(seq), Source: p.stocks[0], Class: "Stock", Method: "SetPrice", Moment: 1,
			Seq: uint64(seq), Args: []value.Value{value.Int(seq)}, ParamNames: []string{"p"}}
		if c.log.isIndex[seq-1] {
			ev.Source, ev.Class, ev.Method, ev.ParamNames = p.index, "Index", "SetValue", []string{"v"}
		}
		out = append(out, ev)
	}
	return out
}

// spans builds one tree per traced request. Root: due time → push at B.
// Children, in path order: the generator's lateness, the inbound leg (client
// encode, TCP, server read and decode), the transaction body with the
// rule's condition and action, the commit with the WAL work and the quorum
// wait inside it, and the follower leg: ship, follower apply (its WAL append
// and fsync), and the push back out to B. The response to A and the
// detached firing are recorded off the path.
func (c *cluster) spans(open phase, recs []rec, parseNs float64) (ss *spanSet, quorum, serverSelf durs) {
	l := c.log
	ss = newSpanSet()
	// Foreground transactions on the primary are the ones that raised an
	// occurrence; the session is serial, so the k-th of them is the k-th
	// request that reached the primary while the tracer was on.
	byTx := indexByTx(recs, 0)
	type txAt struct {
		tx    uint64
		begin int64
	}
	var fg, detached []txAt
	for tx, rs := range byTx {
		var begin int64
		raised, det := false, false
		for _, r := range rs {
			switch r.kind {
			case recTxBegin:
				begin = r.end
			case recOcc:
				raised = true
			case recFired:
				det = det || r.coupling == coupDetached
			}
		}
		switch {
		case raised && begin != 0:
			fg = append(fg, txAt{tx, begin})
		case det && begin != 0:
			detached = append(detached, txAt{tx, begin})
		}
	}
	sort.Slice(fg, func(i, j int) bool { return fg[i].begin < fg[j].begin })
	sort.Slice(detached, func(i, j int) bool { return detached[i].begin < detached[j].begin })
	pu := untimedOf(recs, 0)
	f1 := untimedOf(recs, 1)

	k, d := 0, 0
	for seq := open.first; seq < open.last; seq++ {
		due, sent, ack, pushB := l.due[seq], l.sent[seq], l.ack[seq].Load(), l.toPushB(seq)
		if pushB == 0 || ack == 0 {
			continue
		}
		// Advance to the first foreground transaction that began after this
		// request left the client.
		for k < len(fg) && fg[k].begin < sent {
			k++
		}
		if k == len(fg) || fg[k].begin > ack {
			continue // its begin fell outside the traced stretch
		}
		tx := fg[k]
		k++
		tree := []span{{req: seq, name: "request", layer: "bench", start: due, end: pushB, parent: -1}}
		tree = append(tree,
			span{req: seq, name: "late", layer: "loadgen", start: due, end: sent, parent: 0},
			span{req: seq, name: "inbound", layer: "server", start: sent, end: tx.begin, parent: 0})
		var commit rec
		tree, commit = txSpans(tree, 0, seq, byTx[tx.tx], pu)
		if commit.end == 0 {
			continue
		}
		ci := -1
		var fsyncEnd int64
		for i, sp := range tree {
			if sp.name == "commit" {
				ci = i
			}
			if sp.name == "fsync" && sp.end > fsyncEnd {
				fsyncEnd = sp.end
			}
		}
		if fsyncEnd == 0 {
			fsyncEnd = commit.end - commit.dur
		}
		tree = append(tree, span{req: seq, name: "quorum", layer: "repl", start: fsyncEnd, end: commit.end, parent: ci})
		quorum = append(quorum, time.Duration(commit.end-fsyncEnd))
		serverSelf = append(serverSelf, time.Duration((ack-sent)-(commit.end-tx.begin)-int64(parseNs)))

		// Follower 1's apply of this commit: its first WAL append after the
		// primary's fsync began, with the fsync that follows it.
		var fApp, fSync rec
		for _, w := range overlapping(f1.wal, commit.end-commit.dur, pushB) {
			if w.kind == recWALAppend && fApp.end == 0 {
				fApp = w
			}
			if w.kind == recWALFsync && fApp.end != 0 && fSync.end == 0 && w.end > fApp.end {
				fSync = w
			}
		}
		if fApp.end != 0 && fSync.end != 0 {
			tree = append(tree,
				span{req: seq, name: "ship", layer: "repl", start: fsyncEnd, end: fApp.end - fApp.dur, parent: 0},
				span{req: seq, name: "apply", layer: "wal", start: fApp.end - fApp.dur, end: fSync.end, parent: 0},
				span{req: seq, name: "push", layer: "core.sink", start: fSync.end, end: pushB, parent: 0})
		}
		tree = append(tree, span{req: seq, name: "response", layer: "server", start: commit.end, end: ack, parent: 0, offPath: true})
		for d < len(detached) && detached[d].begin < commit.end {
			d++
		}
		if d < len(detached) {
			for _, r := range byTx[detached[d].tx] {
				if r.kind == recTxCommit {
					tree = append(tree, span{req: seq, name: "detached", layer: "core.detached",
						start: detached[d].begin, end: r.end, parent: 0, offPath: true})
				}
			}
			d++
		}
		ss.addRequest(tree)
	}
	return ss, quorum, serverSelf
}
