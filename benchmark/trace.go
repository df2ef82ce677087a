package main

// trace.go is the traced pass: an obs.Tracer whose hooks append fixed-size
// records to a preallocated buffer, the benchmark's own per-request
// timestamps, and the join of the two into spans. All of it runs outside
// the program under test; spans recorded inside it are a later change.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/obs"
)

type recKind uint8

const (
	recOcc recKind = iota
	recFired
	recTxBegin
	recTxCommit
	recTxAbort
	recWALAppend
	recWALFsync
	recFault
)

const (
	coupImmediate uint8 = iota
	coupDeferred
	coupDetached
)

// rec is one tracer callback, reduced to numbers. end is nanoseconds since
// the recorder's epoch, taken inside the callback; dur (and dur2) are the
// durations the runtime reported, so a callback's interval is [end-dur, end].
type rec struct {
	kind     recKind
	node     uint8 // 0 = the embedded database or the primary, 1.. = followers
	coupling uint8
	tx       uint64
	end      int64
	dur      int64 // commit, append, fsync, fault: duration; fired: condition
	dur2     int64 // fired: action
	aux      uint64
}

// recorder is the in-memory trace buffer. The hooks may run on any
// goroutine; a slot is claimed with one atomic add and never reallocated.
type recorder struct {
	epoch   time.Time
	buf     []rec
	n       atomic.Int64
	dropped atomic.Int64
	// txMask samples transactions on high-rate workloads: a record carrying
	// a transaction id is kept only when id&txMask == 0.
	txMask uint64
}

func newRecorder(capacity int, txMask uint64) *recorder {
	return &recorder{epoch: time.Now(), buf: make([]rec, capacity), txMask: txMask}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(x rec) {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	x.end = r.now()
	r.buf[i] = x
}

func (r *recorder) records() []rec {
	n := r.n.Load()
	if n > int64(len(r.buf)) {
		n = int64(len(r.buf))
	}
	return r.buf[:n]
}

func couplingCode(s string) uint8 {
	switch s {
	case "deferred":
		return coupDeferred
	case "detached":
		return coupDetached
	}
	return coupImmediate
}

// tracer builds the hook set for one database.
func (r *recorder) tracer(node uint8) *obs.Tracer {
	keep := func(tx uint64) bool { return tx&r.txMask == 0 }
	return &obs.Tracer{
		OccurrenceRaised: func(i obs.OccurrenceInfo) {
			if keep(i.Tx) {
				r.add(rec{kind: recOcc, node: node, tx: i.Tx, aux: i.Source})
			}
		},
		RuleFired: func(i obs.RuleFireInfo) {
			if keep(i.Tx) {
				r.add(rec{kind: recFired, node: node, tx: i.Tx, coupling: couplingCode(i.Coupling),
					dur: int64(i.Condition), dur2: int64(i.Action)})
			}
		},
		TxBegin: func(i obs.TxInfo) {
			if keep(i.Tx) {
				r.add(rec{kind: recTxBegin, node: node, tx: i.Tx})
			}
		},
		TxCommit: func(i obs.TxInfo) {
			if keep(i.Tx) {
				r.add(rec{kind: recTxCommit, node: node, tx: i.Tx, dur: int64(i.Duration)})
			}
		},
		TxAbort: func(i obs.TxInfo) {
			if keep(i.Tx) {
				r.add(rec{kind: recTxAbort, node: node, tx: i.Tx})
			}
		},
		WALAppend: func(i obs.WALInfo) {
			r.add(rec{kind: recWALAppend, node: node, dur: int64(i.Duration), aux: uint64(i.Bytes)})
		},
		WALFsync: func(i obs.WALInfo) {
			r.add(rec{kind: recWALFsync, node: node, dur: int64(i.Duration)})
		},
		PageFault: func(i obs.PageInfo) {
			r.add(rec{kind: recFault, node: node, dur: int64(i.Duration), aux: i.OID})
		},
	}
}

func (r *recorder) install(db *core.Database, node uint8) { db.SetTracer(r.tracer(node)) }

// span is one traced interval. Spans of one request share req; parent is
// the index of the enclosing span within the request (-1 for the root).
// offPath marks work the request caused but did not wait for (detached
// firings): it is written to the span file and left out of the sums.
type span struct {
	req     int64
	name    string
	layer   string
	start   int64
	end     int64
	parent  int
	offPath bool
}

// request is the benchmark's own view of one embedded operation: the
// transaction it ran in and its call and return times.
type request struct {
	tx     uint64
	t0, t1 int64
}

// spanSet accumulates the requests' span trees and their per-layer self
// times.
type spanSet struct {
	spans  []span
	self   map[string]*durs // layer -> self time per request
	sumRat []float64        // per request: attributed share of the root
	unattr durs             // per request: root self time
}

func newSpanSet() *spanSet { return &spanSet{self: map[string]*durs{}} }

// addRequest appends one request's spans (tree[0] is the root) and books
// their self times: a span's duration minus the part its children cover.
func (ss *spanSet) addRequest(tree []span) {
	if len(tree) == 0 || tree[0].end <= tree[0].start {
		return
	}
	type iv struct{ a, b int64 }
	kids := make([][]iv, len(tree))
	for i := 1; i < len(tree); i++ {
		s := &tree[i]
		if s.offPath {
			continue
		}
		p := tree[s.parent]
		// A child is clipped to its parent: what sticks out is not time
		// the parent spent.
		if s.start < p.start {
			s.start = p.start
		}
		if s.end > p.end {
			s.end = p.end
		}
		if s.end < s.start {
			s.end = s.start
		}
		kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
	}
	perLayer := map[string]int64{}
	var rootSelf int64
	for i, s := range tree {
		if s.offPath {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		covered, hi := int64(0), s.start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			if v.a > hi {
				hi = v.a
			}
			covered += v.b - hi
			hi = v.b
		}
		self := (s.end - s.start) - covered
		if i == 0 {
			rootSelf = self
		} else {
			perLayer[s.layer] += self
		}
	}
	for layer, ns := range perLayer {
		d := ss.self[layer]
		if d == nil {
			d = &durs{}
			ss.self[layer] = d
		}
		*d = append(*d, time.Duration(ns))
	}
	total := tree[0].end - tree[0].start
	ss.sumRat = append(ss.sumRat, float64(total-rootSelf)/float64(total))
	ss.unattr = append(ss.unattr, time.Duration(rootSelf))
	if len(ss.spans) < maxSpansWritten {
		ss.spans = append(ss.spans, tree...)
	}
}

// maxSpansWritten bounds the span file; the sums use every request.
const maxSpansWritten = 200000

// selfP50us is the median self time of a layer over the requests that
// reached it.
func (ss *spanSet) selfP50us(layer string) float64 {
	if d := ss.self[layer]; d != nil {
		return d.p50us()
	}
	return 0
}

// write dumps the spans as JSON lines, one span per line.
func (ss *spanSet) write(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := 0
	for i, s := range ss.spans {
		if s.parent < 0 {
			base = i
		}
		parent := -1
		if s.parent >= 0 {
			parent = base + s.parent
		}
		fmt.Fprintf(w, `{"req":%d,"name":%q,"layer":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":%d,"off_path":%t}`+"\n",
			s.req, s.name, s.layer, s.start, s.end, parent, i, s.offPath)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceMetrics fills the trace.* layer.
func (ss *spanSet) traceMetrics(m map[string]float64, tracedP50us, untracedP50us float64) {
	m["trace.overhead_ratio"] = ratio(tracedP50us, untracedP50us)
	m["trace.span_sum_ratio"] = median(ss.sumRat)
	m["trace.unattributed_us"] = ss.unattr.p50us()
}

// txIndex groups one node's records by transaction, in arrival order.
type txIndex map[uint64][]rec

func indexByTx(recs []rec, node uint8) txIndex {
	idx := txIndex{}
	for _, r := range recs {
		if r.node != node {
			continue
		}
		switch r.kind {
		case recOcc, recFired, recTxBegin, recTxCommit, recTxAbort:
			idx[r.tx] = append(idx[r.tx], r)
		}
	}
	return idx
}

// overlapping returns the records of sorted (by end) whose interval
// intersects [a, b].
func overlapping(sorted []rec, a, b int64) []rec {
	// Sorted by end, not start: look a little past b for records that
	// started inside the interval. No WAL call lasts anywhere near this long.
	const lookahead = int64(50 * time.Millisecond)
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].end > a })
	var out []rec
	for ; i < len(sorted) && sorted[i].end-lookahead < b; i++ {
		if r := sorted[i]; r.end-r.dur < b {
			out = append(out, r)
		}
	}
	return out
}

// untimed is one node's records that carry no transaction id — WAL appends
// and fsyncs, page faults — sorted by end time; they are attached to the
// span whose interval they fall in.
type untimed struct{ wal, faults []rec }

func untimedOf(recs []rec, node uint8) untimed {
	var u untimed
	for _, r := range recs {
		if r.node != node {
			continue
		}
		switch r.kind {
		case recWALAppend, recWALFsync:
			u.wal = append(u.wal, r)
		case recFault:
			u.faults = append(u.faults, r)
		}
	}
	byEnd := func(rs []rec) { sort.Slice(rs, func(i, j int) bool { return rs[i].end < rs[j].end }) }
	byEnd(u.wal)
	byEnd(u.faults)
	return u
}

// txSpans appends the spans of one transaction under parent: the body
// (begin to commit start) with its immediate firings and page faults, and
// the commit with its deferred firings and the WAL work that overlaps it. A
// snapshot read has no commit; its body ends at the abort that releases the
// snapshot. It returns the commit record (zero if there was none).
func txSpans(tree []span, parent int, req int64, recs []rec, u untimed) ([]span, rec) {
	var begin, commit, abort rec
	var haveBegin, haveCommit, haveAbort bool
	for _, r := range recs {
		switch r.kind {
		case recTxBegin:
			begin, haveBegin = r, true
		case recTxCommit:
			commit, haveCommit = r, true
		case recTxAbort:
			abort, haveAbort = r, true
		}
	}
	if !haveBegin || !(haveCommit || haveAbort) {
		return tree, rec{}
	}
	body := len(tree)
	if !haveCommit {
		tree = append(tree, span{req: req, name: "read", layer: "core.mvcc", start: begin.end, end: abort.end, parent: parent})
		for _, f := range overlapping(u.faults, begin.end, abort.end) {
			tree = append(tree, span{req: req, name: "fault", layer: "core.pager", start: f.end - f.dur, end: f.end, parent: body})
		}
		return tree, rec{}
	}
	commitStart := commit.end - commit.dur
	tree = append(tree, span{req: req, name: "send", layer: "core.send", start: begin.end, end: commitStart, parent: parent})
	ci := len(tree)
	tree = append(tree, span{req: req, name: "commit", layer: "core.tx", start: commitStart, end: commit.end, parent: parent})
	for _, r := range recs {
		switch r.kind {
		case recOcc:
			tree = append(tree, span{req: req, name: "raise", layer: "event", start: r.end, end: r.end, parent: body})
		case recFired:
			p := body
			if r.end > commitStart {
				p = ci
			}
			if r.dur > 0 {
				tree = append(tree, span{req: req, name: "condition", layer: "lang", start: r.end - r.dur2 - r.dur, end: r.end - r.dur2, parent: p})
			}
			if r.dur2 > 0 {
				tree = append(tree, span{req: req, name: "action", layer: "lang", start: r.end - r.dur2, end: r.end, parent: p})
			}
		}
	}
	for _, f := range overlapping(u.faults, begin.end, commitStart) {
		tree = append(tree, span{req: req, name: "fault", layer: "core.pager", start: f.end - f.dur, end: f.end, parent: body})
	}
	for _, w := range overlapping(u.wal, commitStart, commit.end) {
		name := "append"
		if w.kind == recWALFsync {
			name = "fsync"
		}
		tree = append(tree, span{req: req, name: name, layer: "wal", start: w.end - w.dur, end: w.end, parent: ci})
	}
	return tree, commit
}

// hookTimings extracts the per-layer timings that come straight from the
// tracer hooks of one node.
type hookTimings struct {
	cond, action   durs // immediate + deferred firings
	commit         durs // transactions that raised an occurrence
	appendD, fsync durs
	fault          durs
}

func timingsOf(recs []rec, node uint8) hookTimings {
	var h hookTimings
	raised := map[uint64]bool{}
	for _, r := range recs {
		if r.node == node && r.kind == recOcc {
			raised[r.tx] = true
		}
	}
	for _, r := range recs {
		if r.node != node {
			continue
		}
		switch r.kind {
		case recFired:
			if r.coupling != coupDetached {
				if r.dur > 0 {
					h.cond = append(h.cond, time.Duration(r.dur))
				}
				if r.dur2 > 0 {
					h.action = append(h.action, time.Duration(r.dur2))
				}
			}
		case recTxCommit:
			if raised[r.tx] {
				h.commit = append(h.commit, time.Duration(r.dur))
			}
		case recWALAppend:
			h.appendD = append(h.appendD, time.Duration(r.dur))
		case recWALFsync:
			h.fsync = append(h.fsync, time.Duration(r.dur))
		case recFault:
			h.fault = append(h.fault, time.Duration(r.dur))
		}
	}
	return h
}
