package sim

// Differential and crash-model testing of the replication stream. Two
// harnesses:
//
//   - ReplDiff replays a seeded pseudo-random workload on a primary while
//     streaming every shipped batch into a live replica, then demands the
//     two databases end byte-identical (per-OID committed images) and that
//     per-subscriber push traces — a sink on the primary and an identically
//     filtered sink on the replica — match line for line.
//
//   - ReplTorture crash-models the stream at both ends: the encoded frame
//     stream is cut at every byte boundary (a primary-side disconnect mid
//     frame must never yield a torn batch), and the follower's filesystem
//     is crash-enumerated mid-apply with the fault VFS (the reopened
//     replica must sit on a consistent prefix at or above its fsync floor,
//     and resuming from its applied LSN must converge).
//
// Neither harness uses the network: batches go straight from the ship hook
// to ApplyReplicated, which is exactly what the wire layer transports.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/oid"
	"sentinel/internal/repl"
	"sentinel/internal/value"
	"sentinel/internal/vfs"
	"sentinel/internal/wal"
	"sentinel/internal/wire"
)

// replSimSchema is the first transaction of every replication scenario.
const replSimSchema = `
	class Item reactive persistent {
		attr val int
		event end method SetVal(v int) { self.val := v }
	}
	bind O0 new Item(val: 0)
	bind O1 new Item(val: 1)
	bind O2 new Item(val: 2)
`

// replStep is one transaction of a replication scenario: either a DSL
// script or the deletion of a named object.
type replStep struct {
	script     string
	deleteName string
}

// replEvolve adds an attribute in front of val, so every instance's layout
// shifts: a replica has to migrate them live, indexes included.
const replEvolve = `
	evolve class Item reactive persistent {
		attr note string = "v2"
		attr val int
		event end method SetVal(v int) { self.val := v }
	}
`

// genReplSteps expands a seed into a deterministic schedule: sends on the
// three fixed objects, creation of extra objects, deletion of extras,
// creating and dropping the index on Item.val, and — halfway — one evolve
// of Item.
func genReplSteps(seed int64, n int) []replStep {
	rng := rand.New(rand.NewSource(seed))
	alive := []string{"O0", "O1", "O2"}
	extras := []string{}
	nextExtra := 0
	indexed := false
	steps := []replStep{{script: replSimSchema}}
	for i := 0; i < n; i++ {
		if i == n/2 {
			steps = append(steps, replStep{script: replEvolve})
			continue
		}
		r := rng.Intn(11)
		switch {
		case r < 6: // one transaction of 1..3 sends
			var sb strings.Builder
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				fmt.Fprintf(&sb, "%s!SetVal(%d) ", alive[rng.Intn(len(alive))], i*10+j)
			}
			steps = append(steps, replStep{script: sb.String()})
		case r < 8: // create an extra object
			name := fmt.Sprintf("N%d", nextExtra)
			nextExtra++
			steps = append(steps, replStep{script: fmt.Sprintf("bind %s new Item(val: %d)", name, i)})
			alive = append(alive, name)
			extras = append(extras, name)
		case r < 10: // delete the youngest extra, if any; else a send
			if len(extras) == 0 {
				steps = append(steps, replStep{script: fmt.Sprintf("O0!SetVal(%d)", i*10)})
				break
			}
			name := extras[len(extras)-1]
			extras = extras[:len(extras)-1]
			for j, a := range alive {
				if a == name {
					alive = append(alive[:j], alive[j+1:]...)
					break
				}
			}
			steps = append(steps, replStep{deleteName: name})
		default: // create or drop the index
			if indexed {
				steps = append(steps, replStep{script: "unindex Item.val"})
			} else {
				steps = append(steps, replStep{script: "index Item.val"})
			}
			indexed = !indexed
		}
	}
	return steps
}

// runReplStep executes one step on db.
func runReplStep(db *core.Database, s replStep) error {
	if s.deleteName != "" {
		id, ok := db.Lookup(s.deleteName)
		if !ok {
			return fmt.Errorf("delete target %q unbound", s.deleteName)
		}
		return db.Atomically(func(t *core.Tx) error {
			return db.DeleteObject(t, id)
		})
	}
	return db.Exec(s.script)
}

// copyReplBatch deep-copies a shipped batch: the ship hook's record Data
// aliases the pooled commit scratch, valid only for the duration of the
// hook call.
func copyReplBatch(b core.ReplBatch) core.ReplBatch {
	cp := core.ReplBatch{LSN: b.LSN}
	for _, r := range b.Recs {
		data := append([]byte(nil), r.Data...)
		cp.Recs = append(cp.Recs, wal.Record{Type: r.Type, Tx: r.Tx, OID: r.OID, Data: data})
	}
	cp.Occs = append(cp.Occs, b.Occs...)
	return cp
}

// captureBatches installs a deep-copying Replicator on db that records the
// stream a follower could receive: every shipped batch, stamped with the
// durable mark as of its ship, and every later mark — carried by the last
// batch when it covers it (the frame a shipper sends after the flush),
// else appended as a bare mark.
func captureBatches(db *core.Database) *[]core.ReplBatch {
	var mu sync.Mutex
	var got []core.ReplBatch
	var mark uint64
	db.SetReplicator(core.Replicator{
		Ship: func(b core.ReplBatch) {
			mu.Lock()
			defer mu.Unlock()
			cp := copyReplBatch(b)
			cp.Mark = mark
			got = append(got, cp)
		},
		Durable: func(lsn uint64) {
			mu.Lock()
			defer mu.Unlock()
			mark = lsn
			if n := len(got); n > 0 && got[n-1].LSN != 0 && got[n-1].LSN <= lsn {
				got[n-1].Mark = lsn
				return
			}
			got = append(got, core.ReplBatch{Mark: lsn})
		},
	})
	return &got
}

// replState is a comparable image of a database's committed heap and of
// its secondary indexes: one line per indexed value, "Class.attr key ->
// OIDs", OIDs sorted, lines sorted.
type replState struct {
	lsn     uint64
	objs    map[oid.OID][]byte
	indexes []string
}

// captureReplState snapshots the committed heap via ReplBaseState — the
// same capture a base sync ships, so "the differ passes" and "a base sync
// is faithful" are one property — and lists every index's contents.
func captureReplState(db *core.Database) (*replState, error) {
	st, err := db.ReplBaseState()
	if err != nil {
		return nil, err
	}
	s := &replState{lsn: st.LSN, objs: make(map[oid.OID][]byte, len(st.Objects))}
	for _, o := range st.Objects {
		s.objs[o.ID] = o.Img
	}
	for _, h := range db.Indexes() {
		for key, ids := range h.Buckets() {
			value.SortRefs(ids)
			s.indexes = append(s.indexes, fmt.Sprintf("%s.%s %q -> %v", h.Class(), h.Attr(), key, ids))
		}
	}
	sort.Strings(s.indexes)
	return s, nil
}

// diffReplStates returns a description of the first divergence between two
// captured states, or "".
func diffReplStates(label string, a, b *replState) string {
	if a.lsn != b.lsn {
		return fmt.Sprintf("%s: LSN %d vs %d", label, a.lsn, b.lsn)
	}
	ids := make([]oid.OID, 0, len(a.objs))
	for id := range a.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		bi, ok := b.objs[id]
		if !ok {
			return fmt.Sprintf("%s: object %v present on primary, missing on replica", label, id)
		}
		if !bytes.Equal(a.objs[id], bi) {
			return fmt.Sprintf("%s: object %v image differs (%d vs %d bytes)", label, id, len(a.objs[id]), len(bi))
		}
	}
	if len(b.objs) != len(a.objs) {
		for id := range b.objs {
			if _, ok := a.objs[id]; !ok {
				return fmt.Sprintf("%s: object %v present on replica only", label, id)
			}
		}
	}
	for i := 0; i < max(len(a.indexes), len(b.indexes)); i++ {
		if pa, pb := lineAt(a.indexes, i), lineAt(b.indexes, i); pa != pb {
			return fmt.Sprintf("%s: index entry %d differs:\n  primary: %s\n  replica: %s", label, i, pa, pb)
		}
	}
	return ""
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}

// traceSink records committed-event pushes as deterministic strings, one
// stream per logical subscriber label. Labels are registered before any
// delivery, so the map is effectively read-only during the run.
type traceSink struct {
	mu     sync.Mutex
	labels map[uint64]string
	lines  map[string][]string
}

func newTraceSink() *traceSink {
	return &traceSink{labels: make(map[uint64]string), lines: make(map[string][]string)}
}

func (s *traceSink) DeliverEvent(subID uint64, occ event.Occurrence) {
	s.mu.Lock()
	defer s.mu.Unlock()
	label := s.labels[subID]
	s.lines[label] = append(s.lines[label],
		fmt.Sprintf("seq=%d %s.%s %s src=%v args=%v", occ.Seq, occ.Class, occ.Method, occ.When, occ.Source, occ.Args))
}

// subSpec is one logical subscriber: an object index into {O0,O1,O2} and a
// sink filter.
type subSpec struct {
	obj    int
	filter core.SinkFilter
}

// genSubSpecs draws 2..4 subscriber specs from the seed's stream.
func genSubSpecs(rng *rand.Rand) []subSpec {
	n := 2 + rng.Intn(3)
	specs := make([]subSpec, n)
	for i := range specs {
		specs[i] = subSpec{obj: rng.Intn(3)}
		if rng.Intn(2) == 0 {
			specs[i].filter.Method = "SetVal"
		}
		if rng.Intn(3) == 0 {
			specs[i].filter.Moment = event.End
			specs[i].filter.MomentSet = true
		}
	}
	return specs
}

// subscribeSpecs attaches the specs to db's named objects, labelling each
// subscription sub<i> in sink.
func subscribeSpecs(db *core.Database, sink *traceSink, specs []subSpec) error {
	for i, sp := range specs {
		name := fmt.Sprintf("O%d", sp.obj)
		id, ok := db.Lookup(name)
		if !ok {
			return fmt.Errorf("%s unbound", name)
		}
		subID, err := db.SubscribeSink(id, sp.filter, sink)
		if err != nil {
			return err
		}
		sink.labels[subID] = fmt.Sprintf("sub%d", i)
	}
	return nil
}

// ReplDiff replays one seeded scenario on a primary, streams every shipped
// batch into a live replica, and returns a description of the first
// divergence — in committed heap images or in any subscriber's push trace —
// or "" when primary and replica agree exactly.
func ReplDiff(seed int64) (string, error) {
	steps := genReplSteps(seed, 15+int(seed%11))
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	specs := genSubSpecs(rng)

	pri, err := core.Open(core.Options{Dir: "p", VFS: vfs.NewMem(), Output: io.Discard})
	if err != nil {
		return "", err
	}
	defer pri.Close()
	rep, err := core.Open(core.Options{Dir: "r", VFS: vfs.NewMem(), Replica: true, Output: io.Discard})
	if err != nil {
		return "", err
	}
	defer rep.Close()

	pending := captureBatches(pri)
	drain := func() error {
		for _, b := range *pending {
			if err := rep.ApplyReplicated(b); err != nil {
				return fmt.Errorf("apply LSN %d: %w", b.LSN, err)
			}
		}
		*pending = (*pending)[:0]
		return nil
	}

	// The schema transaction replicates before either side subscribes, so
	// both sinks observe exactly the post-setup stream.
	if err := runReplStep(pri, steps[0]); err != nil {
		return "", fmt.Errorf("seed %d schema: %w", seed, err)
	}
	if err := drain(); err != nil {
		return "", fmt.Errorf("seed %d schema: %w", seed, err)
	}
	priSink, repSink := newTraceSink(), newTraceSink()
	if err := subscribeSpecs(pri, priSink, specs); err != nil {
		return "", err
	}
	if err := subscribeSpecs(rep, repSink, specs); err != nil {
		return "", err
	}

	for i, s := range steps[1:] {
		if err := runReplStep(pri, s); err != nil {
			return "", fmt.Errorf("seed %d step %d: %w", seed, i+1, err)
		}
		if err := drain(); err != nil {
			return "", fmt.Errorf("seed %d step %d: %w", seed, i+1, err)
		}
	}

	ps, err := captureReplState(pri)
	if err != nil {
		return "", err
	}
	rs, err := captureReplState(rep)
	if err != nil {
		return "", err
	}
	if d := diffReplStates(fmt.Sprintf("seed %d", seed), ps, rs); d != "" {
		return d, nil
	}

	for i := range specs {
		label := fmt.Sprintf("sub%d", i)
		p, r := priSink.lines[label], repSink.lines[label]
		n := len(p)
		if len(r) < n {
			n = len(r)
		}
		for k := 0; k < n; k++ {
			if p[k] != r[k] {
				return fmt.Sprintf("seed %d, %s: push %d differs:\n  primary: %s\n  replica: %s",
					seed, label, k, p[k], r[k]), nil
			}
		}
		if len(p) != len(r) {
			return fmt.Sprintf("seed %d, %s: primary delivered %d pushes, replica %d",
				seed, label, len(p), len(r)), nil
		}
	}
	return "", nil
}

// ReplTortureResult summarizes one replication crash sweep.
type ReplTortureResult struct {
	WireCuts    int      // byte-level stream truncation points enumerated
	CrashStates int      // (cut, mode) follower crash points enumerated
	Reopens     int      // distinct follower states reopened and checked
	Violations  []string // invariant violations, empty on success
}

// replTortureSeed fixes the schedule the crash sweeps run against; the
// sweep's value is in the cuts, not in schedule variety (ReplDiff covers
// that).
const replTortureSeed = 1

// ReplTorture crash-models the replication stream. The wire sweep cuts the
// encoded frame stream at every stride-th byte and demands the decodable
// prefix is exactly the complete frames — never a torn batch — and that a
// replica fed that prefix plus a resume from its applied LSN converges.
// The follower sweep crash-enumerates the replica's filesystem mid-apply
// in every crash mode and demands the reopened replica sits on a
// consistent prefix at or above its fsync floor, then converges on resume.
func ReplTorture(stride int) (*ReplTortureResult, error) {
	if stride < 1 {
		stride = 1
	}
	res := &ReplTortureResult{}

	// Ground truth: run the schedule once, capturing every shipped batch.
	pri, err := core.Open(core.Options{Dir: "p", VFS: vfs.NewMem(), Output: io.Discard})
	if err != nil {
		return nil, err
	}
	got := captureBatches(pri)
	for i, s := range genReplSteps(replTortureSeed, 14) {
		if err := runReplStep(pri, s); err != nil {
			pri.Close()
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	batches := make([]core.ReplBatch, 0, len(*got))
	for _, b := range *got {
		if b.LSN != 0 {
			batches = append(batches, b)
		}
	}
	pri.Close()
	if len(batches) < 8 {
		return nil, fmt.Errorf("schedule shipped only %d data batches: too sparse", len(batches))
	}

	// Per-LSN state oracle: a reference replica applies batch by batch and
	// its heap image is captured after each.
	oracle := make([]*replState, len(batches)+1)
	ref, err := openSimReplica(vfs.NewMem())
	if err != nil {
		return nil, err
	}
	if oracle[0], err = captureReplState(ref); err != nil {
		ref.Close()
		return nil, err
	}
	for i, b := range batches {
		if err := ref.ApplyReplicated(b); err != nil {
			ref.Close()
			return nil, fmt.Errorf("oracle apply LSN %d: %w", b.LSN, err)
		}
		if oracle[i+1], err = captureReplState(ref); err != nil {
			ref.Close()
			return nil, err
		}
	}
	ref.Close()

	if err := wireCutSweep(res, batches, oracle, stride); err != nil {
		return nil, err
	}
	if err := followerCrashSweep(res, batches, oracle, stride); err != nil {
		return nil, err
	}
	return res, nil
}

func openSimReplica(fs vfs.FS) (*core.Database, error) {
	return core.Open(core.Options{Dir: "r", VFS: fs, Replica: true, SyncOnCommit: true, Output: io.Discard})
}

// applyAndCheck feeds batches[from:] to rep and verifies the final heap
// matches the oracle's last entry.
func applyAndCheck(rep *core.Database, batches []core.ReplBatch, from int, oracle []*replState, label string) []string {
	var errs []string
	for _, b := range batches[from:] {
		if err := rep.ApplyReplicated(b); err != nil {
			return append(errs, fmt.Sprintf("%s: resume apply LSN %d: %v", label, b.LSN, err))
		}
	}
	final, err := captureReplState(rep)
	if err != nil {
		return append(errs, fmt.Sprintf("%s: capture after resume: %v", label, err))
	}
	if d := diffReplStates(label+" after resume", oracle[len(oracle)-1], final); d != "" {
		errs = append(errs, d)
	}
	return errs
}

// wireCutSweep cuts the encoded frame stream at byte granularity. Frames
// are length-prefixed, so every cut must decode to exactly the complete
// frames before it; the replica check runs once per distinct prefix length.
func wireCutSweep(res *ReplTortureResult, batches []core.ReplBatch, oracle []*replState, stride int) error {
	var stream []byte
	boundaries := []int{0} // stream offsets at which a frame ends
	for _, b := range batches {
		stream = wire.AppendFrame(stream, wire.Frame{
			Op:      wire.OpReplFrames,
			Payload: wire.AppendReplBatch(nil, repl.BatchToWire(b)),
		})
		boundaries = append(boundaries, len(stream))
	}

	checked := make(map[int]bool)
	for cut := 0; ; cut += stride {
		if cut > len(stream) {
			cut = len(stream)
		}
		res.WireCuts++

		// Decode the prefix; count frames and reject any torn tail.
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		frames := 0
		var decoded []core.ReplBatch
		for {
			f, _, err := wire.ReadFrame(br, nil)
			if err != nil {
				break // torn tail (or clean EOF): the stream ends here
			}
			wb, err := wire.DecodeReplBatch(f.Payload)
			if err != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("wire cut %d: complete frame %d failed to decode: %v", cut, frames, err))
				break
			}
			decoded = append(decoded, repl.BatchFromWire(wb))
			frames++
		}
		want := 0
		for _, b := range boundaries[1:] {
			if b <= cut {
				want++
			}
		}
		if frames != want {
			res.Violations = append(res.Violations,
				fmt.Sprintf("wire cut %d: decoded %d frames, stream contains %d complete — a torn frame leaked", cut, frames, want))
		}

		// Once per distinct prefix: a replica fed the prefix sits exactly at
		// the oracle state for that LSN, and resuming converges.
		if !checked[frames] {
			checked[frames] = true
			rep, err := openSimReplica(vfs.NewMem())
			if err != nil {
				return err
			}
			label := fmt.Sprintf("wire cut %d (%d frames)", cut, frames)
			for _, b := range decoded {
				if err := rep.ApplyReplicated(b); err != nil {
					res.Violations = append(res.Violations, fmt.Sprintf("%s: apply LSN %d: %v", label, b.LSN, err))
					break
				}
			}
			if got := rep.ReplLSN(); got != uint64(frames) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: replica at LSN %d, want %d", label, got, frames))
			} else {
				if d := diffReplStates(label, oracle[frames], mustState(rep)); d != "" {
					res.Violations = append(res.Violations, d)
				}
				res.Violations = append(res.Violations, applyAndCheck(rep, batches, frames, oracle, label)...)
			}
			rep.Close()
		}
		if cut == len(stream) {
			break
		}
	}
	return nil
}

func mustState(db *core.Database) *replState {
	s, err := captureReplState(db)
	if err != nil {
		return &replState{}
	}
	return s
}

// followerCrashSweep applies the full stream to a replica on the fault VFS
// (SyncOnCommit, so each apply's fsync is journaled), then enumerates power
// cuts. Every reopened state must be a consistent prefix — the heap image
// of SOME applied LSN, at or above the fsync floor — and must accept the
// rest of the stream from exactly that point.
func followerCrashSweep(res *ReplTortureResult, batches []core.ReplBatch, oracle []*replState, stride int) error {
	fault := vfs.NewFault()
	rep, err := openSimReplica(fault)
	if err != nil {
		return err
	}
	type mark struct {
		lsn uint64
		ops int
	}
	var marks []mark
	for _, b := range batches {
		if err := rep.ApplyReplicated(b); err != nil {
			rep.CloseAbrupt()
			return fmt.Errorf("fault apply LSN %d: %w", b.LSN, err)
		}
		marks = append(marks, mark{lsn: b.LSN, ops: fault.Ops()})
	}
	rep.CloseAbrupt()
	totalOps := fault.Ops()
	floorLSN := func(k int) uint64 {
		var l uint64
		for _, m := range marks {
			if m.ops <= k && m.lsn > l {
				l = m.lsn
			}
		}
		return l
	}

	type cached struct {
		lsn  uint64
		errs []string
	}
	seen := make(map[uint32]cached)
	for _, mode := range vfs.Modes {
		for k := 0; k <= totalOps; k += stride {
			res.CrashStates++
			st := fault.CrashState(k, mode)
			h := stateHash(st)
			c, ok := seen[h]
			if !ok {
				res.Reopens++
				c = checkReplicaState(st, batches, oracle)
				seen[h] = c
			}
			label := fmt.Sprintf("follower cut %d/%d, %v", k, totalOps, mode)
			for _, e := range c.errs {
				res.Violations = append(res.Violations, label+": "+e)
			}
			if floor := floorLSN(k); c.lsn < floor {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: recovered LSN %d below fsync floor %d", label, c.lsn, floor))
			}
		}
	}
	return nil
}

// checkReplicaState reopens a follower crash image and verifies the
// consistent-prefix and resume invariants.
func checkReplicaState(st map[string][]byte, batches []core.ReplBatch, oracle []*replState) (c struct {
	lsn  uint64
	errs []string
}) {
	defer func() {
		if r := recover(); r != nil {
			c.errs = append(c.errs, fmt.Sprintf("recovery panicked: %v", r))
		}
	}()
	mem := vfs.NewMem()
	mem.Install(st)
	rep, err := openSimReplica(mem)
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("reopen failed: %v", err))
		return c
	}
	defer rep.CloseAbrupt()

	c.lsn = rep.ReplLSN()
	if c.lsn > uint64(len(batches)) {
		c.errs = append(c.errs, fmt.Sprintf("recovered LSN %d beyond the stream (%d batches)", c.lsn, len(batches)))
		return c
	}
	if d := diffReplStates(fmt.Sprintf("recovered LSN %d", c.lsn), oracle[c.lsn], mustState(rep)); d != "" {
		c.errs = append(c.errs, d)
		return c
	}
	c.errs = append(c.errs, applyAndCheck(rep, batches, int(c.lsn), oracle, fmt.Sprintf("recovered LSN %d", c.lsn))...)
	return c
}
