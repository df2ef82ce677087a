package core

import (
	"fmt"
	"time"

	"sentinel/internal/event"
	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// Send delivers a message to an object from application code: the method is
// resolved through the receiver's class (virtual dispatch), visibility is
// enforced, and — when the receiver's class is reactive and the method is
// declared in its event interface — bom/eom events are generated and
// propagated to subscribed consumers (§3.1, Fig. 1).
func (db *Database) Send(t *Tx, target oid.OID, method string, args ...value.Value) (value.Value, error) {
	return db.send(t, target, method, args, nil, false, 0)
}

// send is the internal dispatcher. caller is the class whose code performs
// the send (nil for application code), sysAccess bypasses visibility (rule
// bodies), depth is the rule-cascade depth of the surrounding execution.
func (db *Database) send(t *Tx, target oid.OID, method string, args []value.Value, caller *schema.Class, sysAccess bool, depth int) (value.Value, error) {
	db.met.sends.Inc()
	o, err := db.lockObject(t, target, txn.Exclusive)
	if err != nil {
		return value.Nil, err
	}
	m := o.Class().MethodNamed(method)
	if m == nil {
		return value.Nil, fmt.Errorf("core: class %s has no method %q", o.Class().Name, method)
	}
	if err := checkMethodVisible(m, caller, sysAccess); err != nil {
		return value.Nil, err
	}
	args, err = m.CheckArgs(args)
	if err != nil {
		return value.Nil, err
	}

	generates := o.Class().Reactive() && m.EventGen != schema.GenNone

	if generates && m.EventGen.Begin() {
		if err := db.raise(t, o, m.Name, event.Begin, args, m.ParamNames(), depth); err != nil {
			return value.Nil, err
		}
	}

	fr := t.getFrame()
	*fr = frame{db: db, tx: t, self: o, method: m, args: args, depth: depth}
	ret, err := m.Body(fr)
	t.putFrame(fr)
	if err != nil {
		return value.Nil, err
	}

	if generates && m.EventGen.End() {
		if err := db.raise(t, o, m.Name, event.End, args, m.ParamNames(), depth); err != nil {
			return value.Nil, err
		}
	}
	return ret, nil
}

// raise generates one primitive-event occurrence and propagates it to the
// consumers of the source object: instance-level subscribers (rules and Go
// callbacks, via the subscription mechanism of §3.5) and class-level rules
// of every class in the source's MRO (§4.7). Immediate firings execute
// in-line in conflict-resolution order; deferred firings queue on the
// transaction; detached firings queue for post-commit.
func (db *Database) raise(t *Tx, src *object.Object, method string, when event.Moment, args []value.Value, names []string, depth int) error {
	m := db.met
	m.eventsRaised.Inc()
	// The logical clock ticks for every occurrence, observed or not: Seq
	// numbers are a property of event generation, not of delivery.
	seqNo := db.nextSeq()

	// The tracer sees every occurrence, consumed or not — an event that
	// nobody subscribed to is exactly what a trace is for.
	tr := db.tracer.Load()
	if tr != nil && tr.OccurrenceRaised != nil {
		tr.OccurrenceRaised(obs.OccurrenceInfo{
			Source: uint64(src.ID()),
			Class:  src.Class().Name,
			Method: method,
			Moment: when.String(),
			Seq:    seqNo,
			Tx:     uint64(t.inner.ID()),
		})
	}

	// Resolve consumers first (usually a zero-alloc cache hit); with no
	// consumers the occurrence would be observed by nobody, so skip
	// building it entirely. Remote sinks count as consumers, but cost only
	// one atomic load here when none exist — the hot path with no remote
	// subscribers is unchanged.
	rules, fns := db.consumersOf(src)
	if db.opts.Replica {
		// Rules ran on the primary; their effects arrive in shipped batches.
		// Firing them again here would double-apply (and their actions would
		// be rejected as replica writes anyway). Local sinks and notify
		// functions still observe the occurrence.
		rules = nil
	}
	hasSinks := db.sinkCount.Load() > 0
	shipOccs := db.repl.Load().Ship != nil
	if len(rules) == 0 && len(fns) == 0 && !hasSinks && !shipOccs {
		return nil
	}

	occ := event.Occurrence{
		Source:     src.ID(),
		Class:      src.Class().Name,
		Method:     method,
		When:       when,
		Args:       args,
		ParamNames: names,
		Seq:        seqNo,
		Tx:         uint64(t.inner.ID()),
	}

	// Remote subscriptions: record matches now (the source lock is held and
	// the occurrence is in hand), deliver at commit (sink.go).
	if hasSinks {
		t.pushes = db.sinkReg.match(t.pushes, &occ)
	}
	// Replication: occurrences ride the shipped commit batch (or an
	// event-only batch when the transaction writes nothing durable), so
	// follower-side subscribers see the same stream local sinks do.
	if shipOccs {
		t.replOccs = append(t.replOccs, occ)
	}

	for _, fc := range fns {
		m.notifications.Inc()
		fc.Fn(occ)
	}

	// The immediate batch reuses the transaction's scratch buffer. Take
	// ownership for the duration of this raise: runFiring can recursively
	// raise (cascades), and the nested raise must not clobber our batch —
	// it sees nil and allocates its own, which we adopt back if larger.
	immediate := t.fireScratch[:0]
	t.fireScratch = nil
	seq := uint64(0)
	// Conflict keys for detached firings: the write set is snapshotted once
	// per raise (it cannot change between consumers of one occurrence), and
	// the shared slice is read-only downstream.
	var writeSet []oid.OID
	writeSetDone := false
	for _, r := range rules {
		m.notifications.Inc()
		if r.TxScoped {
			if t.touched == nil {
				t.touched = make(map[*rule.Rule]bool)
			}
			t.touched[r] = true
		}
		dets := r.Notify(occ)
		if len(dets) == 0 {
			continue
		}
		m.detections.Add(uint64(len(dets)))
		for _, det := range dets {
			if tr != nil && tr.CompositeDetected != nil {
				tr.CompositeDetected(obs.DetectionInfo{
					Rule:         r.Name(),
					Event:        r.Event.Label(),
					Constituents: len(det.Constituents),
					FirstSeq:     det.Start(),
					LastSeq:      det.End(),
					Tx:           uint64(t.inner.ID()),
				})
			}
			m.rulesScheduled.Inc()
			if tr != nil && tr.RuleScheduled != nil {
				tr.RuleScheduled(obs.RuleScheduleInfo{
					Rule:     r.Name(),
					Coupling: r.Coupling.String(),
					Priority: r.Priority,
					Depth:    depth,
					Tx:       uint64(t.inner.ID()),
				})
			}
			switch r.Coupling {
			case rule.Immediate:
				seq++
				immediate = append(immediate, rule.Firing{Rule: r, Detection: det, Seq: seq})
			case rule.Deferred:
				t.deferred.Add(r, det)
			case rule.Detached:
				if !writeSetDone {
					writeSet = t.writeSetOIDs()
					writeSetDone = true
				}
				t.detached = append(t.detached, rule.Firing{
					Rule: r, Detection: det,
					Subscriber: src.ID(), WriteSet: writeSet,
				})
			}
		}
	}

	var err error
	if len(immediate) > 0 {
		db.currentStrategy().Order(immediate)
		for i := range immediate {
			if err = db.runFiring(t, &immediate[i], depth+1); err != nil {
				break
			}
		}
	}
	// Return the buffer (ours, or a bigger one a nested raise grew).
	if cap(immediate) > cap(t.fireScratch) {
		clearFirings(immediate[:cap(immediate)])
		t.fireScratch = immediate[:0]
	}
	return err
}

// clearFirings zeroes a firing slice so the scratch buffer does not pin
// rules and detections beyond the raise that used them.
func clearFirings(fs []rule.Firing) {
	for i := range fs {
		fs[i] = rule.Firing{}
	}
}

// runFiring evaluates one triggered rule: condition, then action, at the
// given cascade depth, inside transaction t. f is a pointer into the
// caller's batch so the Firing (and its Detection) is not copied to the
// heap per execution; it is only read.
func (db *Database) runFiring(t *Tx, f *rule.Firing, depth int) error {
	return db.runFiringWith(t, nil, f, depth)
}

// runDetachedFiring evaluates one detached firing. With
// Options.SnapshotConditions the condition runs against a read-only MVCC
// snapshot (a consistent committed state at or after the triggering
// commit, lock-free); the action, when the condition holds, still runs in
// the firing's own locking transaction t.
func (db *Database) runDetachedFiring(t *Tx, f *rule.Firing, depth int) error {
	if !db.opts.SnapshotConditions || f.Rule.Condition == nil {
		return db.runFiring(t, f, depth)
	}
	condTx := db.BeginSnapshot()
	defer db.Abort(condTx) // releases the snapshot; nothing to roll back
	return db.runFiringWith(t, condTx, f, depth)
}

// runFiringWith is runFiring with an optional snapshot transaction for the
// condition: when condTx is non-nil the condition's frame reads through it
// (self included), and the frame flips back to t before the action runs.
func (db *Database) runFiringWith(t, condTx *Tx, f *rule.Firing, depth int) error {
	if depth > db.opts.MaxCascadeDepth {
		return fmt.Errorf("core: rule cascade exceeded depth %d at rule %s (cycle?)", db.opts.MaxCascadeDepth, f.Rule.Name())
	}
	// Timing is sampled (1 in MetricsSampling) unless a RuleFired hook or a
	// slow-rule threshold forces it; the epilogue below is linear code so
	// the untimed path adds only the sampling decision.
	m := db.met
	tr := db.tracer.Load()
	timed := m.shouldTimeFiring(tr)
	var start time.Time
	if timed {
		start = time.Now()
	}

	// The rule's execution frame: self is the source of the terminating
	// occurrence, so DSL conditions can name its attributes bare (Fig. 9's
	// `sex == spouse.sex`). Rules run with system visibility — they are
	// part of the behaviour of the objects they monitor (§3.5).
	selfObj := db.objectByID(f.Detection.Last().Source)
	fr := t.getFrame()
	*fr = frame{db: db, tx: t, self: selfObj, depth: depth, sysAccess: true, detection: &f.Detection}
	defer t.putFrame(fr)

	ok := true
	var err error
	if f.Rule.Condition != nil {
		if condTx != nil {
			// Evaluate against the snapshot: reads through the frame resolve
			// at condTx's LSN, and self is the snapshot's materialization of
			// the source (nil when it is not visible there).
			so, serr := db.resolveSnapshot(f.Detection.Last().Source, condTx.snapLSN)
			if serr != nil {
				return serr
			}
			fr.tx, fr.self = condTx, so
		}
		m.conditionsRun.Inc()
		ok, err = f.Rule.Condition(fr, f.Detection)
		if condTx != nil {
			fr.tx, fr.self = t, selfObj
		}
	}
	var condEnd time.Time
	if timed {
		condEnd = time.Now()
	}
	fired := false
	if err == nil && ok {
		m.actionsRun.Inc()
		f.Rule.CountFired()
		fired = true
		if f.Rule.Action != nil {
			err = f.Rule.Action(fr, f.Detection)
		}
	}
	if timed {
		end := time.Now()
		cond := condEnd.Sub(start)
		act := end.Sub(condEnd)
		total := end.Sub(start)
		if f.Rule.Condition != nil {
			m.condH.Observe(cond)
		}
		if fired && f.Rule.Action != nil {
			m.actionH.Observe(act)
		}
		m.firingH.Observe(total)
		f.Rule.RecordExec(total)
		m.recordSlow(f.Rule.Name(), f.Rule.Coupling.String(), total, cond, act, fired)
		if tr != nil && tr.RuleFired != nil {
			tr.RuleFired(obs.RuleFireInfo{
				Rule:      f.Rule.Name(),
				Coupling:  f.Rule.Coupling.String(),
				Depth:     depth,
				Condition: cond,
				Action:    act,
				Fired:     fired,
				Err:       err,
				Tx:        uint64(t.inner.ID()),
			})
		}
	}
	return err
}

// RaiseExplicit raises an application-defined event from outside a method
// body (equivalent to ctx.Raise inside one): the paper's explicit primitive
// events. The source object must be reactive.
func (db *Database) RaiseExplicit(t *Tx, source oid.OID, name string, params ...value.Value) error {
	o, err := db.lockObject(t, source, txn.Exclusive)
	if err != nil {
		return err
	}
	if !o.Class().Reactive() {
		return fmt.Errorf("core: object %s of passive class %s cannot raise events", source, o.Class().Name)
	}
	return db.raise(t, o, name, event.Explicit, params, nil, 0)
}
