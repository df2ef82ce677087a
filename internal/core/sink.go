package core

// sink.go is the remote-sink seam: the paper's Notifiable role extended
// beyond the process boundary. In-process consumers (rules, FuncConsumers)
// are notified synchronously inside the raising transaction; an EventSink
// instead receives occurrences only after the raising transaction has
// durably committed, which is the correct visibility for a remote observer —
// a subscriber on another machine must never learn about an event whose
// transaction subsequently aborts.
//
// The delivery contract is shaped by the commit path it runs on:
//
//   - collection happens inside raise (matching is cheap, the occurrence is
//     already built), gated by one atomic load so databases with no remote
//     subscribers pay nothing on the event hot path;
//   - fan-out happens in the commit pipeline's publish stage (commit.go):
//     after durability and the quorum wait, before detached dispatch, on
//     the committing goroutine;
//   - DeliverEvent therefore MUST NOT block and MUST NOT call back into the
//     database. Implementations (the server's session writer) enqueue into
//     a bounded buffer and drop or disconnect on overflow — the same
//     never-stall-the-commit-path rule the detached executor's bounded
//     queue follows, except that a remote subscriber's remedy is dropping
//     its frames, not backpressuring a committer.

import (
	"fmt"
	"sync"

	"sentinel/internal/event"
	"sentinel/internal/oid"
)

// EventSink receives committed occurrences on behalf of one or more remote
// subscriptions. DeliverEvent runs on the committing goroutine: it must
// return promptly (enqueue, don't send) and must not re-enter the database.
type EventSink interface {
	DeliverEvent(subID uint64, occ event.Occurrence)
}

// SinkFilter narrows a sink subscription. The zero value matches every
// occurrence the source object generates.
type SinkFilter struct {
	// Method, when non-empty, matches only occurrences of that method (or
	// explicit event name).
	Method string
	// Moment, when MomentSet, matches only that moment (begin/end/explicit).
	Moment    event.Moment
	MomentSet bool
}

// matches reports whether the filter admits the occurrence.
func (f SinkFilter) matches(occ *event.Occurrence) bool {
	if f.Method != "" && f.Method != occ.Method {
		return false
	}
	if f.MomentSet && f.Moment != occ.When {
		return false
	}
	return true
}

// sinkSub is one registered remote subscription.
type sinkSub struct {
	id     uint64
	source oid.OID
	filter SinkFilter
	sink   EventSink
}

// pendingPush is one matched occurrence awaiting its transaction's commit.
type pendingPush struct {
	subID uint64
	sink  EventSink
	occ   event.Occurrence
}

// sinkRegistry holds the remote subscriptions, keyed by source OID for the
// raise-time lookup and by subscription id for O(1) unsubscribe. count
// mirrors the total so raise can skip the registry entirely — including the
// lock — with one atomic load when no sinks exist.
type sinkRegistry struct {
	mu     sync.RWMutex
	seq    uint64
	bySrc  map[oid.OID][]*sinkSub
	byID   map[uint64]*sinkSub
	closed bool
}

// SubscribeSink registers sink to receive every committed occurrence of the
// reactive object that passes the filter, returning the subscription id.
// Like SubscribeFunc, the source must exist and be reactive; unlike it, the
// subscription is keyed by id so a remote session can release exactly its
// own subscriptions on teardown.
func (db *Database) SubscribeSink(source oid.OID, f SinkFilter, sink EventSink) (uint64, error) {
	if sink == nil {
		return 0, fmt.Errorf("core: nil EventSink")
	}
	o := db.objectByID(source)
	if o == nil {
		return 0, fmt.Errorf("core: no object %s", source)
	}
	if !o.Class().Reactive() {
		return 0, fmt.Errorf("core: class %s is passive; only reactive objects can be monitored", o.Class().Name)
	}
	r := &db.sinkReg
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("core: database closed")
	}
	if r.bySrc == nil {
		r.bySrc = make(map[oid.OID][]*sinkSub)
		r.byID = make(map[uint64]*sinkSub)
	}
	r.seq++
	s := &sinkSub{id: r.seq, source: source, filter: f, sink: sink}
	r.bySrc[source] = append(r.bySrc[source], s)
	r.byID[s.id] = s
	db.sinkCount.Add(1)
	return s.id, nil
}

// UnsubscribeSink releases one sink subscription by id, reporting whether
// it existed.
func (db *Database) UnsubscribeSink(id uint64) bool {
	r := &db.sinkReg
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[id]
	if !ok {
		return false
	}
	r.dropLocked(s)
	db.sinkCount.Add(-1)
	return true
}

// UnsubscribeAllSinks releases every subscription delivering to sink
// (session teardown: one call, regardless of how many subscriptions the
// session held), returning how many were released.
func (db *Database) UnsubscribeAllSinks(sink EventSink) int {
	r := &db.sinkReg
	r.mu.Lock()
	defer r.mu.Unlock()
	var doomed []*sinkSub
	for _, s := range r.byID {
		if s.sink == sink {
			doomed = append(doomed, s)
		}
	}
	for _, s := range doomed {
		r.dropLocked(s)
	}
	db.sinkCount.Add(int64(-len(doomed)))
	return len(doomed)
}

// SinkSubscriptions returns the number of live sink subscriptions.
func (db *Database) SinkSubscriptions() int {
	return int(db.sinkCount.Load())
}

// dropLocked unlinks one subscription from both indexes. Caller holds mu.
func (r *sinkRegistry) dropLocked(s *sinkSub) {
	delete(r.byID, s.id)
	lst := r.bySrc[s.source]
	for i, x := range lst {
		if x == s {
			lst = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if len(lst) == 0 {
		delete(r.bySrc, s.source)
	} else {
		r.bySrc[s.source] = lst
	}
}

// match appends to dst one pending delivery per subscription the occurrence
// passes. Raise calls it with the source's 2PL lock held and parks the
// result on the transaction until commit (the caller has already checked
// sinkCount, so the common no-subscriber case never takes the lock); the
// replica apply path calls it for shipped occurrences.
func (r *sinkRegistry) match(dst []pendingPush, occ *event.Occurrence) []pendingPush {
	r.mu.RLock()
	for _, s := range r.bySrc[occ.Source] {
		if s.filter.matches(occ) {
			dst = append(dst, pendingPush{subID: s.id, sink: s.sink, occ: *occ})
		}
	}
	r.mu.RUnlock()
	return dst
}

// fanoutPushes delivers matched occurrences once their commit is durable.
// Each DeliverEvent is a bounded-queue enqueue in the sink implementation,
// so the loop — and with it the commit path — is wait-free regardless of how
// slow any remote consumer is.
func (db *Database) fanoutPushes(pushes []pendingPush) {
	for i := range pushes {
		db.met.pushEvents.Inc()
		pushes[i].sink.DeliverEvent(pushes[i].subID, pushes[i].occ)
	}
}

// closeSinks marks the registry closed (new SubscribeSink calls fail) and
// drops every subscription. Called by Close/CloseAbrupt before the server
// layer shuts down so late commits stop matching.
func (db *Database) closeSinks() {
	r := &db.sinkReg
	r.mu.Lock()
	n := len(r.byID)
	r.bySrc = nil
	r.byID = nil
	r.closed = true
	r.mu.Unlock()
	db.sinkCount.Add(int64(-n))
}
