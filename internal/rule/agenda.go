package rule

import (
	"cmp"
	"fmt"
	"slices"

	"sentinel/internal/event"
	"sentinel/internal/oid"
)

// Firing is a triggered rule awaiting (or undergoing) condition evaluation
// and action execution.
type Firing struct {
	Rule      *Rule
	Detection event.Detection
	// Seq is the arrival order of the firing on its agenda, used by FIFO
	// and LIFO strategies and as the stable tie-breaker.
	Seq uint64

	// Subscriber is the object whose event completed the detection, and
	// WriteSet is the scheduling transaction's write set at the moment the
	// firing was scheduled. Both are recorded for detached firings only:
	// the conflict-aware executor pool keys on them to decide which
	// firings may run in parallel (disjoint keys) and which must retain
	// strategy order (shared keys). Immediate and deferred firings run
	// inside the scheduling transaction and leave them zero.
	Subscriber oid.OID
	WriteSet   []oid.OID
}

// Strategy is a pluggable conflict-resolution policy: it orders a set of
// simultaneously pending firings. Choosing a different strategy requires no
// application changes (§3 design goal: "incorporation of new features (for
// example, providing a new conflict resolution strategy) without
// modifications to application code").
type Strategy interface {
	Name() string
	// Order sorts fs in execution order, in place.
	Order(fs []Firing)
}

// ByPriority executes higher Priority first; ties break FIFO.
type ByPriority struct{}

// Name returns "priority".
func (ByPriority) Name() string { return "priority" }

// Order sorts by descending priority, then ascending arrival.
func (ByPriority) Order(fs []Firing) {
	if len(fs) < 2 {
		return
	}
	slices.SortStableFunc(fs, byPriority)
}

func byPriority(a, b Firing) int {
	if c := cmp.Compare(b.Rule.Priority, a.Rule.Priority); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// FIFO executes in arrival order regardless of priority.
type FIFO struct{}

// Name returns "fifo".
func (FIFO) Name() string { return "fifo" }

// Order sorts by ascending arrival.
func (FIFO) Order(fs []Firing) {
	if len(fs) < 2 {
		return
	}
	slices.SortStableFunc(fs, func(a, b Firing) int { return cmp.Compare(a.Seq, b.Seq) })
}

// LIFO executes most recently triggered first.
type LIFO struct{}

// Name returns "lifo".
func (LIFO) Name() string { return "lifo" }

// Order sorts by descending arrival.
func (LIFO) Order(fs []Firing) {
	if len(fs) < 2 {
		return
	}
	slices.SortStableFunc(fs, func(a, b Firing) int { return cmp.Compare(b.Seq, a.Seq) })
}

// ParseStrategy resolves a strategy by name ("" means priority).
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "priority":
		return ByPriority{}, nil
	case "fifo":
		return FIFO{}, nil
	case "lifo":
		return LIFO{}, nil
	default:
		return nil, fmt.Errorf("rule: unknown conflict-resolution strategy %q", name)
	}
}

// Agenda accumulates pending firings (one per coupling-mode queue in the
// runtime) and drains them in strategy order. It is not safe for concurrent
// use; the runtime serializes access.
type Agenda struct {
	strategy Strategy
	pending  []Firing
	nextSeq  uint64
}

// NewAgenda returns an agenda using the given strategy (ByPriority if nil).
func NewAgenda(s Strategy) *Agenda {
	a := &Agenda{}
	a.Reset(s)
	return a
}

// Reset empties the agenda and restarts it with strategy s (ByPriority if
// nil), as NewAgenda would, so an agenda embedded in recycled state can be
// reused.
func (a *Agenda) Reset(s Strategy) {
	if s == nil {
		s = ByPriority{}
	}
	*a = Agenda{strategy: s}
}

// SetStrategy swaps the conflict-resolution policy.
func (a *Agenda) SetStrategy(s Strategy) { a.strategy = s }

// Add schedules a firing.
func (a *Agenda) Add(r *Rule, det event.Detection) {
	a.nextSeq++
	a.pending = append(a.pending, Firing{Rule: r, Detection: det, Seq: a.nextSeq})
}

// AddFiring schedules a pre-built firing, preserving its scheduling
// metadata (subscriber, write set); Seq is assigned on arrival like Add.
func (a *Agenda) AddFiring(f Firing) {
	a.nextSeq++
	f.Seq = a.nextSeq
	a.pending = append(a.pending, f)
}

// Len returns the number of pending firings.
func (a *Agenda) Len() int { return len(a.pending) }

// Drain removes and returns all pending firings in execution order.
// Firings added while the caller processes the batch land in the next
// Drain, so cascades are breadth-ordered.
func (a *Agenda) Drain() []Firing {
	if len(a.pending) == 0 {
		return nil
	}
	out := a.pending
	a.pending = nil
	a.strategy.Order(out)
	return out
}

// Clear drops all pending firings (transaction abort).
func (a *Agenda) Clear() { a.pending = nil }
