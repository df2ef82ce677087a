// Package sentinel is an active object-oriented database for Go: a
// from-scratch reproduction of the Sentinel system described in E. Anwar,
// L. Maugis and S. Chakravarthy, "A New Perspective on Rule Support for
// Object-Oriented Databases" (University of Florida, 1993).
//
// The library provides:
//
//   - A runtime object model: classes with attributes, methods, visibility,
//     and single/multiple inheritance (C3 linearization), instantiated into
//     persistent objects addressed by OID.
//   - An event interface per class: methods declared as event generators
//     raise begin-of-method and end-of-method events when invoked; method
//     bodies can raise explicit events.
//   - Events as first-class objects, composable with the operator hierarchy
//     (and, or, seq, plus the not/any/aperiodic/periodic extensions) and
//     parameter contexts.
//   - ECA rules as first-class objects with immediate/deferred/detached
//     coupling modes, priorities, pluggable conflict resolution, and
//     enable/disable — including rules that monitor other rules.
//   - The subscription mechanism: rules dynamically subscribe to the
//     reactive objects they monitor, so events spanning several objects of
//     different classes trigger a single rule, and only subscribed rules
//     are ever checked.
//   - ACID transactions (strict two-phase locking, WAL, crash recovery)
//     covering application objects, rules, events and subscriptions alike.
//   - SentinelQL, a definition language for classes, events and rules, with
//     an interpreter for conditions, actions and method bodies.
//
// # Quick start
//
//	db := sentinel.MustOpen(sentinel.Options{Dir: "mydb"})
//	defer db.Close()
//	err := db.Exec(`
//	    class Account reactive persistent {
//	        attr balance float
//	        event begin method Withdraw(amount float) {
//	            self.balance := self.balance - amount
//	        }
//	    }
//	    rule NoOverdraft on begin Account::Withdraw(float amount)
//	        if amount > self.balance then abort "insufficient funds"
//	`)
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduced evaluation.
package sentinel

import (
	"sentinel/internal/core"
	"sentinel/internal/event"
	"sentinel/internal/index"
	"sentinel/internal/object"
	"sentinel/internal/obs"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// Database and transaction types.
type (
	// Database is a Sentinel database instance; open one with Open.
	Database = core.Database
	// Tx is a transaction; obtain one from Database.Begin or Atomically.
	Tx = core.Tx
	// Options configures Open: 21 fields whose zero value is a usable
	// in-memory configuration; Validate (which Open runs) rejects
	// contradictory combinations.
	Options = core.Options
	// RuleSpec describes a rule for Database.CreateRule.
	RuleSpec = core.RuleSpec
	// AbortError is returned when a rule or method aborts the transaction.
	AbortError = core.AbortError
)

// ErrDetachedStopped is returned by Commit when a transaction's detached
// firings could not be handed to the executor pool because the database is
// closing; the transaction's writes are durable, only the firings were
// refused. Test with errors.Is.
var ErrDetachedStopped = core.ErrDetachedStopped

// Statistics and observability types. Database.Stats returns a cheap
// grouped counter Snapshot; Database.Metrics returns the full metrics
// registry (counters, gauges and latency histograms with quantiles);
// Database.SetTracer installs per-event callbacks.
type (
	// Snapshot is the grouped runtime counters from Database.Stats.
	Snapshot = core.Snapshot
	// ObjectStats counts resident and total objects.
	ObjectStats = core.ObjectStats
	// EventStats counts sends, raised occurrences, notifications and
	// composite detections.
	EventStats = core.EventStats
	// RuleStats counts defined rules, subscriptions and executions.
	RuleStats = core.RuleStats
	// DetachedStats describes the conflict-aware detached executor pool.
	DetachedStats = core.DetachedStats
	// StorageStats counts faults, evictions, checkpoints and WAL bytes.
	StorageStats = core.StorageStats
	// ReplicationStats describes the replication role and stream position.
	ReplicationStats = core.ReplicationStats

	// MetricsSnapshot is a point-in-time view of every registered counter,
	// gauge and histogram, returned by Database.Metrics.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot is one latency histogram with p50/p95/p99.
	HistogramSnapshot = obs.HistogramSnapshot
	// CounterValue is one monotonic counter reading.
	CounterValue = obs.CounterValue
	// GaugeValue is one instantaneous gauge reading.
	GaugeValue = obs.GaugeValue

	// Tracer is a set of optional hooks (in the style of httptrace) invoked
	// at runtime events; install with Database.SetTracer. Any field may be
	// nil; callbacks must be fast and must not call back into the database.
	Tracer = obs.Tracer
	// OccurrenceInfo describes a raised primitive event occurrence.
	OccurrenceInfo = obs.OccurrenceInfo
	// DetectionInfo describes a recognized (composite) event.
	DetectionInfo = obs.DetectionInfo
	// RuleScheduleInfo describes a rule being queued for execution.
	RuleScheduleInfo = obs.RuleScheduleInfo
	// RuleFireInfo describes one completed rule firing with timings.
	RuleFireInfo = obs.RuleFireInfo
	// TxInfo describes a transaction lifecycle event.
	TxInfo = obs.TxInfo
	// WALInfo describes a write-ahead-log append or fsync.
	WALInfo = obs.WALInfo
	// PageInfo describes an object fault-in or eviction batch.
	PageInfo = obs.PageInfo
	// SlowRule is one entry of the slow-rule log (Database.SlowRules),
	// recorded when a firing exceeds Options.SlowRuleThreshold.
	SlowRule = obs.SlowRule
)

// Schema (meta-object) types.
type (
	// Class is a runtime class definition.
	Class = schema.Class
	// Method is a runtime method definition.
	Method = schema.Method
	// Attribute is a runtime attribute definition.
	Attribute = schema.Attribute
	// Param is a method parameter.
	Param = schema.Param
	// CallContext is the environment a method body runs in.
	CallContext = schema.CallContext
	// Visibility is public/protected/private.
	Visibility = schema.Visibility
	// EventGen marks which events a method generates (the event interface).
	EventGen = schema.EventGen
	// Classification marks classes passive/reactive/notifiable.
	Classification = schema.Classification
	// ClassRuleDecl is a class-level rule declared with a class.
	ClassRuleDecl = schema.RuleDecl
	// Registry is the schema catalog.
	Registry = schema.Registry
)

// Value and identity types.
type (
	// Value is a dynamically typed database value.
	Value = value.Value
	// Type describes attribute/parameter types.
	Type = value.Type
	// OID is an object identifier.
	OID = oid.OID
	// Object is a materialized instance (returned by introspection APIs).
	Object = object.Object
)

// Rule and event types.
type (
	// Rule is a first-class ECA rule object.
	Rule = rule.Rule
	// ExecContext is the environment rule conditions and actions run in.
	ExecContext = rule.ExecContext
	// Condition is a rule condition function.
	Condition = rule.Condition
	// Action is a rule action function.
	Action = rule.Action
	// Coupling is immediate/deferred/detached.
	Coupling = rule.Coupling
	// Event is a first-class event definition (an operator-tree node).
	Event = event.Expr
	// Occurrence is one generated primitive event.
	Occurrence = event.Occurrence
	// Detection is a recognized event instance with its constituents.
	Detection = event.Detection
	// Moment is begin/end/explicit.
	Moment = event.Moment
	// Context is the parameter context for composite-event detection.
	Context = event.Context
	// Detector recognizes an event definition over a stream of occurrences.
	Detector = event.Detector
)

// Visibility levels.
const (
	Public    = schema.Public
	Protected = schema.Protected
	Private   = schema.Private
)

// Event-interface declarations.
const (
	GenNone  = schema.GenNone
	GenBegin = schema.GenBegin
	GenEnd   = schema.GenEnd
	GenBoth  = schema.GenBoth
)

// Object classifications.
const (
	PassiveClass            = schema.PassiveClass
	ReactiveClass           = schema.ReactiveClass
	NotifiableClass         = schema.NotifiableClass
	ReactiveNotifiableClass = schema.ReactiveNotifiableClass
)

// Coupling modes (§4.4 of the paper).
const (
	Immediate = rule.Immediate
	Deferred  = rule.Deferred
	Detached  = rule.Detached
)

// Event moments.
const (
	Begin    = event.Begin
	End      = event.End
	Explicit = event.Explicit
)

// Parameter contexts.
const (
	ContextPaper      = event.ContextPaper
	ContextRecent     = event.ContextRecent
	ContextChronicle  = event.ContextChronicle
	ContextContinuous = event.ContextContinuous
	ContextCumulative = event.ContextCumulative
)

// Open creates or reopens a database (crash recovery included). An empty
// Options.Dir yields an in-memory database.
func Open(opts Options) (*Database, error) { return core.Open(opts) }

// MustOpen is Open that panics on error.
func MustOpen(opts Options) *Database { return core.MustOpen(opts) }

// IsAbort reports whether err is a transaction abort raised by a rule or
// method (the paper's `abort` action).
func IsAbort(err error) bool { return core.IsAbort(err) }

// NewClass starts a class definition with the given direct superclasses.
func NewClass(name string, bases ...*Class) *Class { return schema.NewClass(name, bases...) }

// Value constructors.
var (
	// NilValue is the null value.
	NilValue = value.Nil
)

// Int returns an integer value.
func Int(i int64) Value { return value.Int(i) }

// Float returns a floating-point value.
func Float(f float64) Value { return value.Float(f) }

// Str returns a string value.
func Str(s string) Value { return value.Str(s) }

// Bool returns a boolean value.
func Bool(b bool) Value { return value.Bool(b) }

// Ref returns an object-reference value.
func Ref(o OID) Value { return value.Ref(o) }

// ListValue returns a list value.
func ListValue(elems ...Value) Value { return value.List(elems...) }

// Attribute/parameter types.
var (
	TypeInt    = value.TypeInt
	TypeFloat  = value.TypeFloat
	TypeString = value.TypeString
	TypeBool   = value.TypeBool
	TypeTime   = value.TypeTime
	TypeAnyRef = value.TypeAnyRef
)

// TypeRef returns the type of references to the named class.
func TypeRef(class string) *Type { return value.TypeRef(class) }

// TypeList returns a list type.
func TypeList(elem *Type) *Type { return value.TypeList(elem) }

// Event constructors (programmatic equivalents of the SentinelQL event
// expressions; see also Database.ParseEvent).
var (
	// Primitive builds "begin/end/explicit Class::Method".
	Primitive = event.Primitive
	// AndEvent is the conjunction operator.
	AndEvent = event.And
	// OrEvent is the disjunction operator.
	OrEvent = event.Or
	// SeqEvent is the sequence operator.
	SeqEvent = event.Seq
	// NotEvent is NOT(B)[A, C].
	NotEvent = event.Not
	// AnyEvent is ANY(m; events...).
	AnyEvent = event.Any
	// AperiodicEvent is A(A, B, C).
	AperiodicEvent = event.Aperiodic
	// PeriodicEvent is P(A, t, C).
	PeriodicEvent = event.Periodic
)

// CondTrue is the always-true rule condition.
var CondTrue = rule.CondTrue

// Index is a secondary equality index over one attribute of a class.
type Index = index.Hash
