package core

import (
	"fmt"

	"sentinel/internal/event"
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// frame is one execution context: a method body, a rule condition/action,
// or a shell statement. It implements schema.CallContext (method bodies),
// rule.ExecContext (rule evaluation) and lang.Env (SentinelQL).
//
// Visibility semantics per frame kind:
//   - method body: caller class = the method's owner (sees its private
//     members);
//   - rule body:   sysAccess (rules contribute to the behaviour of the
//     objects they monitor, §3.5);
//   - shell/app:   public only.
type frame struct {
	db        *Database
	tx        *Tx
	self      *object.Object // nil for shell frames
	method    *schema.Method // nil outside method bodies
	args      []value.Value
	depth     int
	sysAccess bool
	detection *event.Detection // set for rule frames
}

// callerClass returns the class whose code runs in this frame.
func (f *frame) callerClass() *schema.Class {
	if f.method != nil {
		return f.method.Owner()
	}
	return nil
}

// ---- schema.CallContext ----

// Self returns the receiver's OID (oid.Nil for shell frames).
func (f *frame) Self() oid.OID {
	if f.self == nil {
		return oid.Nil
	}
	return f.self.ID()
}

// SelfClass returns the receiver's dynamic class.
func (f *frame) SelfClass() *schema.Class {
	if f.self == nil {
		return nil
	}
	return f.self.Class()
}

// Arg returns the i'th actual parameter.
func (f *frame) Arg(i int) value.Value {
	if i < 0 || i >= len(f.args) {
		return value.Nil
	}
	return f.args[i]
}

// NArgs returns the parameter count.
func (f *frame) NArgs() int { return len(f.args) }

// Get reads an attribute of the receiver with the frame's visibility.
func (f *frame) Get(attr string) (value.Value, error) {
	if f.self == nil {
		return value.Nil, fmt.Errorf("core: no receiver in this context")
	}
	return f.db.getAttr(f.tx, f.self.ID(), attr, f.callerClass(), f.sysAccess)
}

// Set writes an attribute of the receiver.
func (f *frame) Set(attr string, v value.Value) error {
	if f.self == nil {
		return fmt.Errorf("core: no receiver in this context")
	}
	return f.db.setAttr(f.tx, f.self.ID(), attr, v, f.callerClass(), f.sysAccess)
}

// GetOf reads an attribute of another object.
func (f *frame) GetOf(obj oid.OID, attr string) (value.Value, error) {
	return f.db.getAttr(f.tx, obj, attr, f.callerClass(), f.sysAccess)
}

// SetOf writes an attribute of another object.
func (f *frame) SetOf(obj oid.OID, attr string, v value.Value) error {
	return f.db.setAttr(f.tx, obj, attr, v, f.callerClass(), f.sysAccess)
}

// Send delivers a message within the frame's transaction, with this frame's
// class as caller and its cascade depth carried along.
func (f *frame) Send(obj oid.OID, method string, args ...value.Value) (value.Value, error) {
	return f.db.send(f.tx, obj, method, args, f.callerClass(), f.sysAccess, f.depth)
}

// New creates an object.
func (f *frame) New(class string, inits map[string]value.Value) (oid.OID, error) {
	return f.db.NewObject(f.tx, class, inits)
}

// Raise signals an explicit application event from the receiver (§3.1
// fn. 3). Only valid inside method bodies of reactive classes.
func (f *frame) Raise(eventName string, params ...value.Value) error {
	if err := f.tx.writable(); err != nil {
		return err
	}
	if f.self == nil {
		return fmt.Errorf("core: raise outside an object context")
	}
	if !f.self.Class().Reactive() {
		return fmt.Errorf("core: class %s is not reactive; cannot raise %q", f.self.Class().Name, eventName)
	}
	return f.db.raise(f.tx, f.self, eventName, event.Explicit, params, nil, f.depth)
}

// Abort returns the error that rolls back the enclosing transaction when
// propagated.
func (f *frame) Abort(reason string) error { return &AbortError{Reason: reason} }

// ---- rule.ExecContext ----

// LookupName resolves a database name binding.
func (f *frame) LookupName(name string) (oid.OID, bool) {
	f.db.mu.RLock()
	defer f.db.mu.RUnlock()
	id, ok := f.db.names[name]
	return id, ok
}

// Depth returns the rule-cascade depth.
func (f *frame) Depth() int { return f.depth }

// ---- lang.Env (SentinelQL) ----

// GetAttr reads an attribute for the interpreter.
func (f *frame) GetAttr(obj oid.OID, attr string) (value.Value, error) {
	return f.GetOf(obj, attr)
}

// SetAttr writes an attribute for the interpreter.
func (f *frame) SetAttr(obj oid.OID, attr string, v value.Value) error {
	return f.SetOf(obj, attr, v)
}

// GetSelfAttr reads an attribute of self, reporting ok=false when self has
// no such attribute so identifier resolution can fall through.
func (f *frame) GetSelfAttr(attr string) (value.Value, bool, error) {
	if f.self == nil {
		return value.Nil, false, nil
	}
	if f.self.Class().AttributeNamed(attr) == nil {
		return value.Nil, false, nil
	}
	v, err := f.Get(attr)
	return v, true, err
}

// NewObject instantiates a class for the interpreter.
func (f *frame) NewObject(class string, inits map[string]value.Value) (oid.OID, error) {
	return f.New(class, inits)
}

// BindName creates or replaces a database name binding.
func (f *frame) BindName(name string, obj oid.OID) error {
	return f.db.Bind(f.tx, name, obj)
}

// Subscribe attaches the named rule to a reactive object.
func (f *frame) Subscribe(ruleName string, target oid.OID) error {
	r := f.db.LookupRule(ruleName)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", ruleName)
	}
	return f.db.Subscribe(f.tx, target, r.ID())
}

// Unsubscribe detaches the named rule from a reactive object.
func (f *frame) Unsubscribe(ruleName string, target oid.OID) error {
	r := f.db.LookupRule(ruleName)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", ruleName)
	}
	return f.db.Unsubscribe(f.tx, target, r.ID())
}

// SetRuleEnabled enables/disables a rule by name (through the rule object's
// Enable/Disable methods, so rule-monitoring rules see the event).
func (f *frame) SetRuleEnabled(ruleName string, enabled bool) error {
	if enabled {
		return f.db.EnableRule(f.tx, ruleName)
	}
	return f.db.DisableRule(f.tx, ruleName)
}

// RaiseEvent adapts Raise to the interpreter's signature.
func (f *frame) RaiseEvent(name string, args []value.Value) error {
	return f.Raise(name, args...)
}

// Output writes print() text.
func (f *frame) Output(s string) {
	fmt.Fprintln(f.db.opts.Output, s)
}

// Instances lists live instances of the named class (and subclasses) for
// the instances(...) builtin. System classes are reserved.
func (f *frame) Instances(class string) ([]oid.OID, error) {
	if IsSystemClass(class) {
		return nil, fmt.Errorf("core: instances of system class %s are not enumerable from rules", class)
	}
	if f.db.reg.Lookup(class) == nil {
		return nil, fmt.Errorf("core: unknown class %q", class)
	}
	// Snapshot frames (detached conditions under SnapshotConditions) scan
	// at their snapshot LSN; ordinary frames see the racy live union.
	return f.db.InstancesOfAt(f.tx, class), nil
}

// LookupByAttr backs the lookup(...) builtin: index-accelerated equality
// search with a scan fallback.
func (f *frame) LookupByAttr(class, attr string, v value.Value) ([]oid.OID, error) {
	if IsSystemClass(class) {
		return nil, fmt.Errorf("core: system class %s is not queryable from rules", class)
	}
	ids, _, err := f.db.LookupByAttr(f.tx, class, attr, v)
	return ids, err
}

// CreateIndex backs the `index Class.attr` statement.
func (f *frame) CreateIndex(class, attr string) error {
	_, err := f.db.CreateIndex(f.tx, class, attr)
	return err
}

// DropIndex backs the `unindex Class.attr` statement.
func (f *frame) DropIndex(class, attr string) error {
	return f.db.DropIndex(f.tx, class, attr)
}
