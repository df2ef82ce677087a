package core

import (
	"fmt"
	"strings"

	"sentinel/internal/event"
	"sentinel/internal/lang"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/schema"
	"sentinel/internal/txn"
	"sentinel/internal/value"
)

// RegisterClass registers a Go-defined class and instantiates its
// class-level rule declarations (paper §4.7: class-level rules are declared
// with the class and apply to every instance). Classes must be registered
// bottom-up (bases first).
func (db *Database) RegisterClass(c *schema.Class) error {
	if IsSystemClass(c.Name) {
		return fmt.Errorf("core: class name %s is reserved", c.Name)
	}
	if err := db.reg.Register(c); err != nil {
		return err
	}
	for _, d := range c.OwnRuleDecls() {
		spec := RuleSpec{
			Name:       d.Name,
			EventSrc:   d.Event,
			CondSrc:    d.Condition,
			ActionSrc:  d.Action,
			Coupling:   d.Coupling,
			Priority:   d.Priority,
			ClassLevel: c.Name,
		}
		db.pendingClassRules = append(db.pendingClassRules, spec)
	}
	if !db.ready {
		// During Options.Schema, before recovery: the declarations stay
		// queued so reopening a persistent database does not duplicate the
		// __Rule objects already in the catalog (flushPendingClassRules
		// skips names the load rebuilt).
		return nil
	}
	return db.flushPendingClassRules()
}

// flushPendingClassRules instantiates queued class-level rule declarations
// whose names are not already present (i.e. not rebuilt from the persistent
// catalog).
func (db *Database) flushPendingClassRules() error {
	pending := db.pendingClassRules
	db.pendingClassRules = nil
	for _, spec := range pending {
		if db.LookupRule(spec.Name) != nil {
			continue
		}
		err := db.Atomically(func(t *Tx) error {
			_, err := db.CreateRule(t, spec)
			return err
		})
		if err != nil {
			return fmt.Errorf("core: class %s rule %s: %w", spec.ClassLevel, spec.Name, err)
		}
	}
	return nil
}

// MustRegisterClass is RegisterClass that panics on error.
func (db *Database) MustRegisterClass(c *schema.Class) *schema.Class {
	if err := db.RegisterClass(c); err != nil {
		panic(err)
	}
	return c
}

// RegisterCondition registers a named Go condition function, referenceable
// from rule specs as "go:name" — the persistable analogue of the paper's
// pointer-to-member-function conditions.
func (db *Database) RegisterCondition(name string, fn rule.Condition) {
	db.condFns.Store(name, fn)
}

// RegisterAction registers a named Go action function ("go:name").
func (db *Database) RegisterAction(name string, fn rule.Action) {
	db.actFns.Store(name, fn)
}

// eventResolver resolves named events for the parser.
func (db *Database) eventResolver() lang.EventResolver {
	return func(name string) (*event.Expr, bool) {
		return db.LookupEvent(name)
	}
}

// ParseEvent parses an event expression against the named-event catalog —
// the programmatic form of `new Primitive("end Employee::SetSalary(...)")`
// (§4.6).
func (db *Database) ParseEvent(src string) (*event.Expr, error) {
	return lang.ParseEventExpr(src, db.eventResolver())
}

// DefineEvent names an event definition and materializes it as a
// first-class persistent __Event object (§4.6: "events are created,
// modified and deleted in the same manner as other objects").
func (db *Database) DefineEvent(t *Tx, name string, src string) (*event.Expr, error) {
	if _, dup := db.LookupEvent(name); dup {
		return nil, fmt.Errorf("core: event %q already defined", name)
	}
	e, err := db.ParseEvent(src)
	if err != nil {
		return nil, err
	}
	id, err := db.NewObject(t, SysEventClass, map[string]value.Value{
		"name":   value.Str(name),
		"source": value.Str(src),
	})
	if err != nil {
		return nil, err
	}
	e.SetID(id)
	db.mu.Lock()
	db.namedEvents[name] = e
	db.eventObjs[name] = id
	db.mu.Unlock()
	t.onUndo(func() {
		db.mu.Lock()
		delete(db.namedEvents, name)
		delete(db.eventObjs, name)
		db.mu.Unlock()
	})
	return e, nil
}

// DeleteEvent removes a named event definition. Rules already compiled
// against it keep their structure (they embedded the definition).
func (db *Database) DeleteEvent(t *Tx, name string) error {
	db.mu.RLock()
	id, ok := db.eventObjs[name]
	e := db.namedEvents[name]
	db.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown event %q", name)
	}
	if err := db.DeleteObject(t, id); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.namedEvents, name)
	delete(db.eventObjs, name)
	db.mu.Unlock()
	t.onUndo(func() {
		db.mu.Lock()
		db.namedEvents[name] = e
		db.eventObjs[name] = id
		db.mu.Unlock()
	})
	return nil
}

// RuleSpec describes a rule to create. Exactly one of Event/EventSrc must
// be set; Condition/Action may be Go funcs, "go:name" references, or
// SentinelQL source in CondSrc/ActionSrc.
type RuleSpec struct {
	Name string

	// Event is a prebuilt definition; EventSrc is SentinelQL source.
	Event    *event.Expr
	EventSrc string

	// Condition, or CondSrc ("go:name" / SentinelQL expression / "" for
	// always-true).
	Condition rule.Condition
	CondSrc   string

	// Action, or ActionSrc ("go:name" / SentinelQL statements).
	Action    rule.Action
	ActionSrc string

	// Coupling: "immediate" (default), "deferred", "detached".
	Coupling string
	Priority int
	// Context: parameter context ("paper" default, "recent", "chronicle",
	// "continuous", "cumulative").
	Context string

	// ClassLevel makes this a class-level rule of the named class,
	// applying to all its (current and future) instances including
	// subclass instances. Empty = instance-level: subscribe explicitly.
	ClassLevel string

	// TxScoped resets the rule's event-detection state at the end of every
	// transaction that fed it events.
	TxScoped bool
}

// CreateRule creates a rule as a first-class notifiable object: the runtime
// rule plus its persistent __Rule system object, inside the transaction
// (rule creation aborts with it).
func (db *Database) CreateRule(t *Tx, spec RuleSpec) (*rule.Rule, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("core: rule needs a name")
	}
	if db.LookupRule(spec.Name) != nil {
		return nil, fmt.Errorf("core: rule %q already exists", spec.Name)
	}

	ev := spec.Event
	if ev == nil {
		if spec.EventSrc == "" {
			return nil, fmt.Errorf("core: rule %s: no event", spec.Name)
		}
		var err error
		ev, err = db.ParseEvent(spec.EventSrc)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s event: %w", spec.Name, err)
		}
	} else if spec.EventSrc == "" {
		spec.EventSrc = ev.String()
	}

	coupling, err := rule.ParseCoupling(spec.Coupling)
	if err != nil {
		return nil, fmt.Errorf("core: rule %s: %w", spec.Name, err)
	}
	pctx, err := event.ParseContext(spec.Context)
	if err != nil {
		return nil, fmt.Errorf("core: rule %s: %w", spec.Name, err)
	}

	cond, condSrc, err := db.resolveCondition(spec)
	if err != nil {
		return nil, fmt.Errorf("core: rule %s condition: %w", spec.Name, err)
	}
	act, actSrc, err := db.resolveAction(spec)
	if err != nil {
		return nil, fmt.Errorf("core: rule %s action: %w", spec.Name, err)
	}

	r := rule.New(spec.Name, ev, cond, act, coupling)
	r.Priority = spec.Priority
	r.Context = pctx
	r.CondSrc = condSrc
	r.ActSrc = actSrc
	r.CondClosure = spec.Condition != nil && spec.CondSrc == ""
	r.ActClosure = spec.Action != nil && spec.ActionSrc == ""
	r.ClassLevel = spec.ClassLevel
	r.TxScoped = spec.TxScoped
	if err := r.Compile(db.hierarchy()); err != nil {
		return nil, err
	}

	id, err := db.NewObject(t, SysRuleClass, map[string]value.Value{
		"name":       value.Str(spec.Name),
		"event":      value.Str(spec.EventSrc),
		"cond":       value.Str(condSrc),
		"action":     value.Str(actSrc),
		"coupling":   value.Int(int64(coupling)),
		"priority":   value.Int(int64(spec.Priority)),
		"enabled":    value.Bool(true),
		"classLevel": value.Str(spec.ClassLevel),
		"context":    value.Int(int64(pctx)),
		"txScoped":   value.Bool(spec.TxScoped),
	})
	if err != nil {
		return nil, err
	}
	r.SetID(id)
	ev.SetID(id) // anonymous per-rule events share the rule's identity

	db.mu.Lock()
	db.rules[id] = r
	db.rulesByName[spec.Name] = r
	if spec.ClassLevel != "" {
		db.classRules[spec.ClassLevel] = append(db.classRules[spec.ClassLevel], r)
	}
	db.mu.Unlock()
	// A class-level rule changes the consumer set of every instance in the
	// class's subtree; an instance-level rule reaches objects only through
	// Subscribe, which carries its own per-object invalidation.
	sc := scopeNone()
	if spec.ClassLevel != "" {
		sc = scopeClass(spec.ClassLevel)
	}
	db.invalidateConsumers(t, sc, func() {
		db.mu.Lock()
		delete(db.rules, id)
		delete(db.rulesByName, spec.Name)
		if spec.ClassLevel != "" {
			db.classRules[spec.ClassLevel] = removeRule(db.classRules[spec.ClassLevel], r)
		}
		db.mu.Unlock()
	})
	return r, nil
}

func removeRule(rs []*rule.Rule, r *rule.Rule) []*rule.Rule {
	out := rs[:0]
	for _, x := range rs {
		if x != r {
			out = append(out, x)
		}
	}
	return out
}

// DeleteRule removes a rule and its subscriptions — "rules can be added,
// deleted, and modified in the same manner as other objects" (§2).
func (db *Database) DeleteRule(t *Tx, name string) error {
	r := db.LookupRule(name)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", name)
	}
	id := r.ID()
	// Drop instance subscriptions pointing at it.
	db.mu.RLock()
	var subRecords []subKey
	for k := range db.subObjs {
		if k.consumer == id {
			subRecords = append(subRecords, k)
		}
	}
	db.mu.RUnlock()
	for _, k := range subRecords {
		if err := db.Unsubscribe(t, k.reactive, k.consumer); err != nil {
			return err
		}
	}
	if err := db.DeleteObject(t, id); err != nil {
		return err
	}
	db.mu.Lock()
	delete(db.rules, id)
	delete(db.rulesByName, name)
	if r.ClassLevel != "" {
		db.classRules[r.ClassLevel] = removeRule(db.classRules[r.ClassLevel], r)
	}
	db.mu.Unlock()
	sc := scopeNone() // instance subs were unsubscribed above, each with its own scope
	if r.ClassLevel != "" {
		sc = scopeClass(r.ClassLevel)
	}
	db.invalidateConsumers(t, sc, func() {
		db.mu.Lock()
		db.rules[id] = r
		db.rulesByName[name] = r
		if r.ClassLevel != "" {
			db.classRules[r.ClassLevel] = append(db.classRules[r.ClassLevel], r)
		}
		db.mu.Unlock()
	})
	return nil
}

// EnableRule enables a rule via its object's Enable method (raising the
// end __Rule::Enable event for any rule monitoring it).
func (db *Database) EnableRule(t *Tx, name string) error {
	r := db.LookupRule(name)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", name)
	}
	_, err := db.Send(t, r.ID(), "Enable")
	return err
}

// DisableRule disables a rule via its object's Disable method.
func (db *Database) DisableRule(t *Tx, name string) error {
	r := db.LookupRule(name)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", name)
	}
	_, err := db.Send(t, r.ID(), "Disable")
	return err
}

// resolveCondition turns a spec into an executable condition plus its
// persistent source form.
func (db *Database) resolveCondition(spec RuleSpec) (rule.Condition, string, error) {
	if spec.Condition != nil {
		return spec.Condition, spec.CondSrc, nil
	}
	src := strings.TrimSpace(spec.CondSrc)
	if src == "" {
		return rule.CondTrue, "", nil
	}
	if name, ok := strings.CutPrefix(src, "go:"); ok {
		v, _ := db.condFns.Load(name)
		if fn, _ := v.(rule.Condition); fn != nil {
			return fn, src, nil
		}
		return nil, "", fmt.Errorf("unregistered condition function %q", name)
	}
	ast, err := lang.ParseCondition(src)
	if err != nil {
		return nil, "", err
	}
	return db.dslCondition(ast), src, nil
}

// resolveAction is the action counterpart.
func (db *Database) resolveAction(spec RuleSpec) (rule.Action, string, error) {
	if spec.Action != nil {
		return spec.Action, spec.ActionSrc, nil
	}
	src := strings.TrimSpace(spec.ActionSrc)
	if src == "" {
		return nil, "", nil
	}
	if name, ok := strings.CutPrefix(src, "go:"); ok {
		v, _ := db.actFns.Load(name)
		if fn, _ := v.(rule.Action); fn != nil {
			return fn, src, nil
		}
		return nil, "", fmt.Errorf("unregistered action function %q", name)
	}
	stmts, err := lang.ParseActions(src)
	if err != nil {
		return nil, "", err
	}
	return db.dslAction(stmts), src, nil
}

// bindDetection binds the parameters of every constituent occurrence into
// the interpreter frame (later constituents overwrite earlier ones), so a
// condition like `amount > 1000` reads the triggering call's actuals.
func bindDetection(in *lang.Interp, det event.Detection) {
	for _, occ := range det.Constituents {
		for i, n := range occ.ParamNames {
			if i < len(occ.Args) {
				in.Define(n, occ.Args[i])
			}
		}
	}
}

// dslCondition compiles a parsed condition into a rule.Condition. The
// ExecContext is always the runtime's *frame, which implements lang.Env.
func (db *Database) dslCondition(ast lang.Expr) rule.Condition {
	return func(ctx rule.ExecContext, det event.Detection) (bool, error) {
		fr, ok := ctx.(*frame)
		if !ok {
			return false, fmt.Errorf("core: DSL condition outside the runtime")
		}
		in := lang.Interp{Env: fr, Self: fr.Self()}
		bindDetection(&in, det)
		return in.EvalCondition(ast)
	}
}

// dslAction compiles parsed statements into a rule.Action.
func (db *Database) dslAction(stmts []lang.Stmt) rule.Action {
	return func(ctx rule.ExecContext, det event.Detection) error {
		fr, ok := ctx.(*frame)
		if !ok {
			return fmt.Errorf("core: DSL action outside the runtime")
		}
		in := lang.Interp{Env: fr, Self: fr.Self()}
		bindDetection(&in, det)
		return in.ExecStmts(stmts)
	}
}

// ---- subscriptions (§3.5, Fig. 4) ----

// Subscribe attaches a notifiable consumer (a rule, by OID) to a reactive
// object: after subscription the object's generated events propagate to the
// rule. The association is itself a first-class persistent object.
func (db *Database) Subscribe(t *Tx, reactive oid.OID, consumer oid.OID) error {
	o, err := db.lockObject(t, reactive, txn.Exclusive)
	if err != nil {
		return err
	}
	if !o.Class().Reactive() {
		return fmt.Errorf("core: class %s is passive; only reactive objects can be monitored", o.Class().Name)
	}
	db.mu.RLock()
	r := db.rules[consumer]
	_, dup := db.subObjs[subKey{reactive, consumer}]
	db.mu.RUnlock()
	if r == nil {
		return fmt.Errorf("core: consumer %s is not a rule object", consumer)
	}
	if dup {
		return nil // idempotent
	}
	subID, err := db.NewObject(t, SysSubClass, map[string]value.Value{
		"reactive": value.Ref(reactive),
		"consumer": value.Ref(consumer),
	})
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.subs[reactive] = append(db.subs[reactive], consumer)
	db.subObjs[subKey{reactive, consumer}] = subID
	db.mu.Unlock()
	db.invalidateConsumers(t, scopeObj(reactive), func() {
		db.mu.Lock()
		db.subs[reactive] = removeOID(db.subs[reactive], consumer)
		delete(db.subObjs, subKey{reactive, consumer})
		db.mu.Unlock()
	})
	return nil
}

// SubscribeRule is Subscribe by rule name.
func (db *Database) SubscribeRule(t *Tx, ruleName string, reactive oid.OID) error {
	r := db.LookupRule(ruleName)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", ruleName)
	}
	return db.Subscribe(t, reactive, r.ID())
}

// Unsubscribe reverses Subscribe.
func (db *Database) Unsubscribe(t *Tx, reactive oid.OID, consumer oid.OID) error {
	db.mu.RLock()
	subID, ok := db.subObjs[subKey{reactive, consumer}]
	db.mu.RUnlock()
	if !ok {
		return nil
	}
	if err := db.DeleteObject(t, subID); err != nil {
		return err
	}
	db.mu.Lock()
	db.subs[reactive] = removeOID(db.subs[reactive], consumer)
	delete(db.subObjs, subKey{reactive, consumer})
	db.mu.Unlock()
	db.invalidateConsumers(t, scopeObj(reactive), func() {
		db.mu.Lock()
		db.subs[reactive] = append(db.subs[reactive], consumer)
		db.subObjs[subKey{reactive, consumer}] = subID
		db.mu.Unlock()
	})
	return nil
}

// UnsubscribeRule is Unsubscribe by rule name.
func (db *Database) UnsubscribeRule(t *Tx, ruleName string, reactive oid.OID) error {
	r := db.LookupRule(ruleName)
	if r == nil {
		return fmt.Errorf("core: unknown rule %q", ruleName)
	}
	return db.Unsubscribe(t, reactive, r.ID())
}

// SubscribeFunc attaches a transient Go callback consumer to a reactive
// object (the bare Notifiable role; not persisted). It returns an
// unsubscribe function.
func (db *Database) SubscribeFunc(reactive oid.OID, name string, fn func(event.Occurrence)) (func(), error) {
	o := db.objectByID(reactive)
	if o == nil {
		return nil, fmt.Errorf("core: no object %s", reactive)
	}
	if !o.Class().Reactive() {
		return nil, fmt.Errorf("core: class %s is passive; only reactive objects can be monitored", o.Class().Name)
	}
	fc := &FuncConsumer{Name: name, Fn: fn}
	db.mu.Lock()
	db.funcConsumers[reactive] = append(db.funcConsumers[reactive], fc)
	db.mu.Unlock()
	db.applyConsumerInvalidation(scopeObj(reactive))
	return func() {
		db.mu.Lock()
		lst := db.funcConsumers[reactive]
		out := make([]*FuncConsumer, 0, len(lst))
		for _, x := range lst {
			if x != fc {
				out = append(out, x)
			}
		}
		db.funcConsumers[reactive] = out
		db.mu.Unlock()
		db.applyConsumerInvalidation(scopeObj(reactive))
	}, nil
}

// Subscribers returns the OIDs of rule consumers subscribed to a reactive
// object (instance-level only), sorted.
func (db *Database) Subscribers(reactive oid.OID) []oid.OID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]oid.OID(nil), db.subs[reactive]...)
}

// ---- name bindings ----

// Bind names an object ("IBM", "Parker"), creating or updating the backing
// __Name object.
func (db *Database) Bind(t *Tx, name string, target oid.OID) error {
	if db.objectByID(target) == nil {
		return fmt.Errorf("core: no object %s to bind as %q", target, name)
	}
	db.mu.RLock()
	nameObj, exists := db.nameObjs[name]
	prev := db.names[name]
	db.mu.RUnlock()
	if exists {
		if err := db.setAttr(t, nameObj, "target", value.Ref(target), nil, true); err != nil {
			return err
		}
		db.mu.Lock()
		db.names[name] = target
		db.mu.Unlock()
		t.onUndo(func() {
			db.mu.Lock()
			db.names[name] = prev
			db.mu.Unlock()
		})
		return nil
	}
	id, err := db.NewObject(t, SysNameClass, map[string]value.Value{
		"name":   value.Str(name),
		"target": value.Ref(target),
	})
	if err != nil {
		return err
	}
	o := db.objectByID(id)
	t.onUndo(func() { db.dropName(o) })
	return db.loadName(o, nil)
}

// Lookup resolves a bound name.
func (db *Database) Lookup(name string) (oid.OID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	id, ok := db.names[name]
	return id, ok
}

// removeOID deletes the first occurrence of id from the slice, preserving
// order.
func removeOID(s []oid.OID, id oid.OID) []oid.OID {
	for i, x := range s {
		if x == id {
			return append(s[:i:i], s[i+1:]...)
		}
	}
	return s
}
