package core

import (
	"fmt"

	"sentinel/internal/lang"
	"sentinel/internal/schema"
	"sentinel/internal/value"
)

// ExecScript parses and executes a SentinelQL compilation unit inside the
// transaction: class definitions register (and persist as __ClassDef
// objects), event and rule declarations become first-class objects, and
// statements run with shell (public) visibility.
//
// Class registration is DDL and is not undone if the transaction later
// aborts (the catalog object is, so the definition will not survive a
// restart); rules, events, bindings and data statements are fully
// transactional.
func (db *Database) ExecScript(t *Tx, src string) error {
	script, err := lang.ParseScript(src, db.eventResolver())
	if err != nil {
		return err
	}
	// One shared frame and scope per compilation unit, so `let` bindings
	// carry across the following statements.
	fr := &frame{db: db, tx: t}
	in := lang.NewInterp(fr, fr.Self(), nil)
	for _, item := range script.Items {
		switch it := item.(type) {
		case *lang.ClassDecl:
			if err := db.registerDSLClass(t, it); err != nil {
				return err
			}
		case *lang.EvolveDecl:
			if err := db.evolveDSLClass(t, it.Class); err != nil {
				return err
			}
		case *lang.EventDecl:
			if _, err := db.DefineEvent(t, it.Name, it.Source); err != nil {
				return err
			}
		case *lang.RuleDecl:
			if _, err := db.CreateRule(t, specFromDecl(it, "")); err != nil {
				return err
			}
		case lang.Stmt:
			if err := in.ExecStmts([]lang.Stmt{it}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: unknown script item %T", item)
		}
	}
	return nil
}

// Exec is ExecScript in its own transaction.
func (db *Database) Exec(src string) error { return db.ExecPending(src).Finish() }

// ExecPending is Exec with the commit's tail left to the caller (see
// Pending).
func (db *Database) ExecPending(src string) Pending {
	return db.atomicallyPending(func(t *Tx) error { return db.ExecScript(t, src) })
}

// Eval evaluates a single SentinelQL expression in its own transaction and
// returns the result.
func (db *Database) Eval(src string) (value.Value, error) {
	v, p := db.EvalPending(src)
	return v, p.Finish()
}

// EvalPending is Eval with the commit's tail left to the caller (see
// Pending); the value is final once it returns.
func (db *Database) EvalPending(src string) (value.Value, Pending) {
	ast, err := lang.ParseCondition(src)
	if err != nil {
		return value.Nil, Pending{err: err}
	}
	var out value.Value
	p := db.atomicallyPending(func(t *Tx) error {
		fr := &frame{db: db, tx: t}
		in := lang.NewInterp(fr, fr.Self(), nil)
		v, err := in.Eval(ast)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	return out, p
}

// specFromDecl converts a parsed rule declaration into a RuleSpec. A rule
// nested in a class definition is class-level for that class; a top-level
// rule can opt into class scope with `for ClassName`.
func specFromDecl(d *lang.RuleDecl, classLevel string) RuleSpec {
	if classLevel == "" {
		classLevel = d.ForClass
	}
	spec := RuleSpec{
		Name:       d.Name,
		Event:      d.Event,
		EventSrc:   d.EventName,
		ActionSrc:  d.ActionSrc,
		CondSrc:    d.CondSrc,
		Coupling:   d.Coupling,
		Priority:   d.Priority,
		Context:    d.Context,
		ClassLevel: classLevel,
		TxScoped:   d.TxScoped,
	}
	return spec
}

// buildDSLClass constructs an unregistered runtime class from a parsed
// declaration, with interpreted method bodies.
func (db *Database) buildDSLClass(d *lang.ClassDecl) (*schema.Class, error) {
	if IsSystemClass(d.Name) {
		return nil, fmt.Errorf("core: class name %s is reserved", d.Name)
	}
	bases := make([]*schema.Class, 0, len(d.Bases))
	for _, bn := range d.Bases {
		b := db.reg.Lookup(bn)
		if b == nil {
			return nil, fmt.Errorf("core: class %s extends unknown class %s", d.Name, bn)
		}
		bases = append(bases, b)
	}
	c := schema.NewClass(d.Name, bases...)
	c.Abstract = d.Abstract
	c.Persistent = d.Persistent
	switch {
	case d.Reactive && d.Notifiable:
		c.Classification = schema.ReactiveNotifiableClass
	case d.Reactive:
		c.Classification = schema.ReactiveClass
	case d.Notifiable:
		c.Classification = schema.NotifiableClass
	}
	for _, a := range d.Attrs {
		c.AddAttribute(&schema.Attribute{
			Name:       a.Name,
			Type:       a.Type,
			Visibility: a.Visibility,
			Default:    a.Default,
		})
	}
	for _, m := range d.Methods {
		body := m.Body
		params := m.Params
		c.AddMethod(&schema.Method{
			Name:       m.Name,
			Params:     m.Params,
			Returns:    m.Returns,
			Visibility: m.Visibility,
			EventGen:   m.EventGen,
			Body: func(ctx schema.CallContext) (value.Value, error) {
				fr, ok := ctx.(*frame)
				if !ok {
					return value.Nil, fmt.Errorf("core: interpreted method outside the runtime")
				}
				in := lang.Interp{Env: fr, Self: ctx.Self()}
				for i, p := range params {
					in.Define(p.Name, ctx.Arg(i))
				}
				return in.ExecBody(body)
			},
		})
	}
	return c, nil
}

// registerDSLClass materializes a SentinelQL class definition as a runtime
// class with interpreted method bodies, creates its class-level rules, and
// stores the definition source as a __ClassDef object, which reopening the
// database (and a replica) load through loadClassDef.
func (db *Database) registerDSLClass(t *Tx, d *lang.ClassDecl) error {
	// Registration is not undone, so check before it what NewObject would.
	if err := t.writable(); err != nil {
		return err
	}
	c, err := db.buildDSLClass(d)
	if err != nil {
		return err
	}
	if err := db.reg.Register(c); err != nil {
		return err
	}
	for i := range d.Rules {
		rd := &d.Rules[i]
		if _, err := db.CreateRule(t, specFromDecl(rd, c.Name)); err != nil {
			return fmt.Errorf("core: class %s rule %s: %w", c.Name, rd.Name, err)
		}
	}
	db.mu.Lock()
	db.dslClassSeq++
	seq := db.dslClassSeq
	db.mu.Unlock()
	_, err = db.NewObject(t, SysClassDefClass, map[string]value.Value{
		"name":   value.Str(d.Name),
		"source": value.Str(d.Source),
		"seq":    value.Int(int64(seq)),
	})
	return err
}
