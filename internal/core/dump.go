package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"sentinel/internal/lang"
	"sentinel/internal/object"
	"sentinel/internal/oid"
	"sentinel/internal/rule"
	"sentinel/internal/value"
)

// DumpDSL writes a SentinelQL script that recreates the database's logical
// state: DSL class definitions, named events, rules, indexes, objects (with
// their attribute values and inter-object references), name bindings,
// subscriptions, and rule enable/disable state.
//
// Limits, flagged with comments in the output:
//   - Go-registered classes and Go-closure rule bodies are code, not data;
//     the dump notes them and the importing program must register them
//     (via Options.Schema) before restoring. "go:" registry references
//     restore fine.
//   - Time-typed attribute values have no literal syntax and are dumped as
//     comments.
//
// Restore with Database.RestoreDSL (not plain Exec: object initializers may
// set private attributes, which restore performs with system access).
func (db *Database) DumpDSL(w io.Writer) error {
	fmt.Fprintln(w, "# SentinelQL dump")

	// 1. Classes: DSL-defined classes replay from their stored sources, in
	// definition order; Go-defined classes are noted.
	type defEntry struct {
		seq    int64
		source string
	}
	var defs []defEntry
	dslDefined := map[string]bool{}
	// Class-catalog objects are system objects: always resident, so the
	// directory sweep sees every one of them.
	db.dir.forEach(func(_ oid.OID, o *object.Object, tomb bool) {
		if tomb || o.Class().Name != SysClassDefClass {
			return
		}
		src, _ := mustGet(o, "source").AsString()
		name, _ := mustGet(o, "name").AsString()
		seq, _ := mustGet(o, "seq").AsInt()
		defs = append(defs, defEntry{seq: seq, source: src})
		dslDefined[name] = true
	})
	sort.Slice(defs, func(i, j int) bool { return defs[i].seq < defs[j].seq })
	fmt.Fprintln(w, "\n# -- classes --")
	for _, c := range db.reg.Classes() {
		if IsSystemClass(c.Name) || dslDefined[c.Name] {
			continue
		}
		fmt.Fprintf(w, "# class %s is Go-defined: register it via Options.Schema before restoring\n", c.Name)
	}
	for _, d := range defs {
		fmt.Fprintln(w, d.source)
	}

	// 2. Named events. Snapshot the catalog under mu, resolve the backing
	// objects afterwards (they are system objects, hence resident; never
	// fault while holding db.mu).
	db.mu.RLock()
	eventNames := make([]string, 0, len(db.namedEvents))
	for n := range db.namedEvents {
		eventNames = append(eventNames, n)
	}
	eventIDs := make(map[string]oid.OID, len(db.eventObjs))
	for n, id := range db.eventObjs {
		eventIDs[n] = id
	}
	db.mu.RUnlock()
	sort.Strings(eventNames)
	if len(eventNames) > 0 {
		fmt.Fprintln(w, "\n# -- named events --")
		for _, n := range eventNames {
			var src string
			if id, ok := eventIDs[n]; ok {
				if o, _ := db.dir.get(id); o != nil {
					src, _ = mustGet(o, "source").AsString()
				}
			}
			if src != "" {
				fmt.Fprintf(w, "event %s = %s\n", n, src)
			}
		}
	}

	// 3. Rules (ADAM/Ode taps and other engine-internal rules included —
	// they carry "__" prefixes and are skipped).
	rules := db.Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID() < rules[j].ID() })
	fmt.Fprintln(w, "\n# -- rules --")
	var disabled []string
	for _, r := range rules {
		if strings.HasPrefix(r.Name(), "__") {
			continue
		}
		if err := db.dumpRule(w, r); err != nil {
			return err
		}
		if !r.Enabled() {
			disabled = append(disabled, r.Name())
		}
	}

	// 4. Indexes.
	if idxs := db.Indexes(); len(idxs) > 0 {
		fmt.Fprintln(w, "\n# -- indexes --")
		for _, h := range idxs {
			fmt.Fprintf(w, "index %s.%s\n", h.Class(), h.Attr())
		}
	}

	// 5. Objects: two phases — create with scalar initializers, then patch
	// reference attributes once every object exists. The union iteration
	// (directory ∪ heap) decodes evicted objects transiently, so the dump
	// never inflates the resident set.
	objsByID := make(map[oid.OID]*object.Object)
	if err := db.forEachLiveObject(func(id oid.OID, o *object.Object) error {
		if !IsSystemClass(o.Class().Name) {
			objsByID[id] = o
		}
		return nil
	}); err != nil {
		return err
	}
	ids := make([]oid.OID, 0, len(objsByID))
	for id := range objsByID {
		ids = append(ids, id)
	}
	value.SortRefs(ids)
	fmt.Fprintln(w, "\n# -- objects --")
	for _, id := range ids {
		o := objsByID[id]
		var inits []string
		for _, a := range o.Class().Layout() {
			v := o.GetSlot(a.Slot())
			if v.IsNil() {
				continue
			}
			switch v.Kind() {
			case value.KindRef, value.KindTime:
				continue // refs in phase 2; time has no literal
			case value.KindList:
				if lst, _ := v.AsList(); containsRef(lst) {
					continue // written in phase 2 alongside plain refs
				}
			}
			lit, ok := literal(v)
			if !ok {
				fmt.Fprintf(w, "# object %s attribute %s: value %s has no literal form\n", objVar(id), a.Name, v)
				continue
			}
			inits = append(inits, fmt.Sprintf("%s: %s", a.Name, lit))
		}
		fmt.Fprintf(w, "let %s := new %s(%s)\n", objVar(id), o.Class().Name, strings.Join(inits, ", "))
	}
	fmt.Fprintln(w, "\n# -- object references --")
	for _, id := range ids {
		o := objsByID[id]
		for _, a := range o.Class().Layout() {
			v := o.GetSlot(a.Slot())
			if ref, ok := v.AsRef(); ok && !ref.IsNil() {
				if objsByID[ref] == nil {
					continue // missing or system object: not dumped
				}
				fmt.Fprintf(w, "%s.%s := %s\n", objVar(id), a.Name, objVar(ref))
			}
			if lst, ok := v.AsList(); ok && containsRef(lst) {
				elems, allOK := listLiteralWithRefs(objsByID, lst)
				if allOK {
					fmt.Fprintf(w, "%s.%s := %s\n", objVar(id), a.Name, elems)
				} else {
					fmt.Fprintf(w, "# object %s attribute %s: list with non-dumpable elements\n", objVar(id), a.Name)
				}
			}
		}
	}

	// 6. Name bindings.
	if names := db.Names(); len(names) > 0 {
		fmt.Fprintln(w, "\n# -- bindings --")
		for _, n := range names {
			target, _ := db.Lookup(n)
			if objsByID[target] != nil {
				fmt.Fprintf(w, "bind %s %s\n", n, objVar(target))
			}
		}
	}

	// 7. Subscriptions (rule consumers only; Go func consumers are
	// transient). Snapshot the edges under mu; the reactive-object check
	// uses the already-collected population.
	db.mu.RLock()
	type subPair struct {
		reactive oid.OID
		ruleName string
	}
	var subsOut []subPair
	for reactive, consumers := range db.subs {
		for _, c := range consumers {
			if r := db.rules[c]; r != nil && !strings.HasPrefix(r.Name(), "__") {
				subsOut = append(subsOut, subPair{reactive, r.Name()})
			}
		}
	}
	db.mu.RUnlock()
	kept := subsOut[:0]
	for _, s := range subsOut {
		if objsByID[s.reactive] != nil {
			kept = append(kept, s)
		}
	}
	subsOut = kept
	sort.Slice(subsOut, func(i, j int) bool {
		if subsOut[i].reactive != subsOut[j].reactive {
			return subsOut[i].reactive < subsOut[j].reactive
		}
		return subsOut[i].ruleName < subsOut[j].ruleName
	})
	if len(subsOut) > 0 {
		fmt.Fprintln(w, "\n# -- subscriptions --")
		for _, s := range subsOut {
			fmt.Fprintf(w, "subscribe %s to %s\n", s.ruleName, objVar(s.reactive))
		}
	}

	// 8. Disabled rules.
	if len(disabled) > 0 {
		fmt.Fprintln(w, "\n# -- rule state --")
		for _, n := range disabled {
			fmt.Fprintf(w, "disable %s\n", n)
		}
	}
	return nil
}

// dumpRule renders one rule declaration (or a comment when its behaviour is
// an unpersistable Go closure).
func (db *Database) dumpRule(w io.Writer, r *rule.Rule) error {
	if r.CondClosure || r.ActClosure {
		fmt.Fprintf(w, "# rule %s uses unregistered Go closures and cannot be dumped; use go: registry names\n", r.Name())
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s", r.Name())
	if r.ClassLevel != "" {
		fmt.Fprintf(&b, " for %s", r.ClassLevel)
	}
	fmt.Fprintf(&b, "\n\ton %s", db.ruleEventSrc(r))
	if r.CondSrc != "" {
		fmt.Fprintf(&b, "\n\tif %s", r.CondSrc)
	}
	action := r.ActSrc
	switch {
	case action == "":
		b.WriteString("\n\tthen { print(\"\") }") // no action: keep it syntactically valid
	case strings.HasPrefix(action, "go:"):
		fmt.Fprintf(&b, "\n\tthen %s", action) // registry refs are not statements
	default:
		fmt.Fprintf(&b, "\n\tthen { %s }", action)
	}
	if r.Coupling != rule.Immediate {
		fmt.Fprintf(&b, "\n\tcoupling %s", r.Coupling)
	}
	if r.Priority != 0 {
		fmt.Fprintf(&b, "\n\tpriority %d", r.Priority)
	}
	if r.Context != 0 {
		fmt.Fprintf(&b, "\n\tcontext %s", r.Context)
	}
	if r.TxScoped {
		b.WriteString("\n\tscope transaction")
	}
	fmt.Fprintln(w, b.String())
	return nil
}

// ruleEventSrc returns the persisted event source of a rule (falling back
// to the canonical rendering).
func (db *Database) ruleEventSrc(r *rule.Rule) string {
	if o := db.objectByID(r.ID()); o != nil {
		if src, _ := mustGet(o, "event").AsString(); src != "" {
			return src
		}
	}
	return r.Event.String()
}

// objVar names an object variable in the dump script.
func objVar(id oid.OID) string { return fmt.Sprintf("o%d", uint64(id)) }

// literal renders a value as a parseable SentinelQL literal.
func literal(v value.Value) (string, bool) {
	switch v.Kind() {
	case value.KindBool, value.KindInt:
		return v.String(), true
	case value.KindFloat:
		f, _ := v.AsFloat()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return "", false
		}
		return v.String(), true
	case value.KindString:
		s, _ := v.AsString()
		return strconv.Quote(s), true
	case value.KindList:
		lst, _ := v.AsList()
		parts := make([]string, len(lst))
		for i, e := range lst {
			p, ok := literal(e)
			if !ok {
				return "", false
			}
			parts[i] = p
		}
		return "[" + strings.Join(parts, ", ") + "]", true
	default:
		return "", false
	}
}

func containsRef(lst []value.Value) bool {
	for _, e := range lst {
		if _, ok := e.AsRef(); ok {
			return true
		}
	}
	return false
}

func listLiteralWithRefs(objsByID map[oid.OID]*object.Object, lst []value.Value) (string, bool) {
	parts := make([]string, len(lst))
	for i, e := range lst {
		if ref, ok := e.AsRef(); ok {
			if objsByID[ref] == nil {
				return "", false
			}
			parts[i] = objVar(ref)
			continue
		}
		p, ok := literal(e)
		if !ok {
			return "", false
		}
		parts[i] = p
	}
	return "[" + strings.Join(parts, ", ") + "]", true
}

// RestoreDSL executes a dump script with system visibility (the reference-
// patching phase writes attributes regardless of their declared
// visibility). Everything runs in one transaction.
func (db *Database) RestoreDSL(src string) error {
	return db.Atomically(func(t *Tx) error {
		script, err := lang.ParseScript(src, db.eventResolver())
		if err != nil {
			return err
		}
		fr := &frame{db: db, tx: t, sysAccess: true}
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
	})
}
