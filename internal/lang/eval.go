package lang

import (
	"fmt"
	"strings"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// Env is the database environment SentinelQL code evaluates against. The
// core runtime implements it once per execution frame (method body, rule
// condition, rule action, shell statement); visibility semantics are the
// frame's concern — method bodies see their class's private members, rule
// bodies run with rule (system) visibility, shell statements see only
// public members.
type Env interface {
	// GetAttr reads an attribute of an object.
	GetAttr(obj oid.OID, attr string) (value.Value, error)
	// SetAttr writes an attribute of an object.
	SetAttr(obj oid.OID, attr string, v value.Value) error
	// GetSelfAttr reads an attribute of the frame's self; ok=false when
	// self has no such attribute (so identifier resolution can fall
	// through to name bindings).
	GetSelfAttr(attr string) (v value.Value, ok bool, err error)
	// Send delivers a message.
	Send(obj oid.OID, method string, args ...value.Value) (value.Value, error)
	// NewObject instantiates a class.
	NewObject(class string, inits map[string]value.Value) (oid.OID, error)
	// LookupName resolves a database name binding.
	LookupName(name string) (oid.OID, bool)
	// BindName creates/overwrites a database name binding.
	BindName(name string, obj oid.OID) error
	// Subscribe attaches the named rule to a reactive object.
	Subscribe(ruleName string, target oid.OID) error
	// Unsubscribe detaches it.
	Unsubscribe(ruleName string, target oid.OID) error
	// SetRuleEnabled enables/disables a rule by name.
	SetRuleEnabled(ruleName string, enabled bool) error
	// Abort constructs the error that aborts the enclosing transaction.
	Abort(reason string) error
	// RaiseEvent signals an explicit application event (valid in method
	// bodies).
	RaiseEvent(name string, args []value.Value) error
	// Instances lists all live instances of the named class (and its
	// subclasses); backs the instances(...) builtin.
	Instances(class string) ([]oid.OID, error)
	// LookupByAttr finds instances of class whose attribute equals v
	// (index-accelerated when possible); backs the lookup(...) builtin.
	LookupByAttr(class, attr string, v value.Value) ([]oid.OID, error)
	// CreateIndex / DropIndex manage secondary equality indexes (the
	// `index Class.attr` / `unindex Class.attr` statements).
	CreateIndex(class, attr string) error
	DropIndex(class, attr string) error
	// Output receives print() text.
	Output(s string)
}

// binding is one name on a Scope's stack.
type binding struct {
	name string
	v    value.Value
	prev int // once the Scope is indexed: the next-outer binding of name, or -1
}

// scopeInline is how many bindings a Scope holds before it spills to a
// slice: enough for the parameters and locals of a typical condition,
// action or method body.
const scopeInline = 4

// scopeIndexAt is the stack height at which a Scope starts a name index.
// Below it a name is found by scanning the few bindings there are; a
// script's scope (a dump has one top-level `let` per object) grows past
// it and then finds a name in one map lookup.
const scopeIndexAt = 16

// Scope holds locals and event parameters as one flat stack of bindings,
// innermost last. A block (`if`/`else` body, `while` body, each `for`
// iteration) is not a scope of its own but a mark on this stack: it opens
// at the top and pops back to it when it ends. The zero Scope is empty.
type Scope struct {
	inline [scopeInline]binding
	spill  []binding      // bindings past the inline ones
	index  map[string]int // innermost binding of each name; nil until n first reaches scopeIndexAt
	n      int            // bindings on the stack
	base   int            // first binding of the innermost open block
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{} }

func (s *Scope) at(i int) *binding {
	if i < scopeInline {
		return &s.inline[i]
	}
	return &s.spill[i-scopeInline]
}

// find returns the innermost binding of name at or above stack index from.
func (s *Scope) find(name string, from int) *binding {
	if s.index != nil {
		if i, ok := s.index[name]; ok && i >= from {
			return s.at(i)
		}
		return nil
	}
	for i := s.n - 1; i >= from; i-- {
		if b := s.at(i); b.name == name {
			return b
		}
	}
	return nil
}

// Define creates (or overwrites) a binding in the innermost open block.
func (s *Scope) Define(name string, v value.Value) {
	if b := s.find(name, s.base); b != nil {
		b.v = v
		return
	}
	b := binding{name: name, v: v, prev: -1}
	if s.index != nil {
		if i, ok := s.index[name]; ok {
			b.prev = i
		}
		s.index[name] = s.n
	}
	if s.n < scopeInline {
		s.inline[s.n] = b
	} else {
		s.spill = append(s.spill[:s.n-scopeInline], b)
	}
	s.n++
	if s.index == nil && s.n == scopeIndexAt {
		s.index = make(map[string]int, 2*scopeIndexAt)
		for i := 0; i < s.n; i++ {
			b := s.at(i)
			b.prev = -1
			if j, ok := s.index[b.name]; ok {
				b.prev = j
			}
			s.index[b.name] = i
		}
	}
}

// Lookup resolves a name innermost-first.
func (s *Scope) Lookup(name string) (value.Value, bool) {
	if b := s.find(name, 0); b != nil {
		return b.v, true
	}
	return value.Nil, false
}

// assign overwrites the innermost existing binding; ok=false if none exists.
func (s *Scope) assign(name string, v value.Value) bool {
	if b := s.find(name, 0); b != nil {
		b.v = v
		return true
	}
	return false
}

// open starts a block at the top of the stack and returns the enclosing
// block's base, which close takes back.
func (s *Scope) open() (outer int) {
	outer, s.base = s.base, s.n
	return outer
}

// close pops the innermost block, clearing its bindings so the values they
// held are not kept alive, and reopens the enclosing block at outer. A
// block binds each name once, so every binding it pops is its name's
// innermost, and the index falls back to the one that binding shadowed.
func (s *Scope) close(outer int) {
	for i := s.base; i < s.n; i++ {
		b := s.at(i)
		if s.index != nil {
			if b.prev >= 0 {
				s.index[b.name] = b.prev
			} else {
				delete(s.index, b.name)
			}
		}
		*b = binding{}
	}
	s.n, s.base = s.base, outer
}

// returnSignal unwinds a method body on `return`.
type returnSignal struct{ v value.Value }

func (returnSignal) Error() string { return "return outside of method body" }

// Interp evaluates SentinelQL ASTs against an Env. An Interp built as a
// value with a nil Scope keeps its bindings in itself, so a rule condition,
// action or method body that declares one on the Go stack runs without a
// heap scope.
type Interp struct {
	Env   Env
	Self  oid.OID // oid.Nil outside method/rule frames
	Scope *Scope  // nil: the Interp's own bindings
	own   Scope
}

// NewInterp returns an interpreter frame.
func NewInterp(env Env, self oid.OID, scope *Scope) *Interp {
	if scope == nil {
		scope = NewScope()
	}
	return &Interp{Env: env, Self: self, Scope: scope}
}

func (in *Interp) scope() *Scope {
	if in.Scope != nil {
		return in.Scope
	}
	return &in.own
}

// Define binds name in the frame's innermost open block (an event or
// call parameter before the body runs).
func (in *Interp) Define(name string, v value.Value) { in.scope().Define(name, v) }

// execBlock runs stmts as a block: the bindings they define are popped
// when it ends, however it ends.
func (in *Interp) execBlock(stmts []Stmt) error {
	sc := in.scope()
	outer := sc.open()
	err := in.ExecStmts(stmts)
	sc.close(outer)
	return err
}

// EvalCondition evaluates a condition expression to a boolean (Truthy).
func (in *Interp) EvalCondition(e Expr) (bool, error) {
	v, err := in.Eval(e)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// ExecBody runs a method body and returns the value of its `return`
// statement (value.Nil if the body falls off the end).
func (in *Interp) ExecBody(stmts []Stmt) (value.Value, error) {
	err := in.ExecStmts(stmts)
	if err != nil {
		if rs, ok := err.(returnSignal); ok {
			return rs.v, nil
		}
		return value.Nil, err
	}
	return value.Nil, nil
}

// ExecStmts runs a statement sequence (a rule action, shell input).
// `return` inside surfaces as an error; use ExecBody for method bodies.
func (in *Interp) ExecStmts(stmts []Stmt) error {
	for _, st := range stmts {
		if err := in.execStmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(st Stmt) error {
	switch s := st.(type) {
	case *Let:
		v, err := in.Eval(s.Expr)
		if err != nil {
			return err
		}
		in.scope().Define(s.Name, v)
		return nil

	case *Assign:
		v, err := in.Eval(s.Value)
		if err != nil {
			return err
		}
		switch tgt := s.Target.(type) {
		case *Ident:
			if in.scope().assign(tgt.Name, v) {
				return nil
			}
			// Fall through to a self attribute.
			if !in.Self.IsNil() {
				if _, ok, _ := in.Env.GetSelfAttr(tgt.Name); ok {
					return in.Env.SetAttr(in.Self, tgt.Name, v)
				}
			}
			return errf(tgt.Pos, "cannot assign to unknown name %q", tgt.Name)
		case *AttrAccess:
			recv, err := in.evalRef(tgt.Recv)
			if err != nil {
				return err
			}
			return in.Env.SetAttr(recv, tgt.Name, v)
		default:
			return errf(s.Pos, "invalid assignment target")
		}

	case *ExprStmt:
		_, err := in.Eval(s.X)
		return err

	case *AbortStmt:
		return in.Env.Abort(s.Reason)

	case *RaiseStmt:
		args := make([]value.Value, len(s.Args))
		for i, a := range s.Args {
			v, err := in.Eval(a)
			if err != nil {
				return err
			}
			args[i] = v
		}
		return in.Env.RaiseEvent(s.Name, args)

	case *ReturnStmt:
		v := value.Nil
		if s.X != nil {
			var err error
			v, err = in.Eval(s.X)
			if err != nil {
				return err
			}
		}
		return returnSignal{v: v}

	case *PrintStmt:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			v, err := in.Eval(a)
			if err != nil {
				return err
			}
			parts[i] = Render(v)
		}
		in.Env.Output(strings.Join(parts, " "))
		return nil

	case *IfStmt:
		ok, err := in.EvalCondition(s.Cond)
		if err != nil {
			return err
		}
		if ok {
			return in.execBlock(s.Then)
		}
		return in.execBlock(s.Else)

	case *WhileStmt:
		for i := 0; ; i++ {
			if i >= 1_000_000 {
				return errf(s.Pos, "while loop exceeded 1e6 iterations")
			}
			ok, err := in.EvalCondition(s.Cond)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := in.execBlock(s.Body); err != nil {
				return err
			}
		}

	case *ForStmt:
		seqV, err := in.Eval(s.Seq)
		if err != nil {
			return err
		}
		l, ok := seqV.AsList()
		if !ok {
			return errf(s.Pos, "for .. in expects a list, got %s", seqV.Kind())
		}
		sc := in.scope()
		for _, e := range l {
			outer := sc.open()
			sc.Define(s.Var, e)
			err := in.ExecStmts(s.Body)
			sc.close(outer)
			if err != nil {
				return err
			}
		}
		return nil

	case *BindStmt:
		ref, err := in.evalRef(s.Expr)
		if err != nil {
			return err
		}
		return in.Env.BindName(s.Name, ref)

	case *SubscribeStmt:
		ref, err := in.evalRef(s.Target)
		if err != nil {
			return err
		}
		if s.Unsubscribe {
			return in.Env.Unsubscribe(s.Rule, ref)
		}
		return in.Env.Subscribe(s.Rule, ref)

	case *RuleCtlStmt:
		return in.Env.SetRuleEnabled(s.Rule, !s.Disable)

	case *IndexStmt:
		if s.Drop {
			return in.Env.DropIndex(s.Class, s.Attr)
		}
		return in.Env.CreateIndex(s.Class, s.Attr)

	default:
		return fmt.Errorf("sentinelql: unknown statement %T", st)
	}
}

// Eval evaluates an expression.
func (in *Interp) Eval(e Expr) (value.Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil

	case *SelfExpr:
		if in.Self.IsNil() {
			return value.Nil, errf(x.Pos, "self used outside an object context")
		}
		return value.Ref(in.Self), nil

	case *Ident:
		if v, ok := in.scope().Lookup(x.Name); ok {
			return v, nil
		}
		if !in.Self.IsNil() {
			if v, ok, err := in.Env.GetSelfAttr(x.Name); ok || err != nil {
				return v, err
			}
		}
		if ref, ok := in.Env.LookupName(x.Name); ok {
			return value.Ref(ref), nil
		}
		return value.Nil, errf(x.Pos, "unknown name %q", x.Name)

	case *AttrAccess:
		recv, err := in.evalRef(x.Recv)
		if err != nil {
			return value.Nil, err
		}
		return in.Env.GetAttr(recv, x.Name)

	case *Call:
		// Bare calls dispatch to builtins first; otherwise they are sends
		// to self.
		if x.Recv == nil && IsBuiltin(x.Name) {
			args := make([]value.Value, len(x.Args))
			for i, a := range x.Args {
				v, err := in.Eval(a)
				if err != nil {
					return value.Nil, err
				}
				args[i] = v
			}
			return in.callBuiltin(x.Pos, x.Name, args)
		}
		var recv oid.OID
		if x.Recv == nil {
			if in.Self.IsNil() {
				return value.Nil, errf(x.Pos, "bare call %q outside an object context", x.Name)
			}
			recv = in.Self
		} else {
			var err error
			recv, err = in.evalRef(x.Recv)
			if err != nil {
				return value.Nil, err
			}
		}
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.Eval(a)
			if err != nil {
				return value.Nil, err
			}
			args[i] = v
		}
		return in.Env.Send(recv, x.Name, args...)

	case *NewExpr:
		inits := make(map[string]value.Value, len(x.Inits))
		for _, fi := range x.Inits {
			v, err := in.Eval(fi.Expr)
			if err != nil {
				return value.Nil, err
			}
			inits[fi.Name] = v
		}
		ref, err := in.Env.NewObject(x.Class, inits)
		if err != nil {
			return value.Nil, err
		}
		return value.Ref(ref), nil

	case *Unary:
		v, err := in.Eval(x.X)
		if err != nil {
			return value.Nil, err
		}
		switch x.Op {
		case "-":
			if i, ok := v.AsInt(); ok {
				return value.Int(-i), nil
			}
			if f, ok := v.AsFloat(); ok {
				return value.Float(-f), nil
			}
			return value.Nil, errf(x.Pos, "unary - on %s", v.Kind())
		case "!":
			return value.Bool(!v.Truthy()), nil
		default:
			return value.Nil, errf(x.Pos, "unknown unary operator %q", x.Op)
		}

	case *Binary:
		return in.evalBinary(x)

	case *ListLit:
		elems := make([]value.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := in.Eval(el)
			if err != nil {
				return value.Nil, err
			}
			elems[i] = v
		}
		return value.List(elems...), nil

	case *Index:
		recv, err := in.Eval(x.Recv)
		if err != nil {
			return value.Nil, err
		}
		idxV, err := in.Eval(x.I)
		if err != nil {
			return value.Nil, err
		}
		idx, ok := idxV.AsInt()
		if !ok {
			return value.Nil, errf(x.Pos, "index must be an integer, got %s", idxV.Kind())
		}
		l, ok := recv.AsList()
		if !ok {
			return value.Nil, errf(x.Pos, "indexing a %s", recv.Kind())
		}
		if idx < 0 || int(idx) >= len(l) {
			return value.Nil, errf(x.Pos, "index %d out of range (len %d)", idx, len(l))
		}
		return l[idx], nil

	default:
		return value.Nil, fmt.Errorf("sentinelql: unknown expression %T", e)
	}
}

func (in *Interp) evalBinary(x *Binary) (value.Value, error) {
	// Short-circuit logical operators.
	if x.Op == "&&" || x.Op == "||" {
		l, err := in.Eval(x.L)
		if err != nil {
			return value.Nil, err
		}
		if x.Op == "&&" && !l.Truthy() {
			return value.Bool(false), nil
		}
		if x.Op == "||" && l.Truthy() {
			return value.Bool(true), nil
		}
		r, err := in.Eval(x.R)
		if err != nil {
			return value.Nil, err
		}
		return value.Bool(r.Truthy()), nil
	}

	l, err := in.Eval(x.L)
	if err != nil {
		return value.Nil, err
	}
	r, err := in.Eval(x.R)
	if err != nil {
		return value.Nil, err
	}

	switch x.Op {
	case "==":
		return value.Bool(l.Equal(r)), nil
	case "!=":
		return value.Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		if !comparable2(l, r) {
			return value.Nil, errf(x.Pos, "cannot compare %s with %s", l.Kind(), r.Kind())
		}
		c := l.Compare(r)
		switch x.Op {
		case "<":
			return value.Bool(c < 0), nil
		case "<=":
			return value.Bool(c <= 0), nil
		case ">":
			return value.Bool(c > 0), nil
		default:
			return value.Bool(c >= 0), nil
		}
	case "+":
		if ls, ok := l.AsString(); ok {
			if rs, ok2 := r.AsString(); ok2 {
				return value.Str(ls + rs), nil
			}
			return value.Str(ls + Render(r)), nil
		}
		return arith(x.Pos, "+", l, r)
	case "-", "*", "/", "%":
		return arith(x.Pos, x.Op, l, r)
	default:
		return value.Nil, errf(x.Pos, "unknown operator %q", x.Op)
	}
}

func comparable2(l, r value.Value) bool {
	if _, lnum := l.Numeric(); lnum {
		_, rnum := r.Numeric()
		return rnum
	}
	return l.Kind() == r.Kind()
}

func arith(pos Pos, op string, l, r value.Value) (value.Value, error) {
	li, lIsInt := l.AsInt()
	ri, rIsInt := r.AsInt()
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return value.Int(li + ri), nil
		case "-":
			return value.Int(li - ri), nil
		case "*":
			return value.Int(li * ri), nil
		case "/":
			if ri == 0 {
				return value.Nil, errf(pos, "integer division by zero")
			}
			return value.Int(li / ri), nil
		case "%":
			if ri == 0 {
				return value.Nil, errf(pos, "integer modulo by zero")
			}
			return value.Int(li % ri), nil
		}
	}
	lf, lok := l.Numeric()
	rf, rok := r.Numeric()
	if !lok || !rok {
		return value.Nil, errf(pos, "arithmetic %s on %s and %s", op, l.Kind(), r.Kind())
	}
	switch op {
	case "+":
		return value.Float(lf + rf), nil
	case "-":
		return value.Float(lf - rf), nil
	case "*":
		return value.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return value.Nil, errf(pos, "division by zero")
		}
		return value.Float(lf / rf), nil
	case "%":
		return value.Nil, errf(pos, "%% needs integer operands")
	}
	return value.Nil, errf(pos, "unknown operator %q", op)
}

// evalRef evaluates an expression that must denote an object.
func (in *Interp) evalRef(e Expr) (oid.OID, error) {
	v, err := in.Eval(e)
	if err != nil {
		return oid.Nil, err
	}
	ref, ok := v.AsRef()
	if !ok {
		return oid.Nil, fmt.Errorf("sentinelql: expected an object, got %s", v.Kind())
	}
	return ref, nil
}

// Render formats a value for print(): strings unquoted, everything else via
// Value.String.
func Render(v value.Value) string {
	if s, ok := v.AsString(); ok {
		return s
	}
	return v.String()
}
