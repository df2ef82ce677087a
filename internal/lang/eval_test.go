package lang

import (
	"fmt"
	"strings"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// mockEnv is an in-memory lang.Env for interpreter tests.
type mockEnv struct {
	attrs   map[oid.OID]map[string]value.Value
	selfID  oid.OID
	names   map[string]oid.OID
	sends   []string
	out     []string
	raised  []string
	subs    []string
	enabled map[string]bool
	nextOID oid.OID
}

func newMockEnv() *mockEnv {
	return &mockEnv{
		attrs:   make(map[oid.OID]map[string]value.Value),
		names:   make(map[string]oid.OID),
		enabled: make(map[string]bool),
		nextOID: 100,
	}
}

func (m *mockEnv) addObject(id oid.OID, attrs map[string]value.Value) {
	m.attrs[id] = attrs
}

func (m *mockEnv) GetAttr(obj oid.OID, attr string) (value.Value, error) {
	o, ok := m.attrs[obj]
	if !ok {
		return value.Nil, fmt.Errorf("no object %s", obj)
	}
	v, ok := o[attr]
	if !ok {
		return value.Nil, fmt.Errorf("no attr %q", attr)
	}
	return v, nil
}

func (m *mockEnv) SetAttr(obj oid.OID, attr string, v value.Value) error {
	o, ok := m.attrs[obj]
	if !ok {
		return fmt.Errorf("no object %s", obj)
	}
	o[attr] = v
	return nil
}

func (m *mockEnv) GetSelfAttr(attr string) (value.Value, bool, error) {
	if m.selfID.IsNil() {
		return value.Nil, false, nil
	}
	o := m.attrs[m.selfID]
	v, ok := o[attr]
	if !ok {
		return value.Nil, false, nil
	}
	return v, true, nil
}

func (m *mockEnv) Send(obj oid.OID, method string, args ...value.Value) (value.Value, error) {
	m.sends = append(m.sends, fmt.Sprintf("%s.%s/%d", obj, method, len(args)))
	if method == "Fail" {
		return value.Nil, fmt.Errorf("send failed")
	}
	if method == "Echo" && len(args) > 0 {
		return args[0], nil
	}
	return value.Int(int64(len(args))), nil
}

func (m *mockEnv) NewObject(class string, inits map[string]value.Value) (oid.OID, error) {
	m.nextOID++
	attrs := make(map[string]value.Value)
	for k, v := range inits {
		attrs[k] = v
	}
	m.attrs[m.nextOID] = attrs
	return m.nextOID, nil
}

func (m *mockEnv) LookupName(name string) (oid.OID, bool) {
	id, ok := m.names[name]
	return id, ok
}

func (m *mockEnv) BindName(name string, obj oid.OID) error {
	m.names[name] = obj
	return nil
}

func (m *mockEnv) Subscribe(rule string, target oid.OID) error {
	m.subs = append(m.subs, "sub:"+rule)
	return nil
}

func (m *mockEnv) Unsubscribe(rule string, target oid.OID) error {
	m.subs = append(m.subs, "unsub:"+rule)
	return nil
}

func (m *mockEnv) SetRuleEnabled(rule string, enabled bool) error {
	m.enabled[rule] = enabled
	return nil
}

func (m *mockEnv) Abort(reason string) error { return fmt.Errorf("ABORT: %s", reason) }

func (m *mockEnv) RaiseEvent(name string, args []value.Value) error {
	m.raised = append(m.raised, name)
	return nil
}

func (m *mockEnv) Output(s string) { m.out = append(m.out, s) }

func evalStr(t *testing.T, env *mockEnv, self oid.OID, src string) value.Value {
	t.Helper()
	ast, err := ParseCondition(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	in := NewInterp(env, self, nil)
	v, err := in.Eval(ast)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	env := newMockEnv()
	cases := map[string]value.Value{
		`1 + 2 * 3`:     value.Int(7),
		`(1 + 2) * 3`:   value.Int(9),
		`7 / 2`:         value.Int(3),
		`7.0 / 2`:       value.Float(3.5),
		`7 % 3`:         value.Int(1),
		`-4 + 1`:        value.Int(-3),
		`1.5 + 1`:       value.Float(2.5),
		`"a" + "b"`:     value.Str("ab"),
		`"n=" + 3`:      value.Str("n=3"),
		`2 < 3`:         value.Bool(true),
		`2 >= 3`:        value.Bool(false),
		`3 == 3.0`:      value.Bool(true),
		`"a" != "b"`:    value.Bool(true),
		`true && false`: value.Bool(false),
		`true || false`: value.Bool(true),
		`!true`:         value.Bool(false),
		`not false`:     value.Bool(true),
		`nil == nil`:    value.Bool(true),
	}
	for src, want := range cases {
		if got := evalStr(t, env, oid.Nil, src); !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := newMockEnv()
	bad := []string{
		`1 / 0`, `1 % 0`, `1.5 / 0.0`, `"a" - 1`, `1 < "a"`, `-"x"`,
		`unknownName`, `self`, `1.5 % 2.0`,
	}
	for _, src := range bad {
		ast, err := ParseCondition(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		in := NewInterp(env, oid.Nil, nil)
		if _, err := in.Eval(ast); err == nil {
			t.Errorf("eval %q: expected error", src)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	env := newMockEnv()
	// The right side would error (unknown name), but short-circuit skips it.
	if got := evalStr(t, env, oid.Nil, `false && missingName`); got.Truthy() {
		t.Error("short-circuit && wrong")
	}
	if got := evalStr(t, env, oid.Nil, `true || missingName`); !got.Truthy() {
		t.Error("short-circuit || wrong")
	}
}

func TestIdentResolutionOrder(t *testing.T) {
	env := newMockEnv()
	self := oid.OID(1)
	env.addObject(self, map[string]value.Value{"x": value.Int(10)})
	other := oid.OID(2)
	env.addObject(other, map[string]value.Value{"y": value.Int(99)})
	env.names["x"] = other // a name binding shadowed by the self attribute
	env.names["obj"] = other
	env.selfID = self

	scope := NewScope()
	scope.Define("local", value.Int(1))
	in := NewInterp(env, self, scope)

	eval := func(src string) value.Value {
		ast, err := ParseCondition(src)
		if err != nil {
			t.Fatal(err)
		}
		v, err := in.Eval(ast)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		return v
	}

	if got := eval(`local`); !got.Equal(value.Int(1)) {
		t.Error("locals should resolve first")
	}
	// `x`: self attribute wins over the name binding.
	if got := eval(`x`); !got.Equal(value.Int(10)) {
		t.Errorf("self attribute should beat name binding: %v", got)
	}
	// `obj` resolves to the binding; attribute access through it.
	if got := eval(`obj.y`); !got.Equal(value.Int(99)) {
		t.Errorf("obj.y = %v", got)
	}
	if got := eval(`self.x`); !got.Equal(value.Int(10)) {
		t.Errorf("self.x = %v", got)
	}
}

func TestAssignTargets(t *testing.T) {
	env := newMockEnv()
	self := oid.OID(1)
	env.addObject(self, map[string]value.Value{"x": value.Int(0)})
	env.selfID = self
	other := oid.OID(2)
	env.addObject(other, map[string]value.Value{"y": value.Int(0)})
	env.names["o"] = other

	in := NewInterp(env, self, nil)
	stmts, err := ParseActions(`
		let a := 5
		a := a + 1
		x := 42
		o.y := a
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Scope.Lookup("a"); !v.Equal(value.Int(6)) {
		t.Errorf("a = %v", v)
	}
	if v := env.attrs[self]["x"]; !v.Equal(value.Int(42)) {
		t.Errorf("self.x = %v", v)
	}
	if v := env.attrs[other]["y"]; !v.Equal(value.Int(6)) {
		t.Errorf("o.y = %v", v)
	}
	// Assignment to an unknown bare name fails.
	bad, _ := ParseActions(`zzz := 1`)
	if err := in.ExecStmts(bad); err == nil {
		t.Error("assignment to unknown name accepted")
	}
}

func TestControlFlow(t *testing.T) {
	env := newMockEnv()
	in := NewInterp(env, oid.Nil, nil)
	stmts, err := ParseActions(`
		let n := 5
		let sum := 0
		while n > 0 {
			sum := sum + n
			n := n - 1
		}
		if sum == 15 { print("ok", sum) } else { print("bad", sum) }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	if len(env.out) != 1 || env.out[0] != "ok 15" {
		t.Fatalf("out = %v", env.out)
	}
}

func TestWhileLoopBound(t *testing.T) {
	env := newMockEnv()
	in := NewInterp(env, oid.Nil, nil)
	stmts, _ := ParseActions(`while true { let x := 1 }`)
	if err := in.ExecStmts(stmts); err == nil || !strings.Contains(err.Error(), "iterations") {
		t.Fatalf("infinite loop not bounded: %v", err)
	}
}

func TestMethodBodyReturn(t *testing.T) {
	env := newMockEnv()
	self := oid.OID(1)
	env.addObject(self, map[string]value.Value{"salary": value.Float(100)})
	env.selfID = self
	in := NewInterp(env, self, nil)
	stmts, _ := ParseActions(`
		if salary > 50.0 { return salary * 2.0 }
		return 0.0
	`)
	got, err := in.ExecBody(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(value.Float(200)) {
		t.Fatalf("return = %v", got)
	}
	// Falling off the end returns Nil.
	empty, _ := ParseActions(`let x := 1`)
	got, err = in.ExecBody(empty)
	if err != nil || !got.IsNil() {
		t.Fatalf("fallthrough = %v, %v", got, err)
	}
	// `return` outside a body surfaces as an error from ExecStmts.
	if err := in.ExecStmts(stmts); err == nil {
		t.Fatal("return escaped ExecStmts without error")
	}
}

func TestSendForms(t *testing.T) {
	env := newMockEnv()
	obj := oid.OID(5)
	env.addObject(obj, nil)
	env.names["o"] = obj
	in := NewInterp(env, oid.Nil, nil)
	stmts, _ := ParseActions(`
		o.Ping()
		o!Pong(1, 2)
		let v := o!Echo("hello")
		print(v)
	`)
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	if len(env.sends) != 3 || env.sends[0] != "oid:5.Ping/0" || env.sends[1] != "oid:5.Pong/2" {
		t.Fatalf("sends = %v", env.sends)
	}
	if env.out[0] != "hello" {
		t.Fatalf("out = %v", env.out)
	}
	// A bare call without self errors.
	bare, _ := ParseActions(`Ping()`)
	if err := in.ExecStmts(bare); err == nil {
		t.Fatal("bare call without self accepted")
	}
	// Send errors propagate.
	fail, _ := ParseActions(`o.Fail()`)
	if err := in.ExecStmts(fail); err == nil {
		t.Fatal("send failure swallowed")
	}
}

func TestNewBindSubscribeEnable(t *testing.T) {
	env := newMockEnv()
	in := NewInterp(env, oid.Nil, nil)
	stmts, err := ParseActions(`
		let p := new Person(name: "Ann", age: 30)
		bind Ann p
		subscribe Watch to p
		unsubscribe Watch from p
		enable Watch
		disable Watch
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	id, ok := env.names["Ann"]
	if !ok {
		t.Fatal("bind failed")
	}
	if !env.attrs[id]["name"].Equal(value.Str("Ann")) {
		t.Fatal("new inits lost")
	}
	if len(env.subs) != 2 || env.subs[0] != "sub:Watch" || env.subs[1] != "unsub:Watch" {
		t.Fatalf("subs = %v", env.subs)
	}
	if env.enabled["Watch"] {
		t.Fatal("disable did not win")
	}
}

func TestAbortAndRaise(t *testing.T) {
	env := newMockEnv()
	self := oid.OID(1)
	env.addObject(self, nil)
	in := NewInterp(env, self, nil)
	stmts, _ := ParseActions(`raise Overheat(99.0)`)
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	if len(env.raised) != 1 || env.raised[0] != "Overheat" {
		t.Fatalf("raised = %v", env.raised)
	}
	ab, _ := ParseActions(`abort "bad state"`)
	err := in.ExecStmts(ab)
	if err == nil || !strings.Contains(err.Error(), "bad state") {
		t.Fatalf("abort = %v", err)
	}
}

// TestScopeShadowing: a binding in an inner block shadows the outer one
// until the block closes; assign updates the innermost binding only, so
// the outer value is intact once the block is gone.
func TestScopeShadowing(t *testing.T) {
	s := NewScope()
	s.Define("x", value.Int(1))
	outer := s.open()
	s.Define("x", value.Int(2))
	if v, _ := s.Lookup("x"); !v.Equal(value.Int(2)) {
		t.Fatal("inner lookup wrong")
	}
	if !s.assign("x", value.Int(3)) {
		t.Fatal("assign failed")
	}
	if v, _ := s.Lookup("x"); !v.Equal(value.Int(3)) {
		t.Fatal("assign missed the inner binding")
	}
	s.close(outer)
	if v, _ := s.Lookup("x"); !v.Equal(value.Int(1)) {
		t.Fatalf("outer x = %v after the block, want 1 (assign updated the wrong binding)", v)
	}
	if !s.assign("x", value.Int(4)) {
		t.Fatal("assign after the block failed")
	}
	if v, _ := s.Lookup("x"); !v.Equal(value.Int(4)) {
		t.Fatal("assign after the block missed the outer binding")
	}
}

func TestRender(t *testing.T) {
	if Render(value.Str("plain")) != "plain" {
		t.Error("strings should render unquoted")
	}
	if Render(value.Int(3)) != "3" {
		t.Error("ints render numerically")
	}
}

func (m *mockEnv) Instances(class string) ([]oid.OID, error) {
	var out []oid.OID
	for id := range m.attrs {
		out = append(out, id)
	}
	value.SortRefs(out)
	return out, nil
}

func TestBuiltins(t *testing.T) {
	env := newMockEnv()
	a, _ := env.NewObject("X", map[string]value.Value{"salary": value.Float(100)})
	b2, _ := env.NewObject("X", map[string]value.Value{"salary": value.Float(300)})
	_ = a
	_ = b2

	cases := map[string]value.Value{
		`len([1, 2, 3])`:                       value.Int(3),
		`count([1])`:                           value.Int(1),
		`len("abc")`:                           value.Int(3),
		`sum([1, 2, 3])`:                       value.Int(6),
		`sum([1.5, 2])`:                        value.Float(3.5),
		`min([3, 1, 2])`:                       value.Int(1),
		`max([3, 1, 2])`:                       value.Int(3),
		`max(["a", "c", "b"])`:                 value.Str("c"),
		`contains([1, 2], 2)`:                  value.Bool(true),
		`contains([1, 2], 9)`:                  value.Bool(false),
		`abs(-4)`:                              value.Int(4),
		`abs(-4.5)`:                            value.Float(4.5),
		`str(42)`:                              value.Str("42"),
		`[10, 20, 30][1]`:                      value.Int(20),
		`len(instances("X"))`:                  value.Int(2),
		`max(pluck(instances("X"), "salary"))`: value.Float(300),
		`sum(pluck(instances("X"), "salary"))`: value.Float(400),
	}
	for src, want := range cases {
		if got := evalStr(t, env, oid.Nil, src); !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	env := newMockEnv()
	bad := []string{
		`len(1)`, `sum("x")`, `sum([1, "a"])`, `min([])`, `max([])`,
		`contains(1, 2)`, `pluck([1], "a")`, `pluck([], 5)`, `abs("x")`,
		`instances(42)`, `len()`, `[1][5]`, `[1][-1]`, `(1)[0]`, `[1]["x"]`,
	}
	for _, src := range bad {
		ast, err := ParseCondition(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		in := NewInterp(env, oid.Nil, nil)
		if _, err := in.Eval(ast); err == nil {
			t.Errorf("eval %q: expected error", src)
		}
	}
}

func TestForStatement(t *testing.T) {
	env := newMockEnv()
	in := NewInterp(env, oid.Nil, nil)
	stmts, err := ParseActions(`
		let total := 0
		for x in [1, 2, 3, 4] {
			total := total + x
		}
		print(total)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	if len(env.out) != 1 || env.out[0] != "10" {
		t.Fatalf("out = %v", env.out)
	}
	// Iterating a non-list errors.
	bad, _ := ParseActions(`for x in 5 { }`)
	if err := in.ExecStmts(bad); err == nil {
		t.Fatal("for over scalar accepted")
	}
}

func (m *mockEnv) LookupByAttr(class, attr string, v value.Value) ([]oid.OID, error) {
	var out []oid.OID
	for id, attrs := range m.attrs {
		if got, ok := attrs[attr]; ok && got.Equal(v) {
			out = append(out, id)
		}
	}
	value.SortRefs(out)
	return out, nil
}

func (m *mockEnv) CreateIndex(class, attr string) error {
	m.out = append(m.out, "index:"+class+"."+attr)
	return nil
}

func (m *mockEnv) DropIndex(class, attr string) error {
	m.out = append(m.out, "unindex:"+class+"."+attr)
	return nil
}

func TestLookupBuiltinAndIndexStmt(t *testing.T) {
	env := newMockEnv()
	id, _ := env.NewObject("X", map[string]value.Value{"name": value.Str("Fred")})
	env.NewObject("X", map[string]value.Value{"name": value.Str("Mary")})

	got := evalStr(t, env, oid.Nil, `lookup("X", "name", "Fred")`)
	l, _ := got.AsList()
	if len(l) != 1 {
		t.Fatalf("lookup = %v", got)
	}
	if r, _ := l[0].AsRef(); r != id {
		t.Fatalf("lookup ref = %v, want %v", l[0], id)
	}

	in := NewInterp(env, oid.Nil, nil)
	stmts, err := ParseActions(`
		index X.name
		unindex X.name
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	if len(env.out) != 2 || env.out[0] != "index:X.name" || env.out[1] != "unindex:X.name" {
		t.Fatalf("out = %v", env.out)
	}
	// Arity / type errors.
	for _, bad := range []string{`lookup("X")`, `lookup(1, "a", 2)`} {
		ast, err := ParseCondition(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Eval(ast); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
