package lang

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sentinel/internal/oid"
	"sentinel/internal/value"
)

// runActions executes src in a fresh frame on env and returns the frame,
// so a test can inspect what is left on its binding stack.
func runActions(t *testing.T, env Env, src string) (*Interp, error) {
	t.Helper()
	stmts, err := ParseActions(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := &Interp{Env: env}
	return in, in.ExecStmts(stmts)
}

func wantOut(t *testing.T, env *mockEnv, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(env.out, want) {
		t.Fatalf("out = %q, want %q", env.out, want)
	}
}

func TestScopeBlockLetShadowsAndEnds(t *testing.T) {
	env := newMockEnv()
	in, err := runActions(t, env, `
		let x := 1
		if true { let x := 2  print(x) }
		print(x)
		if false { } else { let x := 3  print(x) }
		print(x)
		let i := 0
		while i < 2 { let x := 4 + i  print(x)  i := i + 1 }
		print(x)
		for y in [5, 6] { let x := y  print(x) }
		print(x)
		if true { let z := 7 }
	`)
	if err != nil {
		t.Fatal(err)
	}
	wantOut(t, env, "2", "1", "3", "1", "4", "5", "1", "5", "6", "1")
	if _, ok := in.scope().Lookup("z"); ok {
		t.Fatal("z outlived its block")
	}
	if n := in.scope().n; n != 2 {
		t.Fatalf("%d bindings left after the blocks, want 2 (x, i)", n)
	}
}

func TestScopeForVariableInBody(t *testing.T) {
	env := newMockEnv()
	_, err := runActions(t, env, `
		for v in [1, 2] { print(v) }
		print(v)
	`)
	if err == nil || !strings.Contains(err.Error(), `unknown name "v"`) {
		t.Fatalf("for variable visible after the loop: err = %v, out = %q", err, env.out)
	}
	// A for variable shadows an outer binding of the same name only inside
	// the body.
	env = newMockEnv()
	if _, err := runActions(t, env, `
		let v := "outer"
		for v in [1] { print(v) }
		print(v)
	`); err != nil {
		t.Fatal(err)
	}
	wantOut(t, env, "1", "outer")
}

func TestScopeAssignOuterFromBlock(t *testing.T) {
	env := newMockEnv()
	in, err := runActions(t, env, `
		let total := 0
		let seen := ""
		for v in [1, 2, 3] {
			if v > 1 { total := total + v } else { seen := seen + "a" }
			let k := 0
			while k < 1 { seen := seen + "b"  k := k + 1 }
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := in.scope().Lookup("total"); !v.Equal(value.Int(5)) {
		t.Fatalf("total = %v, want 5", v)
	}
	if v, _ := in.scope().Lookup("seen"); !v.Equal(value.Str("abbb")) {
		t.Fatalf("seen = %v, want abbb", v)
	}
}

// TestScopeSpill nests blocks past the inline capacity, shadows and
// assigns through the spill, and reuses it across loop iterations.
func TestScopeSpill(t *testing.T) {
	env := newMockEnv()
	in, err := runActions(t, env, `
		let a := 1
		let b := 2
		let c := 3
		for i in [0, 1, 2] {
			let d := 10 * i
			if true {
				let e := 100
				let a := 1000
				while e == 100 {
					let f := a + b + c + d + e
					print(f)
					b := b + 1
					e := e + 1
				}
			}
		}
		print(a, b, c)
	`)
	if err != nil {
		t.Fatal(err)
	}
	wantOut(t, env, "1105", "1116", "1127", "1 5 3")
	sc := in.scope()
	if sc.n != 3 {
		t.Fatalf("%d bindings left, want 3", sc.n)
	}
	for _, b := range sc.spill[:cap(sc.spill)] {
		if b.name != "" || !b.v.IsNil() {
			t.Fatalf("popped spill entry still holds %q", b.name)
		}
	}

	// The Scope API spills the same way.
	s := NewScope()
	for i := 0; i < 3*scopeInline; i++ {
		s.Define("v"+strconv.Itoa(i), value.Int(int64(i)))
	}
	s.Define("v1", value.Int(-1)) // overwrites in place
	for i := 0; i < 3*scopeInline; i++ {
		want := value.Int(int64(i))
		if i == 1 {
			want = value.Int(-1)
		}
		if v, ok := s.Lookup("v" + strconv.Itoa(i)); !ok || !v.Equal(want) {
			t.Fatalf("v%d = %v, %v", i, v, ok)
		}
	}
	if s.n != 3*scopeInline {
		t.Fatalf("n = %d after redefining v1", s.n)
	}
}

// prefill binds scopeIndexAt names no program can refer to, so the frame's
// scope is indexed before the program runs.
func prefill(in *Interp) {
	for i := 0; i < scopeIndexAt; i++ {
		in.Define(" fill"+strconv.Itoa(i), value.Int(int64(i)))
	}
}

// checkIndex verifies that an indexed scope maps every name on its stack
// to that name's innermost binding and maps nothing else.
func checkIndex(t *testing.T, s *Scope) {
	t.Helper()
	if s.index == nil {
		t.Fatal("scope has no index")
	}
	want := map[string]int{}
	for i := 0; i < s.n; i++ {
		want[s.at(i).name] = i
	}
	if !reflect.DeepEqual(s.index, want) {
		t.Fatalf("index = %v, want %v", s.index, want)
	}
}

// TestScopeIndexed runs block shadowing, outer assignment and the for
// variable's lifetime in a scope past scopeIndexAt, where names resolve
// through the index, and checks that popping each block restores it.
func TestScopeIndexed(t *testing.T) {
	env := newMockEnv()
	stmts, err := ParseActions(`
		let x := 1
		let total := 0
		if true { let x := 2  print(x) }
		print(x)
		for x in [3, 4] {
			let y := x * 10
			if x == 4 { let y := 0  print(y) } else { print(y) }
			total := total + y
		}
		print(x, total)
		let i := 0
		while i < 2 { let x := 5 + i  print(x)  i := i + 1 }
		print(x)
	`)
	if err != nil {
		t.Fatal(err)
	}
	in := &Interp{Env: env}
	prefill(in)
	if err := in.ExecStmts(stmts); err != nil {
		t.Fatal(err)
	}
	wantOut(t, env, "2", "1", "30", "0", "1 70", "5", "6", "1")
	sc := in.scope()
	if sc.n != scopeIndexAt+3 {
		t.Fatalf("%d bindings left, want %d", sc.n, scopeIndexAt+3)
	}
	checkIndex(t, sc)
	if _, ok := sc.Lookup("y"); ok {
		t.Fatal("y outlived its block")
	}

	// A scope that reaches scopeIndexAt inside a block indexes the
	// shadowed bindings too, and falls back to them when the block pops.
	s := NewScope()
	s.Define("a", value.Int(1))
	outer := s.open()
	for i := 0; i < scopeIndexAt; i++ {
		s.Define("a", value.Int(2)) // one binding per name in a block
		s.Define("b"+strconv.Itoa(i), value.Int(int64(i)))
	}
	checkIndex(t, s)
	if v, _ := s.Lookup("a"); !v.Equal(value.Int(2)) {
		t.Fatalf("a in the block = %v, want 2", v)
	}
	s.close(outer)
	checkIndex(t, s)
	if v, _ := s.Lookup("a"); !v.Equal(value.Int(1)) || s.n != 1 {
		t.Fatalf("a after the block = %v with %d bindings, want 1 with 1", v, s.n)
	}
}

func TestScopeReturnFromNestedBlocks(t *testing.T) {
	env := newMockEnv()
	stmts, err := ParseActions(`
		let n := 0
		while true {
			let m := n
			if m == 3 { let r := m * 10  return r }
			n := n + 1
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	in := &Interp{Env: env}
	got, err := in.ExecBody(stmts)
	if err != nil || !got.Equal(value.Int(30)) {
		t.Fatalf("return = %v, %v; want 30", got, err)
	}
	if sc := in.scope(); sc.n != 1 || sc.base != 0 {
		t.Fatalf("stack not unwound: n = %d, base = %d", sc.n, sc.base)
	}
}

// budgetEnv caps the Env calls a fuzzed program may make, so a loop that
// allocates, prints or sends on every iteration stays small; the cap hits
// at the same call in both runs.
type budgetEnv struct {
	*mockEnv
	left int
}

var errBudget = errors.New("env call budget spent")

func (b *budgetEnv) spend() error {
	if b.left == 0 {
		return errBudget
	}
	b.left--
	return nil
}

func (b *budgetEnv) Output(s string) {
	if b.spend() == nil {
		b.mockEnv.Output(s)
	}
}

func (b *budgetEnv) NewObject(class string, inits map[string]value.Value) (oid.OID, error) {
	if err := b.spend(); err != nil {
		return oid.Nil, err
	}
	return b.mockEnv.NewObject(class, inits)
}

func (b *budgetEnv) Send(obj oid.OID, method string, args ...value.Value) (value.Value, error) {
	if err := b.spend(); err != nil {
		return value.Nil, err
	}
	return b.mockEnv.Send(obj, method, args...)
}

func (b *budgetEnv) RaiseEvent(name string, args []value.Value) error {
	if err := b.spend(); err != nil {
		return err
	}
	return b.mockEnv.RaiseEvent(name, args)
}

func (b *budgetEnv) Subscribe(rule string, target oid.OID) error {
	if err := b.spend(); err != nil {
		return err
	}
	return b.mockEnv.Subscribe(rule, target)
}

func (b *budgetEnv) Unsubscribe(rule string, target oid.OID) error {
	if err := b.spend(); err != nil {
		return err
	}
	return b.mockEnv.Unsubscribe(rule, target)
}

func (b *budgetEnv) CreateIndex(class, attr string) error {
	if err := b.spend(); err != nil {
		return err
	}
	return b.mockEnv.CreateIndex(class, attr)
}

func (b *budgetEnv) DropIndex(class, attr string) error {
	if err := b.spend(); err != nil {
		return err
	}
	return b.mockEnv.DropIndex(class, attr)
}

// fuzzEnv is a fresh environment with a self object and a bound name.
func fuzzEnv() *budgetEnv {
	env := newMockEnv()
	env.addObject(1, map[string]value.Value{"x": value.Int(1), "s": value.Str("a")})
	env.addObject(2, map[string]value.Value{"y": value.Int(0)})
	env.names["o"] = 2
	env.selfID = 1
	return &budgetEnv{mockEnv: env, left: 10_000}
}

// loopsNest reports whether a loop sits inside another loop: each while
// may run 1e6 times, so nested ones could run for hours.
func loopsNest(stmts []Stmt, inLoop bool) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *IfStmt:
			if loopsNest(s.Then, inLoop) || loopsNest(s.Else, inLoop) {
				return true
			}
		case *WhileStmt:
			if inLoop || loopsNest(s.Body, true) {
				return true
			}
		case *ForStmt:
			if inLoop || loopsNest(s.Body, true) {
				return true
			}
		}
	}
	return false
}

// corpusSeeds decodes the checked-in corpus of another fuzz target.
func corpusSeeds(f *testing.F, target string) []string {
	paths, _ := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	var out []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(arg, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// FuzzBlockTransparency checks that a block is only a scope: running an
// action program P and running `if true { P }` on fresh environments give
// the same attribute writes, print output, sends and error-ness, also when
// the block runs in a scope already past scopeIndexAt.
func FuzzBlockTransparency(f *testing.F) {
	for _, s := range corpusSeeds(f, "FuzzParseScript") {
		f.Add(s)
	}
	f.Add(`let x := 1  if true { let x := 2  print(x) }  print(x)`)
	f.Add(`let n := 0  while n < 3 { let m := n * 2  x := x + m  n := n + 1 }  print(x)`)
	f.Add(`for v in [1, 2, 3] { let v2 := v  o.y := o.y + v2 }  print(v)`)
	f.Add(`let a := 1 let b := 2 let c := 3 let d := 4 let e := 5 if a < e { let f := a + e  s := s + f } print(s)`)
	f.Add(`if x > 0 { return x } else { abort "no" }`)
	f.Add(`let p := new P(v: 1)  bind Q p  Q.v := Q.v + 1  print(pluck(instances("P"), "v"))`)
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseActions(src)
		if err != nil || loopsNest(stmts, false) {
			return
		}
		run := func(stmts []Stmt, indexed bool) (*budgetEnv, error) {
			env := fuzzEnv()
			in := Interp{Env: env, Self: env.selfID}
			if indexed {
				prefill(&in)
			}
			return env, in.ExecStmts(stmts)
		}
		flat, errFlat := run(stmts, false)
		wrapped := []Stmt{&IfStmt{Cond: &Lit{Val: value.Bool(true)}, Then: stmts}}
		for _, indexed := range []bool{false, true} {
			block, errBlock := run(wrapped, indexed)
			how := "in a block"
			if indexed {
				how = "in a block of an indexed scope"
			}
			if (errFlat == nil) != (errBlock == nil) {
				t.Fatalf("error-ness differs: %v vs %v %s\nsource: %q", errFlat, errBlock, how, src)
			}
			if !reflect.DeepEqual(flat.attrs, block.attrs) {
				t.Fatalf("attributes differ:\n%v\n%v %s\nsource: %q", flat.attrs, block.attrs, how, src)
			}
			if !reflect.DeepEqual(flat.out, block.out) {
				t.Fatalf("output differs:\n%q\n%q %s\nsource: %q", flat.out, block.out, how, src)
			}
			if !reflect.DeepEqual(flat.sends, block.sends) {
				t.Fatalf("sends differ:\n%q\n%q %s\nsource: %q", flat.sends, block.sends, how, src)
			}
		}
	})
}
