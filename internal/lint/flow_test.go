package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// parseFlowFile parses src (a whole file, syntax only — the walker never
// needs types).
func parseFlowFile(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "flow.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return f
}

// parseFlowBody parses stmts as the body of one function.
func parseFlowBody(t *testing.T, stmts string) *ast.BlockStmt {
	t.Helper()
	f := parseFlowFile(t, "package p\nfunc f() {\n"+stmts+"\n}")
	return f.Decls[0].(*ast.FuncDecl).Body
}

// flowRecorder is a toy rule over the shared walker, shaped like
// lock-blocking: lock()/unlock() flip its one bit of state, every other leaf
// call is recorded with that state and its context, and the state is what
// save snapshots. Its events are the walker's observable behaviour.
type flowRecorder struct {
	flow   flowWalker
	held   bool
	events []string
}

func newFlowRecorder() *flowRecorder {
	r := &flowRecorder{}
	r.flow = flowWalker{
		leaf: r.leaf,
		enter: func(s ast.Stmt, c flowCtx) {
			r.record(fmt.Sprintf("enter-%s", strings.TrimPrefix(fmt.Sprintf("%T", s), "*ast.")), token.NoPos, c)
		},
		expr: func(e ast.Expr, c flowCtx) { r.record("expr-"+exprText(e), token.NoPos, c) },
		save: func() func() {
			saved := r.held
			return func() { r.held = saved }
		},
	}
	return r
}

// record appends "what[held|free][ dN][ inner][ comm]"; a position that was
// already claimed (the second pass over a loop body) gets " again".
func (r *flowRecorder) record(what string, pos token.Pos, c flowCtx) {
	ev := what
	if pos != token.NoPos {
		ev += map[bool]string{true: ":held", false: ":free"}[r.held]
		if !r.flow.first(pos) {
			ev += " again"
		}
	}
	if c.loopDepth > 0 {
		ev += fmt.Sprintf(" d%d", c.loopDepth)
	}
	if c.innerBreak {
		ev += " inner"
	}
	if c.comm {
		ev += " comm"
	}
	r.events = append(r.events, ev)
}

func (r *flowRecorder) leaf(s ast.Stmt, c flowCtx) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		switch name := exprText(s.X); name {
		case "lock(...)":
			r.held = true
		case "unlock(...)":
			r.held = false
		default:
			r.record(strings.TrimSuffix(name, "(...)"), s.Pos(), c)
		}
	case *ast.BranchStmt:
		r.record(s.Tok.String(), s.Pos(), c)
	case *ast.ReturnStmt:
		r.record("return", s.Pos(), c)
	default:
		r.record(strings.TrimPrefix(fmt.Sprintf("%T", s), "*ast."), s.Pos(), c)
	}
}

// leafEvents drops the enter-/expr- events, for tests that only care about
// statement order and state.
func leafEvents(events []string) []string {
	var out []string
	for _, ev := range events {
		if !strings.HasPrefix(ev, "enter-") && !strings.HasPrefix(ev, "expr-") {
			out = append(out, ev)
		}
	}
	return out
}

// TestFlowTerminatingArmRestoresState: an arm that ends in any terminal
// statement has its state changes undone for the code after the
// conditional; an arm that can fall through keeps them. One row per member
// of the terminal-call set is the drift guard: a rule cannot know fewer
// terminators than another, because there is only this one list.
func TestFlowTerminatingArmRestoresState(t *testing.T) {
	tests := []struct {
		tail string // last statement of the unlocking arm
		want string // state seen by use() after the conditional
	}{
		{"return", "use:held"},
		{`panic("x")`, "use:held"},
		{"os.Exit(1)", "use:held"},
		{"runtime.Goexit()", "use:held"},
		{"log.Fatal(err)", "use:held"},
		{`log.Fatalf("%v", err)`, "use:held"},
		{"log.Fatalln(err)", "use:held"},
		{"{ return }", "use:held"},
		{"done: return", "use:held"},
		{"goto out", "use:held"},
		{"other()", "use:free"},
		{"log.Print(err)", "use:free"},
		{"exit(1)", "use:free"},
		{"if deep { return }", "use:free"},
	}
	for _, tc := range tests {
		for _, shape := range []string{
			"lock()\nif bad {\nunlock()\n%s\n}\nuse()",
			"lock()\nif ok {\n} else {\nunlock()\n%s\n}\nuse()",
			"lock()\nif a {\n} else if b {\nunlock()\n%s\n}\nuse()",
			"lock()\nswitch v {\ncase 1:\nunlock()\n%s\n}\nuse()",
			"lock()\nswitch v.(type) {\ncase int:\nunlock()\n%s\n}\nuse()",
			"lock()\nselect {\ncase <-ch:\nunlock()\n%s\n}\nuse()",
		} {
			src := fmt.Sprintf(shape, tc.tail)
			r := newFlowRecorder()
			r.flow.walk(parseFlowBody(t, src))
			leaves := leafEvents(r.events)
			if got := leaves[len(leaves)-1]; got != tc.want {
				t.Errorf("after arm ending in %q: got %q, want %q\n%s", tc.tail, got, tc.want, src)
			}
		}
	}
	for name := range terminalCalls {
		if !slices.ContainsFunc(tests, func(tc struct{ tail, want string }) bool { return strings.HasPrefix(tc.tail, name+"(") }) {
			t.Errorf("terminal call %s has no row in this table", name)
		}
	}
}

// TestFlowBreakInLoopArmRestores: break and continue terminate an arm like
// return does.
func TestFlowBreakInLoopArmRestores(t *testing.T) {
	for _, tail := range []string{"break", "continue"} {
		r := newFlowRecorder()
		r.flow.walk(parseFlowBody(t, "for cond {\nlock()\nif bad {\nunlock()\n"+tail+"\n}\nuse()\nunlock()\n}"))
		want := []string{tail + ":free d1 inner", "use:held d1 inner", tail + ":free again d1 inner", "use:held again d1 inner"}
		if got := leafEvents(r.events); !slices.Equal(got, want) {
			t.Errorf("%s arm:\n got %q\nwant %q", tail, got, want)
		}
	}
}

// TestFlowLoopBodyWalkedTwice: state left at the bottom of an iteration
// reaches the top of the next, and first lets a position report once.
func TestFlowLoopBodyWalkedTwice(t *testing.T) {
	tests := []struct {
		name, src string
		want      []string
	}{
		{"for", "for i := 0; more(); i++ {\nuse()\nlock()\n}\nafter()", []string{
			"AssignStmt:free", "expr-more(...)", "use:free d1 inner", "IncDecStmt:held", "use:held again d1 inner", "after:held",
		}},
		{"range", "for range xs {\nuse()\nlock()\n}\nafter()", []string{
			"expr-xs", "use:free d1 inner", "use:held again d1 inner", "after:held",
		}},
	}
	for _, tc := range tests {
		r := newFlowRecorder()
		r.flow.walk(parseFlowBody(t, tc.src))
		var got []string
		for _, ev := range r.events {
			if !strings.HasPrefix(ev, "enter-") {
				got = append(got, ev)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestFlowContext pins loopDepth, the break-binding flag and the comm flag
// through a for→switch→select nest, in source order, operands included.
func TestFlowContext(t *testing.T) {
	src := `
if top {
	a()
}
outer:
for {
	b()
	switch x {
	case one:
		c()
		select {
		case v := <-ch:
			d()
			break outer
		default:
		}
	}
	for range xs {
		e()
	}
}
g()`
	want := []string{
		"enter-IfStmt", "expr-top", "a:free",
		"enter-ForStmt", "b:free d1 inner",
		"enter-SwitchStmt d1 inner", "expr-x d1 inner", "expr-one d1 inner", "c:free d1 inner",
		"enter-SelectStmt d1 inner", "AssignStmt:free d1 inner comm", "d:free d1 inner", "break:free d1 inner",
		"enter-RangeStmt d1 inner", "expr-xs d1 inner", "e:free d2 inner", "e:free again d2 inner",
	}
	r := newFlowRecorder()
	r.flow.walk(parseFlowBody(t, src))
	// The outer loop body is walked twice; the first pass is everything
	// before b() comes round again.
	second := slices.Index(r.events, "b:free again d1 inner")
	if second < 0 || !slices.Equal(r.events[:second], want) {
		t.Errorf("first pass:\n got %q\nwant %q", r.events, want)
	}
	if last := r.events[len(r.events)-1]; last != "g:free" {
		t.Errorf("after the loop: got %q, want %q", last, "g:free")
	}
}

// TestFlowLoopExits pins which statements leave a loop, through the walker's
// break-binding flag and the shared terminal-call set.
func TestFlowLoopExits(t *testing.T) {
	tests := []struct {
		body string
		want bool
	}{
		{"<-ch", false},
		{"if done { return }", true},
		{"if done { break }", true},
		{"if done { continue }", false},
		{"if done { goto out }", true},
		{"select { case <-a: break }", false},
		{"select { case <-a: break outer }", true},
		{"switch { case done: break }", false},
		{"switch { case done: return }", true},
		{"switch v.(type) { case int: break }", false},
		{"for { break }", false},
		{"for range xs { break }", false},
		{"for { if done { break outer } }", true},
		{"{ lbl: break }", true},
		{"if done { panic(err) }", true},
		{"if done { os.Exit(1) }", true},
		{"if done { runtime.Goexit() }", true},
		{"if done { log.Fatalf(msg) }", true},
		{"if done { log.Printf(msg) }", false},
		{"go func() { return }()", false},
		{"defer func() { panic(err) }()", false},
		{"f := func() { return }; f()", false},
	}
	for _, tc := range tests {
		loop := parseFlowBody(t, "outer:\nfor {\n"+tc.body+"\n}").List[0].(*ast.LabeledStmt).Stmt.(*ast.ForStmt)
		if got := loopExits(loop.Body); got != tc.want {
			t.Errorf("loopExits(%s) = %v, want %v", tc.body, got, tc.want)
		}
	}
}

const flowScopesSrc = `package p

var hook = func() { pkgLevel() }

func outer() {
	lock()
	f := func() {
		inner()
		go func() { spawned() }()
	}
	go named(func() { argument() })
	use()
}

func external()

func (r *recv) method() { defer func() { deferred() }() }
`

// TestFlowFuncLitIsItsOwnScope: the walk of a body never enters a literal,
// and the literal walked on its own starts from fresh state and context.
func TestFlowFuncLitIsItsOwnScope(t *testing.T) {
	var got []string
	funcBodies([]*ast.File{parseFlowFile(t, flowScopesSrc)}, func(fn funcScope) {
		r := newFlowRecorder()
		r.flow.walk(fn.body)
		got = append(got, strings.Join(leafEvents(r.events), ","))
	})
	want := []string{
		"pkgLevel:free",                        // hook's literal
		"AssignStmt:held,GoStmt:held,use:held", // outer: f's body is not part of it
		"inner:free,GoStmt:free",               // f: outer's lock does not leak in
		"spawned:free",
		"argument:free",
		"DeferStmt:free", // method
		"deferred:free",
	}
	if !slices.Equal(got, want) {
		t.Errorf("scopes:\n got %q\nwant %q", got, want)
	}
}

// TestFlowFuncBodiesYieldsEachOnce: every declaration body and every
// literal, once, enclosing before enclosed, with only the directly
// go-called literal marked spawned and bodyless declarations skipped.
func TestFlowFuncBodiesYieldsEachOnce(t *testing.T) {
	f := parseFlowFile(t, flowScopesSrc)
	lits := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			lits++
		}
		return true
	})
	seen := map[*ast.BlockStmt]int{}
	var order []string
	funcBodies([]*ast.File{f}, func(fn funcScope) {
		seen[fn.body]++
		kind := "lit"
		if decl, ok := fn.node.(*ast.FuncDecl); ok {
			kind = decl.Name.Name
			if fn.typ != decl.Type {
				t.Errorf("%s: typ is not the declaration's type", kind)
			}
		} else if fn.typ != fn.node.(*ast.FuncLit).Type {
			t.Errorf("literal: typ is not the literal's type")
		}
		if fn.spawned {
			kind += "(spawned)"
		}
		order = append(order, kind)
	})
	for body, n := range seen {
		if n != 1 {
			t.Errorf("body at %v yielded %d times", body.Pos(), n)
		}
	}
	want := []string{"lit", "outer", "lit", "lit(spawned)", "lit", "method", "lit"}
	if !slices.Equal(order, want) {
		t.Errorf("order = %q, want %q", order, want)
	}
	if got := len(order) - 2; got != lits {
		t.Errorf("yielded %d literals, the file has %d", got, lits)
	}
}

// TestFlowParentIndex: every node but the root maps to its direct parent.
func TestFlowParentIndex(t *testing.T) {
	body := parseFlowBody(t, "t := time.NewTimer(d)\ndefer t.Stop()\nreturn wrap(t)")
	parent := parentIndex(body)
	if _, ok := parent[body]; ok {
		t.Errorf("the root has a parent")
	}
	checked := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || n == ast.Node(body) {
			return true
		}
		p := parent[n]
		if p == nil {
			t.Errorf("%T at %v has no parent", n, n.Pos())
			return true
		}
		isChild := false
		ast.Inspect(p, func(m ast.Node) bool {
			if m == p {
				return true
			}
			isChild = isChild || m == n
			return false // direct children only
		})
		if !isChild {
			t.Errorf("%T at %v: recorded parent %T does not hold it directly", n, n.Pos(), p)
		}
		checked++
		return true
	})
	if checked < 15 {
		t.Errorf("only %d nodes checked", checked)
	}
}
