package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RuleGoroutineLeak flags goroutine and timer shapes that leak quietly:
//
//   - a go-spawned function whose body contains an infinite `for` (or a
//     range over a channel) with no exit path — no return, no break out of
//     the loop, no panic/os.Exit — the goroutine outlives every caller and
//     pins its stack and captures forever (the PR 3 loopback dial hang was
//     this shape: a redial loop with no done check);
//   - time.After inside a loop: each iteration allocates a timer that is
//     only reclaimed when it fires, an unbounded-growth classic in recv
//     pumps with per-message timeouts (hoist a time.NewTimer and Reset it);
//   - time.Tick anywhere: the returned ticker can never be stopped;
//   - time.NewTimer/time.NewTicker whose timer neither reaches a Stop call
//     nor escapes the function (returned, stored, or passed on — someone
//     else's responsibility, like mpi's timer pool).
//
// All checks are lexical and scoped to one function; a timer stopped by a
// helper the timer is passed to counts as escaped, not leaked.
const RuleGoroutineLeak = "goroutine-leak"

// GoroutineLeakAnalyzer builds the goroutine-leak rule.
func GoroutineLeakAnalyzer() *Analyzer {
	return &Analyzer{
		Name: RuleGoroutineLeak,
		Doc:  "forbid exit-less goroutine loops, time.After in loops, and unstopped timers/tickers",
		Run:  runGoroutineLeak,
	}
}

func runGoroutineLeak(p *Pass) {
	// Pass 1, flat: declared functions some go statement spawns (the summary
	// maps the callee back to a body), and time.Tick wherever it is written.
	spawnedDecls := map[*ast.FuncDecl]bool{}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if fn := staticCallee(p.Pkg.Info, n.Call); fn != nil {
					if decl := p.Facts.Decl(fn); decl != nil {
						spawnedDecls[decl] = true
					}
				}
			case *ast.CallExpr:
				if name, ok := calleeFromPkg(p.Pkg.Info, n, "time"); ok && name == "Tick" {
					p.Reportf(n.Pos(), "time.Tick leaks its ticker (no Stop handle); use time.NewTicker with defer t.Stop()")
				}
			}
			return true
		})
	}
	// Pass 2, one shared walk per body: exit-less loops in spawned bodies and
	// time.After under a loop. A literal written inside a loop is in that
	// loop for time.After's purposes; funcBodies yields the enclosing body
	// first, so loopLits is filled before the literal's own walk reads it.
	loopLits := map[*ast.FuncLit]bool{}
	funcBodies(p.Pkg.Files, func(fn funcScope) {
		decl, _ := fn.node.(*ast.FuncDecl)
		lit, _ := fn.node.(*ast.FuncLit)
		if decl != nil {
			checkTimerHygiene(p, fn.body)
		}
		spawned, inLoop := fn.spawned || spawnedDecls[decl], loopLits[lit]
		var w flowWalker
		scan := func(n ast.Node, c flowCtx) {
			inLoop := inLoop || c.loopDepth > 0
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					if inLoop {
						loopLits[n] = true
					}
					return false
				case *ast.CallExpr:
					if name, ok := calleeFromPkg(p.Pkg.Info, n, "time"); ok && name == "After" && inLoop && w.first(n.Pos()) {
						p.Reportf(n.Pos(), "time.After in a loop allocates an unstoppable timer per iteration; hoist a time.NewTimer outside the loop and Reset it")
					}
				}
				return true
			})
		}
		w.leaf = func(s ast.Stmt, c flowCtx) { scan(s, c) }
		w.expr = func(e ast.Expr, c flowCtx) { scan(e, c) }
		if spawned {
			w.enter = func(s ast.Stmt, _ flowCtx) { checkGoroutineLoop(p, &w, s) }
		}
		w.walk(fn.body)
	})
}

// checkGoroutineLoop reports s when it is an infinite loop with no exit
// path in a spawned body. Nested function literals are not part of the walk
// — if they are themselves spawned they are checked on their own, and
// otherwise their control flow belongs to whoever calls them.
func checkGoroutineLoop(p *Pass, w *flowWalker, s ast.Stmt) {
	switch loop := s.(type) {
	case *ast.ForStmt:
		if loop.Cond == nil && !loopExits(loop.Body) && w.first(loop.Pos()) {
			p.Reportf(loop.Pos(), "goroutine loop has no exit path (no return, break, or terminal call); add a done/closed-channel case or the goroutine leaks for the process lifetime")
		}
	case *ast.RangeStmt:
		if isChanType(p.Pkg.Info, loop.X) && !loopExits(loop.Body) && !isCloseOwnedChan(p, loop.X) && w.first(loop.Pos()) {
			p.Reportf(loop.Pos(), "goroutine ranges over a channel with no exit path and no visible close of %s; if the channel is never closed the goroutine leaks", exprText(loop.X))
		}
	}
}

// isCloseOwnedChan reports whether some non-test file in the package closes
// the channel expression's root object — a ranged channel that the package
// itself closes has an exit path the loop body does not show.
func isCloseOwnedChan(p *Pass, ch ast.Expr) bool {
	root := rootIdent(ch)
	var obj types.Object
	if root != nil {
		obj = p.Pkg.Info.Uses[root]
	}
	closed := false
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if closed {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "close" {
				return true
			}
			if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if obj != nil {
				if argRoot := rootIdent(call.Args[0]); argRoot != nil && p.Pkg.Info.Uses[argRoot] == obj {
					closed = true
				}
				return true
			}
			// Field/selector channels (st.ch) degrade to a textual match.
			if exprText(call.Args[0]) == exprText(ch) {
				closed = true
			}
			return true
		})
	}
	return closed
}

// loopExits reports whether a loop body contains a statement that leaves the
// loop: a return, a break or goto binding to the loop (breaks captured by
// nested for/switch/select bind tighter and do not count, labeled breaks
// conservatively do), or a terminal call. Spawned and deferred work and
// nested literals cannot exit the loop; the walk never enters them.
func loopExits(body *ast.BlockStmt) bool {
	exits := false
	w := flowWalker{leaf: func(s ast.Stmt, c flowCtx) {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			exits = exits || s.Tok == token.GOTO || s.Tok == token.BREAK && (!c.innerBreak || s.Label != nil)
		case *ast.ExprStmt:
			exits = exits || isTerminalCall(s.X)
		}
	}}
	w.walk(body)
	return exits
}

// checkTimerHygiene flags NewTimer/NewTicker results that are neither
// stopped nor escape the declaring function.
func checkTimerHygiene(p *Pass, body *ast.BlockStmt) {
	type timer struct {
		obj  types.Object
		pos  token.Pos
		kind string
	}
	var timers []timer
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := calleeFromPkg(p.Pkg.Info, call, "time")
		if !ok || (name != "NewTimer" && name != "NewTicker") {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := p.Pkg.Info.Defs[id]
		if obj == nil {
			obj = p.Pkg.Info.Uses[id]
		}
		if obj != nil {
			timers = append(timers, timer{obj: obj, pos: call.Pos(), kind: "time." + name})
		}
		return true
	})
	if len(timers) == 0 {
		return
	}
	parent := parentIndex(body)
	for _, t := range timers {
		stopped, escaped := false, false
		ast.Inspect(body, func(n ast.Node) bool {
			if stopped || escaped {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok || (p.Pkg.Info.Uses[id] != t.obj) {
				return true
			}
			switch par := parent[id].(type) {
			case *ast.SelectorExpr:
				if par.X == id {
					stopped = par.Sel.Name == "Stop"
					return true // t.C, t.Reset: plain uses
				}
			case *ast.AssignStmt:
				return true // reassignment of the variable itself
			}
			// Any other appearance — call argument, return value, composite
			// literal, field store, channel send — hands the timer to code
			// this function cannot see; responsibility moved with it.
			escaped = true
			return true
		})
		if !stopped && !escaped {
			p.Reportf(t.pos, "%s result is never stopped and never leaves the function; the timer leaks — add defer t.Stop()", t.kind)
		}
	}
}
