package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// RuleWaitgroupHygiene flags the sync.WaitGroup and lock-copying mistakes
// that produce Wait/Done races:
//
//   - wg.Add called INSIDE a spawned goroutine on a waitgroup captured from
//     outside it: the spawner's Wait can run before the goroutine is
//     scheduled, see a zero counter, and return while work is still in
//     flight. Add must happen before `go`.
//   - Add/Done arity mismatches visible in one lexical scope: when every
//     Add argument is a compile-time constant and the waitgroup never
//     escapes the function, the Add total and the Done count must agree, or
//     Wait either hangs (Adds > Dones) or panics on a negative counter.
//   - sync state passed by value: a parameter or result of bare type
//     sync.Mutex/RWMutex/WaitGroup/Once/Cond copies the state, so the
//     callee locks (or Waits on) a private copy while the caller's original
//     is untouched. go vet's copylocks catches assignments; this covers the
//     signature shape repo-wide at tier 1.
const RuleWaitgroupHygiene = "waitgroup-hygiene"

// byValueSyncTypes are the sync types whose by-value transfer is a finding.
var byValueSyncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true,
}

// WaitgroupHygieneAnalyzer builds the waitgroup-hygiene rule.
func WaitgroupHygieneAnalyzer() *Analyzer {
	return &Analyzer{
		Name: RuleWaitgroupHygiene,
		Doc:  "forbid Add-after-go, lexical Add/Done arity mismatches, and sync types passed by value",
		Run:  runWaitgroupHygiene,
	}
}

func runWaitgroupHygiene(p *Pass) {
	funcBodies(p.Pkg.Files, func(fn funcScope) {
		checkByValueSync(p, fn.typ)
		if lit, ok := fn.node.(*ast.FuncLit); !ok {
			checkAddDoneArity(p, fn.body)
		} else if fn.spawned {
			checkAddInsideGoroutine(p, lit)
		}
	})
}

// checkByValueSync reports bare sync types in a signature's parameters or
// results.
func checkByValueSync(p *Pass, ft *ast.FuncType) {
	fields := []*ast.FieldList{ft.Params, ft.Results}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			tv, ok := p.Pkg.Info.Types[field.Type]
			if !ok {
				continue
			}
			if name, bad := bareSyncType(tv.Type); bad {
				p.Reportf(field.Type.Pos(), "sync.%s passed by value copies its internal state; the callee operates on a private copy — pass *sync.%s", name, name)
			}
		}
	}
}

// bareSyncType reports whether t is a non-pointer sync type whose copy
// diverges from the original.
func bareSyncType(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || !byValueSyncTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// waitGroupCall matches x.Add(...)/x.Done()/x.Wait() on a sync.WaitGroup
// (including a promoted embedded one), returning the receiver expression.
func waitGroupCall(info *types.Info, call *ast.CallExpr, method string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); !ok || named.Obj().Name() != "WaitGroup" {
		return nil, false
	}
	return sel.X, true
}

// checkAddInsideGoroutine flags wg.Add inside a go-spawned literal when wg
// is captured from the enclosing scope. A waitgroup declared inside the
// literal is the literal's own business.
func checkAddInsideGoroutine(p *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := waitGroupCall(p.Pkg.Info, call, "Add")
		if !ok {
			return true
		}
		if root := rootIdent(recv); root != nil {
			obj := p.Pkg.Info.Uses[root]
			if obj == nil || obj.Pos() >= lit.Pos() {
				return true // declared inside the literal (or unresolved)
			}
		} else if _, isSel := recv.(*ast.SelectorExpr); !isSel {
			return true // field receivers (s.wg) always outlive the literal
		}
		p.Reportf(call.Pos(), "%s.Add inside the spawned goroutine races the spawner's Wait (the counter may still be zero when Wait runs); call Add before the go statement", exprText(recv))
		return true
	})
}

// checkAddDoneArity compares constant Add totals against lexical Done counts
// per waitgroup within one function body. The check only fires when it can
// be sound: every Add argument is constant, at least one Add and one Done
// are visible, and the waitgroup is never handed to another function (an
// escaped waitgroup's Dones may live anywhere).
func checkAddDoneArity(p *Pass, body *ast.BlockStmt) {
	type wgFacts struct {
		addSum   int64
		addCount int
		doneN    int
		firstAdd token.Pos
		skip     bool
	}
	groups := map[string]*wgFacts{}
	get := func(key string) *wgFacts {
		g := groups[key]
		if g == nil {
			g = &wgFacts{}
			groups[key] = g
		}
		return g
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := waitGroupCall(p.Pkg.Info, call, "Add"); ok {
			g := get(exprText(recv))
			if g.firstAdd == token.NoPos {
				g.firstAdd = call.Pos()
			}
			if len(call.Args) != 1 {
				g.skip = true
				return true
			}
			tv, hasTV := p.Pkg.Info.Types[call.Args[0]]
			if !hasTV || tv.Value == nil || tv.Value.Kind() != constant.Int {
				g.skip = true // runtime-sized Add: arity is not lexically decidable
				return true
			}
			v, exact := constant.Int64Val(tv.Value)
			if !exact {
				g.skip = true
				return true
			}
			g.addSum += v
			g.addCount++
			return true
		}
		if recv, ok := waitGroupCall(p.Pkg.Info, call, "Done"); ok {
			get(exprText(recv)).doneN++
			return true
		}
		// Any waitgroup identifier appearing as a bare call argument (not as
		// a method receiver) escapes: helper(&wg) may Add or Done on it.
		for _, arg := range call.Args {
			e := arg
			if un, isAddr := e.(*ast.UnaryExpr); isAddr && un.Op == token.AND {
				e = un.X
			}
			tv, hasTV := p.Pkg.Info.Types[e]
			if !hasTV {
				continue
			}
			t := tv.Type
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if name, _ := bareSyncType(t); name == "WaitGroup" {
				get(exprText(e)).skip = true
			}
		}
		return true
	})
	for key, g := range groups {
		if g.skip || g.addCount == 0 || g.doneN == 0 {
			continue
		}
		if g.addSum != int64(g.doneN) {
			p.Reportf(g.firstAdd, "%s counts Add(+%d) against %d lexical Done call(s); Wait will %s — make the counts agree or move the mismatch behind a helper", key, g.addSum, g.doneN,
				hangOrPanic(g.addSum, int64(g.doneN)))
		}
	}
}

func hangOrPanic(adds, dones int64) string {
	if adds > dones {
		return "hang on the never-Done remainder"
	}
	return "panic on a negative counter"
}
