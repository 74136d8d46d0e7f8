package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// RuleOwnership flags uses of a buffer after its ownership left the
// function: a slice passed to mpi.SendOwned/SendRecvOwned belongs to the
// receiver (and the spare passed to mpi.RecvOwned to the runtime, which
// hands back what the caller owns), a framebuffer after Release belongs to
// the pool, and a slice handed to fabric's BufPool.Put belongs to the codec
// pool — the next Get may already be writing over it. Either way the memory may be concurrently
// overwritten, which corrupts results silently — the exact aliasing class
// PR 1's pool tests guard dynamically.
const RuleOwnership = "ownership"

// OwnershipAnalyzer builds the ownership rule.
func OwnershipAnalyzer() *Analyzer {
	return &Analyzer{
		Name: RuleOwnership,
		Doc:  "forbid touching a buffer after mpi.SendOwned/SendRecvOwned/RecvOwned, Framebuffer.Release, or fabric BufPool.Put gave it away",
		Run:  runOwnership,
	}
}

// giveInfo records how and where a variable was given away.
type giveInfo struct {
	what string // "mpi.SendOwned", "mpi.SendRecvOwned", "mpi.RecvOwned", "Release", or "BufPool.Put"
	line int
}

// ownWalker is the ownership rule's side of the shared flowWalker: a give
// taints the variable's object, an assignment to the bare variable kills the
// taint, and any read or element-write of a tainted variable is a finding.
type ownWalker struct {
	pass  *Pass
	flow  flowWalker
	given map[types.Object]giveInfo
}

func runOwnership(p *Pass) {
	if p.Pkg.Path == p.Cfg.MPIPkg {
		return // the runtime itself implements the transfer
	}
	funcBodies(p.Pkg.Files, func(fn funcScope) {
		w := &ownWalker{pass: p, given: map[types.Object]giveInfo{}}
		w.flow = flowWalker{leaf: w.leaf, expr: func(e ast.Expr, _ flowCtx) { w.expr(e) }, save: w.save}
		w.flow.walk(fn.body)
	})
}

// save snapshots the taints for a terminating arm.
func (w *ownWalker) save() func() {
	saved := maps.Clone(w.given)
	return func() { w.given = saved }
}

func (w *ownWalker) leaf(s ast.Stmt, _ flowCtx) {
	switch s := s.(type) {
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		w.expr(s) // each wraps one expression
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				// Rebinding the variable replaces the given buffer; the
				// taint dies with the old value.
				if obj := w.objOf(id); obj != nil {
					delete(w.given, obj)
				}
				continue
			}
			// x[i] = v or x.F = v writes through the given buffer: a use.
			w.useOf(lhs)
			w.expr(indexesOf(lhs))
		}
	case *ast.IncDecStmt:
		// x++ reads the old value before writing: a use either way.
		w.useOf(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
					for _, name := range vs.Names {
						if obj := w.pass.Pkg.Info.Defs[name]; obj != nil {
							delete(w.given, obj)
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	}
}

// expr checks every identifier in e against the current taints, then applies
// any gives e performs. Scanning before tainting keeps a give's own
// arguments clean while a second give of the same variable still trips.
func (w *ownWalker) expr(e ast.Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// The closure's free variables are uses at creation time; its
			// own gives are analyzed when funcBodies hands out the literal.
			w.scanUses(n)
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			w.checkIdent(id)
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := calleeFromPkg(w.pass.Pkg.Info, call, w.pass.Cfg.MPIPkg); ok {
			if (name == "SendOwned" || name == "SendRecvOwned" || name == "RecvOwned") && len(call.Args) >= 4 {
				w.give(call.Args[3], "mpi."+name)
			}
			return true
		}
		if recv, ok := methodOn(w.pass.Pkg.Info, call, w.pass.Cfg.RenderPkg, "Framebuffer", "Release"); ok {
			w.give(recv, "Release")
		}
		// BufPool.Put gives its ARGUMENT to the pool (the receiver is the
		// pool itself and stays usable).
		if _, ok := methodOn(w.pass.Pkg.Info, call, w.pass.Cfg.FabricPkg, "BufPool", "Put"); ok && len(call.Args) == 1 {
			w.give(call.Args[0], "BufPool.Put")
		}
		return true
	})
}

// scanUses reports tainted identifiers anywhere under n without processing
// gives or kills.
func (w *ownWalker) scanUses(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			w.checkIdent(id)
		}
		return true
	})
}

func (w *ownWalker) checkIdent(id *ast.Ident) {
	obj := w.pass.Pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	info, tainted := w.given[obj]
	if !tainted || !w.flow.first(id.Pos()) {
		return
	}
	w.pass.Reportf(id.Pos(), "%s used after %s gave its buffer away (line %d); the owner may already be overwriting it", id.Name, info.what, info.line)
}

// useOf flags the root variable of a compound lvalue when tainted.
func (w *ownWalker) useOf(e ast.Expr) {
	root := rootIdent(e)
	if root == nil {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			root = rootIdent(sel.X)
		}
	}
	if root != nil {
		w.checkIdent(root)
	}
}

// give taints the object behind expr (when it is a variable, possibly
// sliced or indexed) as given away.
func (w *ownWalker) give(expr ast.Expr, what string) {
	root := rootIdent(expr)
	if root == nil {
		return
	}
	obj := w.objOf(root)
	if obj == nil {
		return
	}
	if _, ok := obj.(*types.Var); !ok {
		return
	}
	w.given[obj] = giveInfo{what: what, line: w.pass.Fset.Position(expr.Pos()).Line}
}

func (w *ownWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.pass.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return w.pass.Pkg.Info.Defs[id]
}

// indexesOf returns the index expression of an index lvalue so its reads are
// still scanned (x[i] reads i even though x is the write target).
func indexesOf(e ast.Expr) ast.Expr {
	if ix, ok := e.(*ast.IndexExpr); ok {
		return ix.Index
	}
	return nil
}
