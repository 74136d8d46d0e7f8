package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RuleLockBlocking flags a sync.Mutex/RWMutex held across an operation that
// may block indefinitely: a channel send/receive, a select without default,
// time.Sleep, a conn write, or any call the interprocedural may-block
// summary marks. This is the exact distributed-deadlock class the PR 3
// review closed — the client held its state lock across a blocking
// conn.Write while the recv pump needed the same lock to process the
// Release that would have unblocked the peer. A blocked critical section
// stalls every other goroutine that needs the lock, and on a synchronous
// transport two such sections deadlock each other permanently.
//
// sync.Cond.Wait is exempt (Wait releases its lock — that is the sanctioned
// way to block under a mutex). The one intentional blocking-under-lock site
// — fabric.Session's deadline-bounded write under its write-serialization
// mutex — carries a reasoned //lint:ignore suppression, cataloged in
// DESIGN.md §4.7.
const RuleLockBlocking = "lock-blocking"

// LockBlockingAnalyzer builds the lock-blocking rule.
func LockBlockingAnalyzer() *Analyzer {
	return &Analyzer{
		Name: RuleLockBlocking,
		Doc:  "forbid holding a mutex across channel operations or may-block calls",
		Run:  runLockBlocking,
	}
}

// lockStateMethods classifies the sync mutex methods that change the
// walker's held-lock state; true acquires, false releases.
var lockStateMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"Unlock": false, "RUnlock": false,
}

func runLockBlocking(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				w := &lockWalker{
					pass:     p,
					held:     map[string]int{},
					reported: map[token.Pos]bool{},
				}
				w.stmts(body.List)
			}
			return true
		})
	}
}

// lockWalker performs a lexical walk of one function body tracking which
// mutexes are held, with the same terminating-branch restore the ownership
// rule uses (an `if closed { mu.Unlock(); return }` arm must not clear the
// lock for the code after it). Locks are keyed by the textual receiver of
// the Lock call ("c.mu", "wmu"); the value is the acquiring line. Loop
// bodies are walked twice so a lock still held at the bottom of an
// iteration covers blocking operations at the top of the next; `reported`
// dedupes the second pass.
type lockWalker struct {
	pass     *Pass
	held     map[string]int
	reported map[token.Pos]bool
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// branch walks a conditional block, restoring lock state afterwards when the
// block always transfers control away.
func (w *lockWalker) branch(list []ast.Stmt) {
	if !terminates(list) {
		w.stmts(list)
		return
	}
	saved := make(map[string]int, len(w.held))
	for k, v := range w.held {
		saved[k] = v
	}
	w.stmts(list)
	w.held = saved
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, acquire, ok := w.lockStateCall(call); ok {
				if acquire {
					w.held[key] = w.pass.Fset.Position(call.Pos()).Line
				} else {
					delete(w.held, key)
				}
				return
			}
		}
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range s.Lhs {
			w.expr(lhs)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.branch(s.Body.List)
		if s.Else != nil {
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				w.branch(blk.List)
			} else {
				w.stmt(s.Else)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmts(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		if isChanType(w.pass.Pkg.Info, s.X) {
			w.blockingOp(s.Pos(), "a range over a channel")
		}
		w.expr(s.X)
		w.stmts(s.Body.List)
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.branch(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.blockingOp(s.Pos(), "a select without default")
		}
		// The comm operations are covered by the select classification
		// above; clause bodies run after the select fires, lock state
		// intact.
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(cc.Body)
			}
		}
	case *ast.SendStmt:
		w.blockingOp(s.Arrow, "a channel send")
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.GoStmt:
		// Spawning never blocks; only the operands are evaluated here.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.DeferStmt:
		// Deferred calls run at return, where the lock state is whatever the
		// exit path left; a lexical walk cannot say more, so defers neither
		// report nor mutate (defer mu.Unlock() keeps the lock held for the
		// body, which is exactly the state the walker already has).
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	}
}

// expr scans an expression for blocking operations and lock-state method
// calls nested in sub-expressions.
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs when called, not here; it is analyzed as
			// its own scope by runLockBlocking.
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blockingOp(n.Pos(), "a channel receive")
			}
		case *ast.CallExpr:
			if _, _, isLockCall := w.lockStateCall(n); isLockCall {
				return true // state handled at statement level; never blocks
			}
			if why, blocks := callMayBlock(w.pass.Pkg.Info, w.pass.Facts, n); blocks {
				w.blockingOp(n.Pos(), "a call to "+why)
			}
		}
		return true
	}
	ast.Inspect(e, walk)
}

// lockStateCall matches x.Lock()/x.Unlock() and variants on sync mutexes
// (including promoted methods of embedded mutexes), returning the lock key
// and whether the call acquires.
func (w *lockWalker) lockStateCall(call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	acquire, known := lockStateMethods[sel.Sel.Name]
	if !known {
		return "", false, false
	}
	selection, isSelection := w.pass.Pkg.Info.Selections[sel]
	if !isSelection || selection.Kind() != types.MethodVal {
		return "", false, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	return exprText(sel.X), acquire, true
}

// blockingOp reports pos as a blocking operation when any lock is held.
func (w *lockWalker) blockingOp(pos token.Pos, what string) {
	if len(w.held) == 0 || w.reported[pos] {
		return
	}
	w.reported[pos] = true
	keys := make([]string, 0, len(w.held))
	for k := range w.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.pass.Reportf(pos, "%s held across %s; a blocked goroutine here stalls every %s critical section (the PR 3 deadlock class) — move the blocking operation outside the lock or suppress with a reason if the wait is bounded and intentional",
		strings.Join(keys, ", "), what, keys[0])
}
