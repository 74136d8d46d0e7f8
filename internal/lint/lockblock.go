package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
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
	funcBodies(p.Pkg.Files, func(fn funcScope) {
		w := &lockWalker{pass: p, held: map[string]int{}}
		w.flow = flowWalker{leaf: w.leaf, enter: w.enter, expr: func(e ast.Expr, _ flowCtx) { w.expr(e) }, save: w.save}
		w.flow.walk(fn.body)
	})
}

// lockWalker is the lock-blocking rule's side of the shared flowWalker: it
// tracks which mutexes are held and reports blocking operations under them.
// Locks are keyed by the textual receiver of the Lock call ("c.mu", "wmu");
// the value is the acquiring line.
type lockWalker struct {
	pass *Pass
	flow flowWalker
	held map[string]int
}

// save snapshots the held locks for a terminating arm.
func (w *lockWalker) save() func() {
	saved := maps.Clone(w.held)
	return func() { w.held = saved }
}

// enter classifies the two control statements that block by themselves.
func (w *lockWalker) enter(s ast.Stmt, _ flowCtx) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		if isChanType(w.pass.Pkg.Info, s.X) {
			w.blockingOp(s.Pos(), "a range over a channel")
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			w.blockingOp(s.Pos(), "a select without default")
		}
	}
}

func (w *lockWalker) leaf(s ast.Stmt, c flowCtx) {
	if c.comm {
		// Covered by the select classification in enter; clause bodies run
		// after the select fires, lock state intact.
		return
	}
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
	case *ast.SendStmt:
		w.blockingOp(s.Arrow, "a channel send")
		w.expr(s)
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
	default:
		// No statement nests in a leaf, so scanning it whole scans exactly
		// its operands.
		w.expr(s)
	}
}

// expr scans an expression (or a whole leaf statement) for blocking
// operations nested anywhere in it.
func (w *lockWalker) expr(e ast.Node) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs when called, not here; it is analyzed as
			// its own scope (funcBodies).
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
	if len(w.held) == 0 || !w.flow.first(pos) {
		return
	}
	keys := make([]string, 0, len(w.held))
	for k := range w.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.pass.Reportf(pos, "%s held across %s; a blocked goroutine here stalls every %s critical section (the PR 3 deadlock class) — move the blocking operation outside the lock or suppress with a reason if the wait is bounded and intentional",
		strings.Join(keys, ", "), what, keys[0])
}
