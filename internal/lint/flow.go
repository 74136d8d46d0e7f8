package lint

import (
	"go/ast"
	"go/token"
)

// funcScope is one function body of a package: a declaration's or a
// literal's.
type funcScope struct {
	node    ast.Node // *ast.FuncDecl or *ast.FuncLit
	typ     *ast.FuncType
	body    *ast.BlockStmt
	spawned bool // a literal that a go statement calls directly
}

// funcBodies calls visit once for every function body in files, an enclosing
// function before the literals inside it. Declarations without a body are
// skipped.
func funcBodies(files []*ast.File, visit func(funcScope)) {
	for _, f := range files {
		var spawned *ast.FuncLit
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				spawned, _ = n.Call.Fun.(*ast.FuncLit)
			case *ast.FuncDecl:
				if n.Body != nil {
					visit(funcScope{node: n, typ: n.Type, body: n.Body})
				}
			case *ast.FuncLit:
				visit(funcScope{node: n, typ: n.Type, body: n.Body, spawned: n == spawned})
			}
			return true
		})
	}
}

// flowCtx is where a statement or operand sits in the body being walked.
type flowCtx struct {
	loopDepth  int  // enclosing for/range bodies
	innerBreak bool // an unlabeled break here binds to a for/range/switch/select inside the walked body
	comm       bool // the statement is a select clause's channel operation
}

// flowWalker is the one lexical walk of a function body that the
// flow-sensitive rules share. It owns the order and the control flow:
//
//   - statements are visited in source order through if/for/range/switch/
//     type-switch/select/block/labeled statements;
//   - an arm that always transfers control away (terminates) is walked and
//     the rule's state is then put back, because the execution that ran the
//     arm never reaches the code after it — `if err != nil { fb.Release();
//     return }` gives nothing away for the fall-through path, and
//     `if closed { mu.Unlock(); return }` leaves mu held;
//   - a loop body is walked twice, so state left at the bottom of one
//     iteration meets the top of the next; first dedupes the findings of the
//     second pass;
//   - a function literal is not entered: funcBodies hands it out as a scope
//     of its own, and what its creation means is the rule's expression scan's
//     business.
//
// A rule supplies only what differs between rules; a nil hook is skipped.
type flowWalker struct {
	// leaf handles a statement with no statement nested in it (assignment,
	// call, return, branch, send, go, defer, declaration), operands included.
	leaf func(s ast.Stmt, c flowCtx)
	// enter sees an if/for/range/switch/type-switch/select statement before
	// its operands and bodies are walked.
	enter func(s ast.Stmt, c flowCtx)
	// expr scans one operand of such a statement: a condition, a tag, a
	// ranged expression, a case value.
	expr func(e ast.Expr, c flowCtx)
	// save snapshots the rule's state and returns the function that puts it
	// back.
	save func() (restore func())

	seen map[token.Pos]bool
}

// walk visits body from a fresh context.
func (w *flowWalker) walk(body *ast.BlockStmt) { w.stmts(body.List, flowCtx{}) }

// first reports whether pos has not been claimed before; a rule asks it
// before reporting so the second pass over a loop body stays silent.
func (w *flowWalker) first(pos token.Pos) bool {
	if w.seen[pos] {
		return false
	}
	if w.seen == nil {
		w.seen = map[token.Pos]bool{}
	}
	w.seen[pos] = true
	return true
}

func (w *flowWalker) stmts(list []ast.Stmt, c flowCtx) {
	for _, s := range list {
		w.stmt(s, c)
	}
}

// branch walks a conditional arm, restoring the rule's state afterwards when
// the arm terminates.
func (w *flowWalker) branch(list []ast.Stmt, c flowCtx) {
	if w.save != nil && terminates(list) {
		defer w.save()()
	}
	w.stmts(list, c)
}

func (w *flowWalker) operand(e ast.Expr, c flowCtx) {
	if e != nil && w.expr != nil {
		w.expr(e, c)
	}
}

func (w *flowWalker) stmt(s ast.Stmt, c flowCtx) {
	switch s.(type) {
	case nil:
		return
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		if w.enter != nil {
			w.enter(s, c)
		}
	}
	inner := c // inside a breakable construct
	inner.innerBreak = true
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, c)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, c)
	case *ast.IfStmt:
		w.stmt(s.Init, c)
		w.operand(s.Cond, c)
		w.branch(s.Body.List, c)
		if blk, ok := s.Else.(*ast.BlockStmt); ok {
			w.branch(blk.List, c)
		} else {
			w.stmt(s.Else, c) // an else-if chain, or nothing
		}
	case *ast.ForStmt:
		w.stmt(s.Init, c)
		w.operand(s.Cond, c)
		inner.loopDepth++
		w.stmts(s.Body.List, inner)
		w.stmt(s.Post, c)
		w.stmts(s.Body.List, inner)
	case *ast.RangeStmt:
		w.operand(s.X, c)
		inner.loopDepth++
		w.stmts(s.Body.List, inner)
		w.stmts(s.Body.List, inner)
	case *ast.SwitchStmt:
		w.stmt(s.Init, c)
		w.operand(s.Tag, c)
		w.clauses(s.Body, c, inner)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, c)
		w.stmt(s.Assign, c)
		w.clauses(s.Body, c, inner)
	case *ast.SelectStmt:
		w.clauses(s.Body, c, inner)
	default:
		if w.leaf != nil {
			w.leaf(s, c)
		}
	}
}

// clauses walks the arms of a switch or select: case values and channel
// operations in the enclosing context c, bodies as branches inside the
// construct.
func (w *flowWalker) clauses(body *ast.BlockStmt, c, inner flowCtx) {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.operand(e, c)
			}
			w.branch(cl.Body, inner)
		case *ast.CommClause:
			if cl.Comm != nil && w.leaf != nil {
				comm := c
				comm.comm = true
				w.leaf(cl.Comm, comm)
			}
			w.branch(cl.Body, inner)
		}
	}
}

// terminalCalls are the calls that never return to the statement after
// them, matched by name as written: the one set behind terminates and the
// goroutine-leak rule's loop-exit test.
var terminalCalls = map[string]bool{
	"panic": true, "os.Exit": true, "runtime.Goexit": true,
	"log.Fatal": true, "log.Fatalf": true, "log.Fatalln": true,
}

func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return terminalCalls[fun.Name]
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return terminalCalls[pkg.Name+"."+fun.Sel.Name]
		}
	}
	return false
}

// terminates reports whether a statement list always transfers control away
// from the code that follows it: it ends in a return, a break/continue/goto,
// or a terminal call.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		return isTerminalCall(s.X)
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.LabeledStmt:
		return terminates([]ast.Stmt{s.Stmt})
	}
	return false
}

// parentIndex maps every node under root to its parent, in one pass.
func parentIndex(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
