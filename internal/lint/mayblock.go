package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes the interprocedural may-block summary the concurrency
// rules (lock-blocking, goroutine-leak, waitgroup-hygiene) share: a fixpoint
// over the module's static call graph answering "can calling this function
// park the goroutine indefinitely?".
//
// Seeds — operations that block by themselves:
//
//   - channel send, channel receive, range over a channel;
//   - select without a default clause;
//   - time.Sleep;
//   - sync.Cond.Wait and sync.WaitGroup.Wait;
//   - Read/Write/Accept methods declared in package net;
//   - Read/Write/Accept calls through a conn-like interface (its method set
//     has LocalAddr or Accept: net.Conn, net.Listener, and the fabric's Conn
//     and Listener wrappers);
//   - calls to functions listed in Config.BlockingFuncs (matched by
//     types.Func.FullName, including interface methods such as
//     mpi.Transport.Send, whose cross-process implementation is a framed
//     conn write).
//
// The last bullet is the interface conservatism boundary: a call through a
// conn-like interface is assumed blocking regardless of the dynamic
// implementation — even a loopback net.Pipe write blocks until the peer
// reads, which is exactly how PR 3's distributed deadlock manifested. Calls
// through NON-conn-like interfaces (io.Reader over a bytes.Reader, analysis
// adaptors) and calls to function-typed variables are assumed non-blocking:
// treating every indirect call as blocking would drown the rules in noise.
// Mutex.Lock itself is deliberately not a seed — nested locking is a lock-
// ordering question, not the lock-vs-blocking-call interleaving these rules
// police.
//
// Propagation: a function that (transitively) calls a may-block function may
// block. Function literals count toward their enclosing function EXCEPT when
// they are the operand of a `go` statement — spawned work does not block the
// spawner. Bodies come from every package the loader has type-checked, so
// the summary is module-wide even when a single package is analyzed.

// blockingIfaceMethods are the method names treated as blocking on net types
// and conn-like interfaces.
var blockingIfaceMethods = map[string]bool{
	"Read": true, "Write": true, "Accept": true,
}

// Facts is the module-wide interprocedural knowledge computed once per Run
// and handed to every Pass.
type Facts struct {
	// mayBlock maps a function to a short human-readable reason ("channel
	// receive", "calls gosensei/internal/mpi.Recv") when it may block.
	mayBlock map[*types.Func]string
	// decls maps module functions to their declarations, letting syntactic
	// rules (goroutine-leak) find the body behind `go f()`.
	decls map[*types.Func]*ast.FuncDecl
	// seeds holds Config.BlockingFuncs as a FullName set, consulted per
	// call site alongside the built-in seed classification.
	seeds map[string]bool
	// pkgs are the analyzed packages; refs is the unreferenced rule's index
	// over them, built on first use.
	pkgs []*Package
	refs *refIndex
}

// MayBlock reports whether fn may block, with the reason recorded during the
// fixpoint.
func (f *Facts) MayBlock(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	// Generic instantiations share the origin's body.
	if o := fn.Origin(); o != nil {
		fn = o
	}
	why, ok := f.mayBlock[fn]
	return why, ok
}

// Decl returns the module declaration of fn, if the loader saw one.
func (f *Facts) Decl(fn *types.Func) *ast.FuncDecl {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return f.decls[fn]
}

// funcSummary is the per-function input to the fixpoint.
type funcSummary struct {
	fn      *types.Func
	seed    string // non-empty: blocks by itself
	seedPos token.Pos
	callees []*types.Func
}

// ComputeFacts builds the may-block summary over pkgs plus every other
// package the loader has already type-checked (so fixture packages see the
// real module bodies behind their imports). cfg contributes the configured
// BlockingFuncs seeds; nil means no extra seeds.
func ComputeFacts(l *Loader, pkgs []*Package, cfg *Config) *Facts {
	seeds := map[string]bool{}
	if cfg != nil {
		for _, name := range cfg.BlockingFuncs {
			seeds[name] = true
		}
	}
	seen := map[string]bool{}
	var all []*Package
	for _, p := range pkgs {
		if !seen[p.Path] {
			seen[p.Path] = true
			all = append(all, p)
		}
	}
	for _, p := range l.cache {
		if !seen[p.Path] {
			seen[p.Path] = true
			all = append(all, p)
		}
	}

	facts := &Facts{mayBlock: map[*types.Func]string{}, decls: map[*types.Func]*ast.FuncDecl{}, seeds: seeds, pkgs: pkgs}
	var sums []*funcSummary
	for _, p := range all {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				facts.decls[fn] = fd
				s := &funcSummary{fn: fn}
				collectBlocking(p.Info, fd.Body, s, seeds)
				sums = append(sums, s)
			}
		}
	}

	// Fixpoint: seed, then propagate along call edges until stable. The
	// graph is small (one node per module function), so a quadratic sweep
	// converges in a handful of passes.
	for _, s := range sums {
		if s.seed != "" {
			facts.mayBlock[s.fn] = s.seed
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if _, done := facts.mayBlock[s.fn]; done {
				continue
			}
			for _, callee := range s.callees {
				if _, blocks := facts.mayBlock[callee]; blocks {
					facts.mayBlock[s.fn] = "calls " + callee.FullName()
					changed = true
					break
				}
			}
		}
	}
	return facts
}

// collectBlocking walks one function body recording direct seeds and static
// callees. Function literals are folded into the enclosing function unless
// they are go-spawned.
func collectBlocking(info *types.Info, body ast.Node, s *funcSummary, seeds map[string]bool) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned call runs on another goroutine; only its operands
			// are evaluated synchronously.
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false
		case *ast.SendStmt:
			s.record("channel send", n.Pos())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.record("channel receive", n.Pos())
			}
		case *ast.RangeStmt:
			if isChanType(info, n.X) {
				s.record("range over channel", n.Pos())
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				s.record("select without default", n.Pos())
			}
			// Walk the clause bodies but not the comm statements: with a
			// default those sends/receives are non-blocking, without one the
			// select itself is already the seed.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if why, ok := directBlockingCall(info, n, seeds); ok {
				s.record(why, n.Pos())
			} else if fn := staticCallee(info, n); fn != nil {
				s.callees = append(s.callees, fn)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (s *funcSummary) record(why string, pos token.Pos) {
	if s.seed == "" {
		s.seed, s.seedPos = why, pos
	}
}

// directBlockingCall reports whether call is a blocking seed by itself (not
// counting module callees resolved through the summary). seeds is the
// configured BlockingFuncs set, matched against the callee's FullName.
func directBlockingCall(info *types.Info, call *ast.CallExpr, seeds map[string]bool) (string, bool) {
	if name, ok := calleeFromPkg(info, call, "time"); ok && name == "Sleep" {
		return "time.Sleep", true
	}
	if len(seeds) > 0 {
		if fn := seedCallee(info, call); fn != nil && seeds[fn.FullName()] {
			return "configured seed " + fn.FullName(), true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "sync":
		if name == "Wait" {
			// Covers both sync.Cond.Wait and sync.WaitGroup.Wait (promoted
			// or direct).
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Name() == "Cond" {
				return "sync.Cond.Wait", true
			}
			return "sync." + recvTypeName(selection) + ".Wait", true
		}
		return "", false
	case "net":
		if blockingIfaceMethods[name] {
			return "net " + name, true
		}
		return "", false
	}
	if blockingIfaceMethods[name] {
		if _, isIface := selection.Recv().Underlying().(*types.Interface); isIface && isConnLike(info, sel.X) {
			return "conn-like " + exprText(sel.X) + "." + name, true
		}
	}
	return "", false
}

// recvTypeName names the receiver's defined type for messages, or "Locker".
func recvTypeName(selection *types.Selection) string {
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "Locker"
}

// seedCallee resolves the called *types.Func for BlockingFuncs matching.
// Unlike staticCallee it also resolves interface-method calls — configured
// seeds exist precisely to name interface contracts (mpi.Transport.Send)
// whose dynamic implementations block on the wire.
func seedCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[fun]; ok {
			fn, _ := selection.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// staticCallee resolves a call to the *types.Func it statically invokes:
// package-level functions (generic or not) and concrete methods. Interface
// method calls and function-typed variables return nil — the former are
// handled by directBlockingCall's conservatism, the latter are assumed
// non-blocking.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if selection, ok := info.Selections[fun]; ok {
			if selection.Kind() != types.MethodVal {
				return nil
			}
			if _, isIface := selection.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			if fn, ok := selection.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		// Qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// isChanType reports whether e's type is a channel.
func isChanType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// selectHasDefault reports whether a select statement has a default clause.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// callMayBlock is the per-call-site query the lock-blocking rule uses: it
// classifies one call as blocking either directly (seed) or through the
// summary. sync.Cond.Wait is excluded — Wait releases the lock it is
// conditioned on, which is the one sanctioned way to block under a mutex.
func callMayBlock(info *types.Info, facts *Facts, call *ast.CallExpr) (string, bool) {
	if why, ok := directBlockingCall(info, call, facts.seeds); ok {
		if why == "sync.Cond.Wait" {
			return "", false
		}
		return why, true
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return "", false
	}
	if why, ok := facts.MayBlock(fn); ok {
		return fn.Name() + " (may block: " + why + ")", true
	}
	return "", false
}
