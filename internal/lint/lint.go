// Package lint is gosensei's repo-specific static-analysis suite. It
// enforces, on every `go test ./...`, the sharp-edged invariants the hot
// path depends on and convention alone cannot protect:
//
//   - nondeterminism: the deterministic kernels (oscillator, render,
//     compositing, analysis, parallel) must not read clocks, use the global
//     math/rand source, or let map iteration order feed outputs — the
//     paper's Table 2 / Figure 5 measurements are reproduced bit-identically
//     only because these packages are pure functions of their inputs.
//   - ownership: a buffer passed to mpi.SendOwned/SendRecvOwned/RecvOwned,
//     a framebuffer after Release, or a buffer returned to a fabric.BufPool
//     via Put belongs to someone else; touching it again in the same
//     function is a use-after-give.
//   - worker-independence: parallel.For/MapChunks bodies (and their n/grain
//     chunking arguments) must not depend on the worker count, or results
//     stop being byte-identical across thread budgets.
//   - mpi-tag-hygiene: message tags outside internal/mpi must be named
//     constants, keeping cross-subsystem tag collisions greppable.
//   - unchecked-close: the I/O writers the paper's I/O-cost experiments
//     depend on must not drop Close/Flush/Write errors.
//   - lock-blocking: no mutex held across an operation the interprocedural
//     may-block summary (mayblock.go) marks — the staging-client deadlock
//     class PR 3 debugged at runtime.
//   - goroutine-leak: spawned loops need a reachable exit; time.After in
//     loops, time.Tick, and unstopped NewTimer/NewTicker results leak.
//   - waitgroup-hygiene: wg.Add before `go`, lexical Add/Done arity
//     agreement, and no sync types passed by value.
//   - unreferenced: every package-level declaration in non-test code has a
//     non-test reference somewhere in the module; what only tests need
//     lives in their _test.go files.
//
// Findings can be suppressed with `//lint:ignore <rule> <reason>` on the
// offending line or the line above; a suppression without a reason, or one
// that suppresses nothing, is itself a finding. The suite is stdlib-only
// (go/ast, go/parser, go/token, go/types) — see DESIGN.md's invariant
// catalog for the rationale behind each rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"time"
)

// Config scopes the rules. Paths are import paths (exact or prefix for
// *Pkgs fields) and module-relative file suffixes for ClockAllowedFiles.
type Config struct {
	// DeterministicPkgs are the kernel packages where the nondeterminism
	// rule applies.
	DeterministicPkgs []string
	// ClockAllowedFiles are module-relative files inside deterministic
	// packages that may read clocks: the timing/metrics layers that report
	// durations without affecting computed bytes.
	ClockAllowedFiles []string
	// IOWriterPkgs are the packages where dropped Close/Flush/Write errors
	// are findings.
	IOWriterPkgs []string
	// MPIPkg, RenderPkg, ParallelPkg, FabricPkg locate the packages whose
	// contracts the ownership, tag, and worker rules enforce.
	MPIPkg      string
	RenderPkg   string
	ParallelPkg string
	FabricPkg   string
	// BlockingFuncs are extra may-block seeds (types.Func.FullName form,
	// e.g. "(gosensei/internal/mpi.Transport).Send"): calls to them are
	// treated as blocking by the interprocedural summary even when they
	// resolve through interface dispatch, which the conn-like heuristic
	// alone cannot see. This is how contract interfaces whose
	// implementations block on the wire (a cross-process transport) are
	// taught to the concurrency rules.
	BlockingFuncs []string
}

// DefaultConfig returns the scoping for the gosensei module itself.
func DefaultConfig() *Config {
	const m = "gosensei"
	return &Config{
		DeterministicPkgs: []string{
			m + "/internal/oscillator",
			m + "/internal/render",
			m + "/internal/compositing",
			m + "/internal/analysis",
			m + "/internal/parallel",
			// Routing decisions must replay bit-identically under fault
			// schedules: the router and its harness are clock- and rand-free
			// by contract (costs arrive via StepMeter observations).
			m + "/internal/route",
		},
		// WritePNG times the serial encode (the paper's rank-0 bottleneck)
		// and returns the duration for the metrics layer; pixels are
		// unaffected, so its clock reads are legitimate.
		ClockAllowedFiles: []string{"internal/render/png.go"},
		IOWriterPkgs: []string{
			m + "/internal/iosim",
			m + "/internal/adios",
			m + "/internal/extracts",
			m + "/internal/catalyst",
			m + "/internal/libsim",
			m + "/internal/render",
			m + "/internal/compositing",
			m + "/internal/fabric",
			m + "/internal/live",
			m + "/internal/world",
			m + "/internal/launch",
			m + "/cmd/gosensei-run",
			m + "/cmd/live-load",
		},
		MPIPkg:      m + "/internal/mpi",
		RenderPkg:   m + "/internal/render",
		ParallelPkg: m + "/internal/parallel",
		FabricPkg:   m + "/internal/fabric",
		// Transport.Send is an interface contract: the in-process mailbox
		// delivery is cheap, but the cross-process implementation writes
		// framed envelopes to a fabric conn, so every call site must be
		// treated as a wire write that can park the goroutine.
		BlockingFuncs: []string{
			"(" + m + "/internal/mpi.Transport).Send",
		},
	}
}

// Analyzer is one rule: a name and a function run once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Pass hands an analyzer one package plus reporting plumbing and the
// module-wide interprocedural facts.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Package
	Cfg   *Config
	Facts *Facts
	root  string // module root for relative paths
	out   *[]Diagnostic
	rule  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file, line, col := relPosition(p.root, position)
	*p.out = append(*p.out, Diagnostic{
		File: file, Line: line, Col: col, Rule: p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full rule suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer(),
		OwnershipAnalyzer(),
		WorkerIndependenceAnalyzer(),
		TagHygieneAnalyzer(),
		UncheckedCloseAnalyzer(),
		LockBlockingAnalyzer(),
		GoroutineLeakAnalyzer(),
		WaitgroupHygieneAnalyzer(),
		UnreferencedAnalyzer(),
	}
}

// Result is the outcome of a suite run.
type Result struct {
	// Diagnostics are the unsuppressed findings, sorted.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by a valid //lint:ignore.
	Suppressed int
	// PerRule breaks findings and suppressions down by rule name — the
	// `make lint-stats` CI artifact.
	PerRule map[string]RuleCount
	// Files and Packages are scan-volume stats for benchmarking.
	Files    int
	Packages int
	// Elapsed is the wall time of the run (load + analyze).
	Elapsed time.Duration
}

// RuleCount is one rule's finding/suppression tally.
type RuleCount struct {
	Findings   int `json:"findings"`
	Suppressed int `json:"suppressed"`
}

// Run executes the given analyzers over the packages, applying suppressions
// found in their sources. Malformed suppressions, and suppressions that
// silence nothing, are reported under the "ignore" rule.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer, cfg *Config) *Result {
	start := time.Now()
	var raw []Diagnostic
	sup := newSuppressionIndex()
	res := &Result{Packages: len(pkgs), PerRule: map[string]RuleCount{}}
	facts := ComputeFacts(l, pkgs, cfg)
	for _, pkg := range pkgs {
		res.Files += len(pkg.Files) + len(pkg.TestFiles)
		for _, f := range append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...) {
			dirs, malformed := parseIgnores(l.Fset, f, l.ModuleRoot)
			raw = append(raw, malformed...)
			file := l.Fset.Position(f.Pos()).Filename
			rel, _, _ := relPosition(l.ModuleRoot, token.Position{Filename: file})
			for _, d := range dirs {
				sup.add(rel, d)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Fset: l.Fset, Pkg: pkg, Cfg: cfg, Facts: facts, root: l.ModuleRoot, out: &raw, rule: a.Name}
			a.Run(pass)
		}
	}
	for _, d := range raw {
		if d.Rule != RuleIgnore && sup.suppresses(d) {
			rc := res.PerRule[d.Rule]
			res.Suppressed++
			rc.Suppressed++
			res.PerRule[d.Rule] = rc
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	res.Diagnostics = append(res.Diagnostics, sup.unused(l.ModuleRoot, analyzers)...)
	for _, d := range res.Diagnostics {
		rc := res.PerRule[d.Rule]
		rc.Findings++
		res.PerRule[d.Rule] = rc
	}
	sortDiagnostics(res.Diagnostics)
	res.Elapsed = time.Since(start)
	return res
}

// RunModule loads the module rooted at (or above) root and runs the full
// suite with the default configuration.
func RunModule(root string) (*Result, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	res := Run(l, pkgs, Analyzers(), DefaultConfig())
	res.Elapsed = time.Since(start)
	return res, nil
}

// --- shared AST/type helpers used by several rules ---

// importedPkgPath resolves an identifier to the import path of the package
// it names, or "" when it is not a package name.
func importedPkgPath(info *types.Info, id *ast.Ident) string {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// calleeFromPkg matches call expressions of the form pkg.Fn(...) or
// pkg.Fn[T](...) where pkg's import path is pkgPath, returning the function
// name.
func calleeFromPkg(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	fun := call.Fun
	// Unwrap explicit generic instantiation: pkg.Fn[T] / pkg.Fn[K, V].
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if importedPkgPath(info, id) != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// methodOn matches method calls x.M(...) whose method is declared on the
// named type typeName in package pkgPath, returning the receiver expression.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil, false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return nil, false
	}
	return sel.X, true
}

// pkgInScope reports whether path matches any entry (exact or as a path
// prefix followed by "/").
func pkgInScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// rootIdent peels slice/index/star/paren expressions down to a base
// identifier: x, x[i], x[:n], (*x), (x) all yield x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}
