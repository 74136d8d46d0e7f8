package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// RuleTagHygiene flags raw integer literals used as message tags outside
// internal/mpi. Tags partition the message space across subsystems; a bare
// `7` at a call site cannot be grepped against other subsystems' tags, so
// collisions (and the silent message mismatches they cause) go unnoticed.
// Named constants make the whole tag space auditable with one search.
//
// The rule also flags any tag whose compile-time constant value lands in
// the runtime's reserved collective tag space [1<<28, ∞): the collective
// engine stamps Barrier/Bcast/Reduce/... traffic with tags at collTagBase
// and above, and a user point-to-point message carrying such a tag can be
// matched by a concurrent collective on the same communicator.
const RuleTagHygiene = "mpi-tag-hygiene"

// reservedTagBase mirrors internal/mpi's collTagBase. It is unexported
// there, so the value is restated here; TestReservedTagBaseMatchesRuntime
// greps the runtime source to keep the two in sync.
const reservedTagBase = 1 << 28

// tagArgIndex maps mpi point-to-point functions to the indices of their tag
// parameters.
var tagArgIndex = map[string][]int{
	"Send":          {2},
	"SendOwned":     {2},
	"Recv":          {2},
	"RecvOwned":     {2},
	"SendRecv":      {2, 5},
	"SendRecvOwned": {2, 5},
}

// TagHygieneAnalyzer builds the mpi-tag-hygiene rule.
func TagHygieneAnalyzer() *Analyzer {
	return &Analyzer{
		Name: RuleTagHygiene,
		Doc:  "require named constants for mpi message tags outside internal/mpi",
		Run:  runTagHygiene,
	}
}

func runTagHygiene(p *Pass) {
	if p.Pkg.Path == p.Cfg.MPIPkg {
		return // the runtime's own internals allocate the collective tag space
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := calleeFromPkg(p.Pkg.Info, call, p.Cfg.MPIPkg)
			if !ok {
				return true
			}
			for _, idx := range tagArgIndex[name] {
				if idx >= len(call.Args) {
					continue
				}
				arg := call.Args[idx]
				if lit, ok := bareIntLiteral(arg); ok {
					// One finding per argument: a bare literal already
					// demands a rewrite, so skip the reserved-space check.
					p.Reportf(lit.Pos(), "raw integer literal %s as mpi.%s tag; declare a named tag constant so cross-subsystem collisions stay greppable", lit.Value, name)
					continue
				}
				if v, ok := constTagValue(p, arg); ok && v >= reservedTagBase {
					p.Reportf(arg.Pos(), "mpi.%s tag %d is inside the collective engine's reserved tag space (>= 1<<28); pick a user tag below it or collective traffic can match this message", name, v)
				}
			}
			return true
		})
	}
}

// constTagValue evaluates a tag argument that the type checker folded to a
// compile-time integer constant (named constants, shifts and arithmetic over
// them all qualify). Run-time expressions return ok=false: the rule only
// judges what it can prove.
func constTagValue(p *Pass, e ast.Expr) (int64, bool) {
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	n, exact := constant.Int64Val(v)
	return n, exact
}

// bareIntLiteral reports whether e is an integer literal, possibly wrapped
// in parentheses or a sign. Arithmetic over named constants (tagBase + 2*k)
// is allowed — only a literal standing alone as the whole tag is flagged.
func bareIntLiteral(e ast.Expr) (*ast.BasicLit, bool) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.SUB && v.Op != token.ADD {
				return nil, false
			}
			e = v.X
		case *ast.BasicLit:
			if v.Kind == token.INT {
				return v, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}
