package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// RuleUnreferenced flags package-level declarations that no non-test code
// in the module refers to: a func, method, type, var or const, or a method
// of an interface declared at package level, whose only references (if any)
// sit inside its own declaration or in _test.go files. What only tests need
// belongs in a _test.go file of its package; what nothing needs, nowhere.
//
// References are read from types.Info.Uses of the analyzed packages, with
// generic instantiations mapped to their origin. A method belongs to its
// receiver's type, so a type is not kept alive by its own methods. Test
// files are not type-checked, so they refer to nothing.
//
// Exempt, each worked out from the code:
//
//   - main, init and blank names;
//   - a concrete method whose name and signature equal those of a method of
//     some interface in the analyzed packages or in a package they import
//     (fmt.Stringer's String, io.Writer's Write, a module contract): a call
//     may reach it through dynamic dispatch, which Uses cannot see;
//   - exported declarations of a non-main package that no analyzed package
//     imports: such a package is API for tests (or, for a lint fixture,
//     for nobody), and its exported surface is its purpose.
const RuleUnreferenced = "unreferenced"

// UnreferencedAnalyzer builds the unreferenced rule.
func UnreferencedAnalyzer() *Analyzer {
	return &Analyzer{
		Name: RuleUnreferenced,
		Doc:  "flag package-level declarations that no non-test code refers to",
		Run:  runUnreferenced,
	}
}

// refIndex is the module-wide input of the rule, built once per Run.
type refIndex struct {
	used         map[types.Object]bool    // referenced outside its own declaration
	imported     map[string]bool          // analyzed packages some analyzed package imports
	ifaceMethods map[string][]*types.Func // by name: methods of every interface in sight
}

func runUnreferenced(p *Pass) {
	idx := p.Facts.references()
	exportsExempt := p.Pkg.Types.Name() != "main" && !idx.imported[p.Pkg.Path]
	report := func(id *ast.Ident, kind string) {
		obj := p.Pkg.Info.Defs[id]
		if id.Name == "_" || id.Name == "main" || id.Name == "init" || obj == nil || idx.used[obj] || (exportsExempt && obj.Exported()) {
			return
		}
		p.Reportf(id.Pos(), "%s %s is referenced by no non-test code; delete it, or move it into a _test.go file if only tests need it", kind, id.Name)
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func")
				} else if fn, ok := p.Pkg.Info.Defs[d.Name].(*types.Func); ok && !idx.satisfiesInterface(fn) {
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type")
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, name := range m.Names {
									report(name, "interface method")
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							report(name, strings.ToLower(d.Tok.String()))
						}
					}
				}
			}
		}
	}
}

// references returns the module-wide reference index, building it on first
// use.
func (f *Facts) references() *refIndex {
	if f.refs == nil {
		f.refs = buildRefIndex(f.pkgs)
	}
	return f.refs
}

func buildRefIndex(pkgs []*Package) *refIndex {
	idx := &refIndex{used: map[types.Object]bool{}, imported: map[string]bool{}, ifaceMethods: map[string][]*types.Func{}}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				idx.ifaceMethods[m.Name()] = append(idx.ifaceMethods[m.Name()], m)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	// The analyzed packages' interfaces are found below from their syntax;
	// every other import contributes its package-level interfaces once.
	analyzed, seen := map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		analyzed[p.Path] = true
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			switch {
			case analyzed[imp.Path()]:
				idx.imported[imp.Path()] = true
			case !seen[imp.Path()]:
				seen[imp.Path()] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						addIface(tn.Type())
					}
				}
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && p.Info.Types[it].Type != nil {
					addIface(p.Info.Types[it].Type)
				}
				return true
			})
			for _, d := range f.Decls {
				idx.collectUses(p.Info, d)
			}
		}
	}
	return idx
}

// collectUses records the references one top-level declaration makes to
// objects other than those it declares. A method belongs to its receiver's
// type, so it refers to neither itself nor that type.
func (idx *refIndex) collectUses(info *types.Info, d ast.Decl) {
	record := func(n ast.Node, own ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if obj != nil && !slices.Contains(own, obj) {
					idx.used[obj] = true
				}
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		own := []types.Object{info.Defs[d.Name]}
		if d.Recv != nil {
			recv := d.Recv.List[0].Type
			if ix, ok := recv.(*ast.IndexListExpr); ok {
				recv = ix.X
			}
			if id := rootIdent(recv); id != nil {
				own = append(own, info.Uses[id])
			}
		}
		record(d, own...)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var own []types.Object
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own = append(own, info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, name := range s.Names {
					own = append(own, info.Defs[name])
				}
			}
			record(spec, own...)
		}
	}
}

// satisfiesInterface reports whether the concrete method fn has the name and
// signature of some interface method the index knows, so that a call may
// reach it through dynamic dispatch.
func (idx *refIndex) satisfiesInterface(fn *types.Func) bool {
	return slices.ContainsFunc(idx.ifaceMethods[fn.Name()], func(m *types.Func) bool {
		return types.Identical(fn.Type(), m.Type())
	})
}
