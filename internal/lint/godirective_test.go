package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestModuleKeepsGoDirective: go.mod declares the oldest Go the module
// builds with, and CI installs exactly that toolchain, but a newer local one
// compiles newer standard-library API without complaint (a t.Chdir, Go 1.24,
// once slipped in that way). The toolchain ships the list of what each
// release added, $GOROOT/api/go1.N.txt; no package of the module, test files
// included, may use a symbol listed for a release after the directive.
func TestModuleKeepsGoDirective(t *testing.T) {
	l, pkgs := testModule(t)
	newer := newerStdAPI(t, l.ModuleRoot)
	var found []string
	files := 0
	for _, p := range pkgs {
		for _, u := range stdUses(t, l, p) {
			if v, ok := newer[u.key]; ok {
				found = append(found, fmt.Sprintf("%s: %s is %s", u.pos, u.key, v))
			}
		}
		files += len(p.Files) + len(p.TestFiles)
	}
	for _, f := range found {
		t.Error(f)
	}
	if files < 100 {
		t.Errorf("suspiciously small scan: %d files", files)
	}
}

// TestGoDirectiveCatchesChdir: the fixture's test file calls t.Chdir, and
// the check names it against a module that declares go 1.22.
func TestGoDirectiveCatchesChdir(t *testing.T) {
	l, _ := testModule(t)
	newer := newerStdAPI(t, l.ModuleRoot)
	p, err := l.LoadDir(filepath.Join("testdata", "src", "godirective"), "fixture/godirective")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range stdUses(t, l, p) {
		if v, ok := newer[u.key]; ok {
			got = append(got, u.key+" "+v)
		}
	}
	if len(got) != 1 || got[0] != "testing.T.Chdir go1.24" {
		t.Errorf("findings %q, want exactly [testing.T.Chdir go1.24]", got)
	}
}

// newerStdAPI reads the api files of every release after the module's go
// directive into a map from symbol key (see stdUses) to the release that
// added it. It skips the test when the toolchain ships none of them.
func newerStdAPI(t *testing.T, modRoot string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	minor := -1
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go 1."); ok {
			v, _, _ = strings.Cut(v, ".")
			minor, err = strconv.Atoi(v)
			if err != nil {
				t.Fatalf("go.mod: go directive %q", line)
			}
		}
	}
	if minor < 0 {
		t.Fatal("go.mod has no go directive")
	}
	keys := map[string]string{}
	for m := minor + 1; ; m++ {
		release := fmt.Sprintf("go1.%d", m)
		f, err := os.Open(filepath.Join(build.Default.GOROOT, "api", release+".txt"))
		if err != nil {
			break
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if key := apiKey(sc.Text()); key != "" {
				keys[key] = release
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(keys) == 0 {
		t.Skipf("no api files after go1.%d under %s", minor, build.Default.GOROOT)
	}
	return keys
}

// apiKey turns one api file line into the key stdUses builds for the same
// symbol: "pkg.Name" for a package-level func, type, const or var, and
// "pkg.Type.Name" for a method, a struct field or an interface method.
// Lines for one platform only ("pkg syscall (linux-386), ...") give "":
// a port's additions are mostly symbols other ports have had for years.
func apiKey(line string) string {
	rest, ok := strings.CutPrefix(line, "pkg ")
	if !ok {
		return ""
	}
	pkg, decl, ok := strings.Cut(rest, ", ")
	if !ok || strings.Contains(pkg, " ") {
		return ""
	}
	ident := func(s string) string {
		end := strings.IndexFunc(s, func(r rune) bool { return r == '(' || r == '[' || r == ' ' || r == ',' })
		if end < 0 {
			return s
		}
		return s[:end]
	}
	kind, decl, _ := strings.Cut(decl, " ")
	switch kind {
	case "func", "const", "var":
		return pkg + "." + ident(decl)
	case "method":
		// "(*T) Name(...)" or "(T[$0]) Name(...)"
		recv, name, ok := strings.Cut(decl, ") ")
		if !ok {
			return ""
		}
		return pkg + "." + ident(strings.TrimPrefix(strings.TrimPrefix(recv, "("), "*")) + "." + ident(name)
	case "type":
		name := ident(decl)
		// "T struct, Field Type" and "T interface, Method(...)" add a
		// member to an existing type.
		if _, member, ok := strings.Cut(decl, ", "); ok {
			return pkg + "." + name + "." + ident(member)
		}
		return pkg + "." + name
	}
	return ""
}

// stdUse is one reference from module code to a standard-library symbol.
type stdUse struct {
	pos string // file:line
	key string
}

// stdUses lists p's references to standard-library symbols, from its own
// files and from its test files. The test files are type-checked here as
// the go command builds them: the in-package ones together with p's files,
// the external ones as their own package importing that result. Type errors
// are not this check's business, and do not stop it.
func stdUses(t *testing.T, l *Loader, p *Package) []stdUse {
	t.Helper()
	uses := collectStdUses(l, p.Files, p.Info)
	var internal, external []*ast.File
	for _, f := range p.TestFiles {
		name := filepath.Base(l.Fset.Position(f.Package).Filename)
		if ok, err := build.Default.MatchFile(p.Dir, name); err != nil || !ok {
			continue
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			internal = append(internal, f)
		}
	}
	under := p.Types
	if len(internal) > 0 {
		files := append(append([]*ast.File(nil), p.Files...), internal...)
		info := newInfo()
		cfg := types.Config{Importer: l, Error: func(error) {}}
		under, _ = cfg.Check(p.Path, l.Fset, files, info)
		uses = append(uses, collectStdUses(l, internal, info)...)
	}
	if len(external) > 0 {
		info := newInfo()
		cfg := types.Config{Importer: testImporter{l, p.Path, under}, Error: func(error) {}}
		_, _ = cfg.Check(p.Path+"_test", l.Fset, external, info)
		uses = append(uses, collectStdUses(l, external, info)...)
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].pos < uses[j].pos })
	return uses
}

// testImporter resolves the package under test to its build with its
// in-package test files, as the go command does for an external test.
type testImporter struct {
	l     *Loader
	path  string
	under *types.Package
}

func (ti testImporter) Import(path string) (*types.Package, error) {
	if path == ti.path && ti.under != nil {
		return ti.under, nil
	}
	return ti.l.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// collectStdUses keys every standard-library object files refer to:
// package-level names by package, methods and fields by the std type they
// are selected on (a promoted method is listed under the type that
// promotes it, as t.Chdir is under testing.T) and by the type declaring
// them, and keyed struct literal fields by the literal's type.
func collectStdUses(l *Loader, files []*ast.File, info *types.Info) []stdUse {
	isStd := func(pkg *types.Package) bool {
		return pkg != nil && pkg.Path() != l.ModulePath && !strings.HasPrefix(pkg.Path(), l.ModulePath+"/") &&
			!strings.HasPrefix(pkg.Path(), "fixture/")
	}
	// named returns "pkg.T" for a (pointer to a) std named type, or "".
	named := func(typ types.Type) string {
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		n, ok := types.Unalias(typ).(*types.Named)
		if !ok || !isStd(n.Obj().Pkg()) {
			return ""
		}
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	var uses []stdUse
	seen := map[stdUse]bool{}
	add := func(pos ast.Node, key string) {
		p := l.Fset.Position(pos.Pos())
		u := stdUse{pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), key: key}
		if key != "" && !seen[u] {
			seen[u] = true
			uses = append(uses, u)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || !isStd(obj.Pkg()) {
					return true
				}
				if obj.Parent() == obj.Pkg().Scope() {
					add(n, obj.Pkg().Path()+"."+obj.Name())
				} else if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						if owner := named(recv.Type()); owner != "" {
							add(n, owner+"."+fn.Name())
						}
					}
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; sel != nil {
					if owner := named(sel.Recv()); owner != "" {
						add(n.Sel, owner+"."+sel.Obj().Name())
					}
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				owner := named(tv.Type)
				if owner == "" {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if _, isStruct := tv.Type.Underlying().(*types.Struct); isStruct {
								add(id, owner+"."+id.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
	return uses
}
