package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path ("gosensei/internal/mpi")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestFiles are the package's _test.go files (internal and external
	// test packages alike), parsed but NOT type-checked: rules that cover
	// them must work syntactically. Suppression comments in test files are
	// honored like any other.
	TestFiles []*ast.File
}

// Loader parses and type-checks module packages using only the standard
// library: module-internal imports resolve through the loader's own cache,
// everything else through go/importer's source importer (which reads GOROOT
// sources, so no compiled export data is required).
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path from go.mod

	std      types.ImporterFrom
	cache    map[string]*Package
	visiting map[string]bool
}

// NewLoader builds a loader for the module rooted at root (a directory
// containing go.mod, or a subdirectory of one — the loader walks up).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Fset:       fset,
		ModuleRoot: modRoot,
		ModulePath: modPath,
		std:        std,
		cache:      map[string]*Package{},
		visiting:   map[string]bool{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
	}
}

// Import implements types.Importer over the module/stdlib split.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p.Types, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.loadModulePath(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleRoot, 0)
}

// loadModulePath loads (or returns the cached) package at a module-internal
// import path.
func (l *Loader) loadModulePath(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.visiting[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

// LoadDir type-checks the single package in dir under the given import path.
// It is the entry point fixture tests use for packages outside the module
// tree proper (testdata is skipped by LoadModule); a package loaded this way
// can be imported by the ones loaded after it.
//
//lint:ignore unreferenced TestFixtures loads every fixture package through it
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, path)
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	l.visiting[path] = true
	defer delete(l.visiting, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	testNames, err := goTestFilesIn(dir)
	if err != nil {
		return nil, err
	}
	var testFiles []*ast.File
	for _, name := range testNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		testFiles = append(testFiles, f)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, TestFiles: testFiles}
	l.cache[path] = p
	return p, nil
}

// goFilesIn lists the non-test .go files of dir, sorted for determinism.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// goTestFilesIn lists the _test.go files of dir, sorted for determinism.
func goTestFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, "_test.go") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads every non-test package under the module root, skipping
// testdata, hidden directories, and vendored trees. The returned slice is
// ordered by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.loadModulePath(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
