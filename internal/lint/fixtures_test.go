package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// wantRe matches golden expectations in fixture sources. A trailing want
// comment expects a diagnostic of that rule on its own line; a want comment
// alone on a line expects it on the next line.
var wantRe = regexp.MustCompile(`// want ([a-z-]+)`)

// fixtureConfig scopes the package-scoped rules to the fixture under test
// while keeping the contract packages (mpi, render, parallel) pointed at the
// real module, so fixtures exercise the rules against the real APIs.
func fixtureConfig(path string) *Config {
	cfg := DefaultConfig()
	cfg.DeterministicPkgs = []string{path}
	cfg.IOWriterPkgs = []string{path}
	cfg.ClockAllowedFiles = []string{"nondet/timing.go"}
	return cfg
}

// fixtureWants scans a fixture directory for want comments and returns the
// expected diagnostics as sorted "file:line: rule" strings, with file paths
// relative to the module root (matching Diagnostic.File).
func fixtureWants(t *testing.T, dir, modRel string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, ln := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatchIndex(ln, -1) {
				line := i + 1
				if strings.TrimSpace(ln[:m[0]]) == "" {
					line = i + 2
				}
				wants = append(wants, fmt.Sprintf("%s/%s:%d: %s", modRel, e.Name(), line, ln[m[2]:m[3]]))
			}
		}
	}
	sort.Strings(wants)
	return wants
}

// TestFixtures runs the full suite over each golden fixture package and
// compares the diagnostics against the want comments, exactly: every
// expected finding must fire, and nothing else may.
func TestFixtures(t *testing.T) {
	l, _ := testModule(t)
	tests := []struct {
		name       string
		suppressed int
	}{
		{"nondet", 0},
		{"routeclock", 0},
		{"ownership", 0},
		{"workers", 0},
		{"tags", 0},
		{"unchecked", 0},
		{"ignore", 2},
		{"regress", 3},
		{"lockblock", 1},
		{"blockseed", 0},
		{"goleak", 0},
		{"wghygiene", 0},
		{"deadlockregress", 0},
		{"unreferenced", 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// A fixture's subdirectories are packages of their own, loaded
			// first so that the fixture's root package can import them.
			dir := filepath.Join("testdata", "src", tc.name)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var rels []string
			for _, e := range entries {
				if e.IsDir() {
					rels = append(rels, e.Name())
				}
			}
			rels = append(rels, "")
			path := "fixture/" + tc.name
			var pkgs []*Package
			var want []string
			for _, rel := range rels {
				pkg, err := l.LoadDir(filepath.Join(dir, rel), strings.TrimSuffix(path+"/"+rel, "/"))
				if err != nil {
					t.Fatalf("load fixture %s: %v", tc.name, err)
				}
				pkgs = append(pkgs, pkg)
				want = append(want, fixtureWants(t, filepath.Join(dir, rel), strings.TrimSuffix("internal/lint/testdata/src/"+tc.name+"/"+rel, "/"))...)
			}
			sort.Strings(want)
			res := Run(l, pkgs, Analyzers(), fixtureConfig(path))
			var got []string
			for _, d := range res.Diagnostics {
				got = append(got, fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Rule))
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("diagnostics mismatch\n got:\n  %s\nwant:\n  %s",
					strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			if res.Suppressed != tc.suppressed {
				t.Errorf("suppressed = %d, want %d", res.Suppressed, tc.suppressed)
			}
		})
	}
}
