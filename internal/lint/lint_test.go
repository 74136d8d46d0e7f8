package lint

import (
	"bytes"
	"encoding/json"
	"go/types"
	"math"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// testModuleOnce is the module, loaded and type-checked from source once
// per test binary: every test that reads the module's packages, or loads a
// fixture importing them, shares this loader. A load costs seconds; only
// TestLintRuntimeBudget pays for a fresh one, because that is what it
// measures. The tests of this package do not run in parallel, and a Loader
// is not safe for concurrent use.
var testModuleOnce struct {
	sync.Once
	l    *Loader
	pkgs []*Package
	err  error
}

func testModule(t testing.TB) (*Loader, []*Package) {
	t.Helper()
	m := &testModuleOnce
	m.Do(func() {
		if m.l, m.err = NewLoader("../.."); m.err == nil {
			m.pkgs, m.err = m.l.LoadModule()
		}
	})
	if m.err != nil {
		t.Fatalf("load module: %v", m.err)
	}
	return m.l, m.pkgs
}

// moduleScanOnce is the full suite run once over the shared module.
var moduleScanOnce struct {
	sync.Once
	res *Result
}

func moduleScan(t *testing.T) *Result {
	t.Helper()
	l, pkgs := testModule(t)
	moduleScanOnce.Do(func() {
		moduleScanOnce.res = Run(l, pkgs, Analyzers(), DefaultConfig())
	})
	return moduleScanOnce.res
}

// TestModuleIsLintClean is the enforcement point: running the full suite
// over the whole module must report zero unsuppressed diagnostics, so any
// new violation fails `go test ./...` (tier 1), not just `make lint`.
func TestModuleIsLintClean(t *testing.T) {
	res := moduleScan(t)
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d.String())
	}
	// Guard against the scan silently shrinking (e.g. a loader regression
	// skipping directories would make "zero findings" meaningless).
	if res.Packages < 30 || res.Files < 60 {
		t.Errorf("suspiciously small scan: %d packages, %d files", res.Packages, res.Files)
	}
	if res.Suppressed == 0 {
		t.Errorf("expected at least one suppressed finding (the tree carries documented //lint:ignore directives)")
	}
	// Exactly one lock held across a blocking call in the whole module:
	// fabric.Session's write lock across its deadline-bounded conn.Write,
	// under which staging, live and world all send. Zero means the rule
	// silently stopped running; two means someone hand-rolled a second way
	// to hold a connection.
	if rc := res.PerRule[RuleLockBlocking]; rc.Suppressed != 1 {
		t.Errorf("lock-blocking: %d suppressed findings, want exactly 1 (fabric.Session.send)", rc.Suppressed)
	}
	// Exactly nine declarations kept for a caller the rule cannot see: five
	// test oracles, the framebuffer leak gauge, core.ConfigureFromXML,
	// Loader.LoadDir and fabric.Conn.LocalAddr. A tenth is a reviewed edit
	// of this number, not a quiet //lint:ignore; fewer means one went dead
	// or the rule stopped running.
	if rc := res.PerRule[RuleUnreferenced]; rc.Suppressed != 9 {
		t.Errorf("unreferenced: %d suppressed findings, want exactly 9", rc.Suppressed)
	}
}

// TestOneConstructionSite holds the module to one way of hosting a
// simulation: outside internal/launch, no non-test code calls a miniapp's
// constructor, except cmd/bench (its workloads build their own) and the two
// examples that show the API by hand. Like TestBadConfigsAreErrors' rule
// for every registered analysis type, every constructor listed must resolve
// and must be called by the launcher: a renamed or new simulation cannot
// slip past the guard.
func TestOneConstructionSite(t *testing.T) {
	l, pkgs := testModule(t)
	constructors := map[string]bool{
		"gosensei/internal/oscillator.NewSim": false,
		"gosensei/internal/phasta.NewSolver":  false,
		"gosensei/internal/leslie.NewSolver":  false,
		"gosensei/internal/nyx.NewSim":        false,
	}
	allowed := map[string]bool{
		"gosensei/internal/launch":        true,
		"gosensei/cmd/bench":              true,
		"gosensei/examples/quickstart":    true,
		"gosensei/examples/live-steering": true,
	}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			name := fn.Pkg().Path() + "." + fn.Name()
			if _, listed := constructors[name]; !listed || fn.Pkg() == pkg.Types {
				continue
			}
			if pkg.Path == "gosensei/internal/launch" {
				constructors[name] = true
			}
			if !allowed[pkg.Path] {
				t.Errorf("%s: %s builds a simulation by hand; host it through a launch plan", l.Fset.Position(id.Pos()), name)
			}
		}
	}
	for name, launched := range constructors {
		if !launched {
			t.Errorf("internal/launch never calls %s: the guard's list is stale", name)
		}
	}
}

// TestLintRuntimeBudget pins what the rules cost against what loading the
// module costs, both in this process's own CPU time (getrusage), so that
// other processes on the host move neither: a fresh load type-checks the
// module and the standard library from source, then the full suite — the
// three interprocedural concurrency rules and the may-block fixpoint behind
// them included — scans it, three times, and the fastest scan counts (one
// pass can absorb a garbage collection the load left behind). On a 2-core
// host the scan read 3.5–4.7 % of the load (10 runs), and 3.4–5.2 % as the
// faster of two scans (17 runs, 5 of them beside two busy-looping
// processes); a suite that runs its analyzers twice read 7.4–9.2 % (8
// runs). The bound, 6 %, sits between.
func TestLintRuntimeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the scan ~5x; the budget is pinned for normal builds")
	}
	const budget = 0.06
	start := cpuTime(t)
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	load := cpuTime(t) - start
	scan := time.Duration(math.MaxInt64)
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		start := cpuTime(t)
		Run(l, pkgs, Analyzers(), DefaultConfig())
		scan = min(scan, cpuTime(t)-start)
	}
	if ratio := float64(scan) / float64(load); ratio > budget {
		t.Errorf("the rules took %s of CPU, %.1f %% of the module load's %s; budget %.1f %%: the may-block fixpoint or a new rule regressed scan cost",
			scan.Round(time.Millisecond), 100*ratio, load.Round(time.Millisecond), 100*budget)
	}
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestWriteFormats checks the two CLI output encodings.
func TestWriteFormats(t *testing.T) {
	diags := []Diagnostic{
		{File: "a/b.go", Line: 3, Col: 2, Rule: "ownership", Message: "boom"},
	}
	var text bytes.Buffer
	if err := WriteText(&text, diags); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(text.String()), "a/b.go:3: [ownership] boom"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
	var js bytes.Buffer
	if err := WriteJSON(&js, diags); err != nil {
		t.Fatal(err)
	}
	var decoded []Diagnostic
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if len(decoded) != 1 || decoded[0] != diags[0] {
		t.Errorf("JSON round-trip = %+v, want %+v", decoded, diags)
	}
}
