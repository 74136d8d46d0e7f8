package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
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

// TestLintRuntimeBudget pins the scan cost: a fresh load and scan of the
// module — the three interprocedural concurrency rules and the may-block
// fixpoint behind them included — must stay under 2x the recorded baseline
// of the five-rule suite (2.17s wall), per the v3 acceptance criteria. One
// retry absorbs CI scheduling noise; two consecutive misses are a real
// regression.
func TestLintRuntimeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the scan ~5x; the budget is pinned for normal builds")
	}
	const budget = 2 * 2170 * time.Millisecond
	var elapsed time.Duration
	for attempt := 0; attempt < 2 && (attempt == 0 || elapsed >= budget); attempt++ {
		fresh, err := RunModule("../..")
		if err != nil {
			t.Fatalf("RunModule: %v", err)
		}
		elapsed = fresh.Elapsed
	}
	if elapsed >= budget {
		t.Errorf("module scan took %s, budget %s (2x the five-rule baseline); the may-block fixpoint or a new rule regressed scan cost", elapsed.Round(time.Millisecond), budget)
	}
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
