package lint

import (
	"go/types"
	"testing"
)

// computeMayblockFacts loads the mayblock fixture and runs the fixpoint the
// way Run does.
func computeMayblockFacts(t *testing.T) (*Package, *Facts) {
	t.Helper()
	l, _ := testModule(t)
	pkg, err := l.LoadDir("testdata/src/mayblock", "fixture/mayblock")
	if err != nil {
		t.Fatalf("load mayblock fixture: %v", err)
	}
	return pkg, ComputeFacts(l, []*Package{pkg}, DefaultConfig())
}

// fixtureFunc resolves a package-level function of the fixture by name.
func fixtureFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture function %s not found", name)
	}
	return fn
}

// TestMayBlockSeeds pins the seed set: each direct blocking operation marks
// its function, with the reason naming the operation.
func TestMayBlockSeeds(t *testing.T) {
	pkg, facts := computeMayblockFacts(t)
	seeds := map[string]string{
		"RecvSeed":          "channel receive",
		"SendSeed":          "channel send",
		"RangeSeed":         "range over channel",
		"SelectSeed":        "select without default",
		"SleepSeed":         "time.Sleep",
		"CondWaitSeed":      "sync.Cond.Wait",
		"WaitGroupSeed":     "sync.WaitGroup.Wait",
		"NetWriteSeed":      "net Write",
		"IfaceConnLikeSeed": "conn-like c.Write",
	}
	for name, wantWhy := range seeds {
		why, blocks := facts.MayBlock(fixtureFunc(t, pkg, name))
		if !blocks {
			t.Errorf("%s: not marked may-block, want seed %q", name, wantWhy)
			continue
		}
		if why != wantWhy {
			t.Errorf("%s: reason = %q, want %q", name, why, wantWhy)
		}
	}
}

// TestMayBlockExclusions pins what must NOT be marked: defaulted selects,
// go-spawned blocking work, calls through non-conn-like interfaces, calls
// to function-typed variables, and pure code.
func TestMayBlockExclusions(t *testing.T) {
	pkg, facts := computeMayblockFacts(t)
	for _, name := range []string{
		"SelectDefaultClean", // default clause makes the select a poll
		"SpawnOnly",          // go f(): the spawner does not block
		"SpawnLitOnly",       // go func(){...}(): same
		"IfaceNonConnClean",  // non-conn-like interface: conservatism boundary
		"FuncVarClean",       // no static callee
		"Pure",
	} {
		if why, blocks := facts.MayBlock(fixtureFunc(t, pkg, name)); blocks {
			t.Errorf("%s: marked may-block (%q), want clean", name, why)
		}
	}
}

// TestMayBlockTransitive pins propagation along call edges, with the reason
// naming the callee that carries the blocking operation.
func TestMayBlockTransitive(t *testing.T) {
	pkg, facts := computeMayblockFacts(t)
	why1, ok1 := facts.MayBlock(fixtureFunc(t, pkg, "Transitive1"))
	if !ok1 || why1 != "calls fixture/mayblock.RecvSeed" {
		t.Errorf("Transitive1 = (%q, %v), want one-hop propagation from RecvSeed", why1, ok1)
	}
	why2, ok2 := facts.MayBlock(fixtureFunc(t, pkg, "Transitive2"))
	if !ok2 || why2 != "calls fixture/mayblock.Transitive1" {
		t.Errorf("Transitive2 = (%q, %v), want two-hop propagation through Transitive1", why2, ok2)
	}
}

// TestMayBlockDecl pins the Func->FuncDecl mapping the goroutine-leak rule
// uses to analyze `go f()` spawn targets.
func TestMayBlockDecl(t *testing.T) {
	pkg, facts := computeMayblockFacts(t)
	fn := fixtureFunc(t, pkg, "RecvSeed")
	decl := facts.Decl(fn)
	if decl == nil {
		t.Fatal("Decl(RecvSeed) = nil, want the fixture declaration")
	}
	if decl.Name.Name != "RecvSeed" {
		t.Errorf("Decl(RecvSeed).Name = %s", decl.Name.Name)
	}
	if facts.Decl(nil) != nil {
		t.Error("Decl(nil) should be nil")
	}
}
