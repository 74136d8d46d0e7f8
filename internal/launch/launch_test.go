package launch

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gosensei/internal/iosim"
)

// TestPlanHandsBackEveryRank: a plan run in this process leaves each rank's
// instrumentation for the caller — the source built once under
// sim::initialize, one sim::step per step, the configured analyses' timers —
// and rank 0's stdout is the launcher's header and report.
func TestPlanHandsBackEveryRank(t *testing.T) {
	var stdout bytes.Buffer
	p, err := Load(Request{
		Config: []byte(`<sensei><analysis type="histogram" bins="4"/></sensei>`),
		NP:     3, Transport: "proc", Cells: 6, Steps: 4, Stdout: &stdout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(p.Run(p.Drive)...); err != nil {
		t.Fatal(err)
	}
	for rank, r := range p.Ranks() {
		for name, want := range map[string]int{"sim::initialize": 1, "sensei::initialize": 1, "sim::step": 4, "sensei::execute": 4, "total": 1} {
			if got := r.Registry.Timer(name).Count(); got != want {
				t.Errorf("rank %d: %s ran %d times, want %d", rank, name, got, want)
			}
		}
		if r.Startup <= 0 || r.Memory.HighWater() < r.Startup {
			t.Errorf("rank %d: startup %d, high water %d", rank, r.Startup, r.Memory.HighWater())
		}
	}
	if !strings.HasPrefix(stdout.String(), "oscillator: 3 ranks, 6^3 cells, 4 steps, 1 analyses\nhistogram data: step=4 ") {
		t.Errorf("stdout:\n%s", stdout.String())
	}
}

// TestDecompositionRefusedAtTheFrontDoor: each simulation's CheckRanks is
// applied by Parse, so a world the grid cannot feed is refused before a
// rank exists, with the constructor's own words.
func TestDecompositionRefusedAtTheFrontDoor(t *testing.T) {
	for deck, want := range map[string]string{
		"":                    "oscillator: grid [2 2 2] too small for 16 ranks",
		"simulation phasta\n": "phasta: 1 x-cells cannot feed 16 ranks",
		"simulation leslie\n": "leslie: axis 0: 2 cells cannot feed 4 ranks",
		"simulation nyx\n":    "nyx: 2 z-cells cannot feed 16 ranks",
	} {
		var text []byte // no deck: the oscillator's built-in one
		if deck != "" {
			text = []byte(deck)
		}
		_, err := Parse(Request{Deck: text, NP: 16, Transport: "tcp", Cells: 2, Steps: 1})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("deck %q: err = %v, want %q", deck, err, want)
		}
		if _, err := Parse(Request{Deck: text, NP: 1, Transport: "tcp", Cells: 2, Steps: 1}); err != nil {
			t.Errorf("deck %q on one rank: %v", deck, err)
		}
	}
}

// vtkWriter is a configuration that writes every rank's block each step
// into dir.
func vtkWriter(dir string) []byte {
	return []byte(`<sensei><analysis type="vtk-writer" dir="` + dir + `"/></sensei>`)
}

// TestIOFaultsReachALibraryPlan: a plan carries its io faults to the block
// files its configuration writes, with no process-wide seam installed — a
// schedule that exhausts rank 0's retry budget fails the run naming the
// block, exactly as it fails gosensei-run.
func TestIOFaultsReachALibraryPlan(t *testing.T) {
	dir := t.TempDir()
	p, err := Load(Request{
		Config: vtkWriter(dir), Faults: "1:io.enospc(rank=0,op=1,n=4)",
		NP: 2, Transport: "proc", Cells: 6, Steps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = errors.Join(p.Run(p.Drive)...)
	want := "giving up on " + iosim.BlockPath(dir, 1, 0) + " after 4 attempts"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want %q", err, want)
	}
	if got := p.Faults().TraceLines(); !reflect.DeepEqual(got, []string{"io.enospc(rank=0,op=1,n=4) x1"}) {
		t.Errorf("trace = %v", got)
	}
}

// TestFabricFaultsNeedThisPlansWire: fabric faults are refused unless this
// plan's configuration dials a staging wire, however many plans that do
// were loaded before it in the same process.
func TestFabricFaultsNeedThisPlansWire(t *testing.T) {
	probe := Request{
		Config: []byte(`<sensei><analysis type="histogram"/></sensei>`),
		Faults: "1:fabric.kill(rank=0,write=2)",
		NP:     2, Transport: "proc", Cells: 6, Steps: 2,
	}
	refused := func(when string) {
		t.Helper()
		_, err := Load(probe)
		if err == nil || !strings.Contains(err.Error(), "cannot deliver fabric faults") {
			t.Errorf("%s: err = %v, want the fabric refusal", when, err)
		}
	}
	refused("first plan")
	flexpath := probe
	flexpath.Config = []byte(`<sensei><analysis type="adios" transport="flexpath" endpoint="127.0.0.1:9"/></sensei>`)
	if _, err := Load(flexpath); err != nil {
		t.Fatalf("a flexpath writer takes fabric faults: %v", err)
	}
	refused("after a flexpath plan")
}

// TestConcurrentPlansShareNoFaults: two plans with different io schedules
// run at once in one process; each fires only its own faults, and both
// write the same blocks (the faults are tolerated).
func TestConcurrentPlansShareNoFaults(t *testing.T) {
	schedules := []string{"1:io.enospc(rank=0,op=1,n=2)", "2:io.fsync(rank=1,op=2,ms=1)"}
	dirs := []string{t.TempDir(), t.TempDir()}
	plans := make([]*Plan, len(schedules))
	for i, s := range schedules {
		var err error
		if plans[i], err = Load(Request{Config: vtkWriter(dirs[i]), Faults: s, NP: 2, Transport: "proc", Cells: 6, Steps: 3}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p *Plan) {
			defer wg.Done()
			errs[i] = errors.Join(p.Run(p.Drive)...)
		}(i, p)
	}
	wg.Wait()
	for i, p := range plans {
		if errs[i] != nil {
			t.Errorf("plan %s: %v", schedules[i], errs[i])
		}
		_, spec, _ := strings.Cut(schedules[i], ":")
		if got := p.Faults().TraceLines(); !reflect.DeepEqual(got, []string{spec + " x1"}) {
			t.Errorf("plan %s: trace = %v", schedules[i], got)
		}
	}
	for step := 1; step <= 3; step++ {
		for rank := 0; rank < 2; rank++ {
			a, errA := os.ReadFile(iosim.BlockPath(dirs[0], step, rank))
			b, errB := os.ReadFile(iosim.BlockPath(dirs[1], step, rank))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Errorf("step %d rank %d: blocks differ (%v, %v)", step, rank, errA, errB)
			}
		}
	}
}

// TestGleanReportsTheHistogram: glean's node analysis bins every node's
// blocks on the aggregators, so its report carries the histogram
// analysis's step, min, max and counts, on goroutine ranks and on a
// loopback world alike.
func TestGleanReportsTheHistogram(t *testing.T) {
	config := []byte(`<sensei>
	  <analysis type="histogram" array="data" bins="10"/>
	  <analysis type="glean" ranks-per-node="2" mode="analysis" array="data" bins="10"/>
	</sensei>`)
	for _, transport := range []string{"proc", "loopback"} {
		var stdout bytes.Buffer
		p, err := Load(Request{Config: config, NP: 4, Transport: transport, Cells: 8, Steps: 3, Stdout: &stdout})
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(p.Run(p.Drive)...); err != nil {
			t.Fatal(err)
		}
		report := map[string]string{}
		for _, l := range strings.Split(stdout.String(), "\n") {
			if name, line, ok := strings.Cut(l, " data: "); ok {
				report[name] = line
			}
		}
		if h := report["histogram"]; h == "" || report["glean"] != h {
			t.Errorf("%s: glean reported %q, the histogram %q", transport, report["glean"], h)
		}
	}
}
