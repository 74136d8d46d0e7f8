package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gosensei/internal/mpi"
	"gosensei/internal/route"
	"gosensei/internal/route/routetest"
)

// failingAnalysis errors on the steps in failAt.
type failingAnalysis struct {
	recordingAnalysis
	failAt map[int]bool
}

func (f *failingAnalysis) Execute(d DataAdaptor) (bool, error) {
	if f.failAt[d.TimeStep()] {
		return false, errors.New("backend down")
	}
	return f.recordingAnalysis.Execute(d)
}

// scripted builds a ScriptMeter over flat per-backend costs.
func scripted(rank int, costs [route.NumBackends]route.Estimate) *routetest.ScriptMeter {
	return &routetest.ScriptMeter{
		Rank:  rank,
		Costs: func(_ int, b route.Backend) route.Estimate { return costs[b] },
	}
}

func TestRoutedDispatchesPerDecision(t *testing.T) {
	// Post hoc is predicted far cheaper, so the first decision routes there
	// and the steady scripted costs keep it there.
	prior := [route.NumBackends]route.Estimate{
		route.InSitu:  {Seconds: 1.0},
		route.PostHoc: {Seconds: 0.1},
	}
	r := route.New(route.Config{
		Eligible: []route.Backend{route.InSitu, route.PostHoc},
		Start:    route.InSitu,
	}, prior)
	rt := NewRouted(nil, r, scripted(0, prior))
	insitu := &recordingAnalysis{}
	posthoc := &recordingAnalysis{}
	rt.SetRoute(route.InSitu, insitu)
	rt.SetRoute(route.PostHoc, posthoc)

	d := newFakeAdaptor()
	for step := 0; step < 5; step++ {
		d.SetStep(step, 0)
		if cont, err := rt.Execute(d); err != nil || !cont {
			t.Fatalf("step %d: cont=%v err=%v", step, cont, err)
		}
	}
	if len(insitu.executed) != 0 {
		t.Fatalf("in situ ran %v despite cheaper post hoc", insitu.executed)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(posthoc.executed, want) {
		t.Fatalf("post hoc executed %v, want %v", posthoc.executed, want)
	}
	if r.Switches() != 0 {
		t.Fatalf("steady costs produced %d switches:\n%s", r.Switches(), route.FormatDecisions(r.Decisions()))
	}
}

func TestRoutedFallsBackAndQuarantines(t *testing.T) {
	// In transit is predicted cheapest but its adaptor dies at step 2: the
	// step must be re-run on the in situ fallback (no analysis lost), the
	// failure quarantines the route, and the next decision is a forced
	// switch.
	prior := [route.NumBackends]route.Estimate{
		route.InSitu:    {Seconds: 1.0},
		route.InTransit: {Seconds: 0.1},
	}
	r := route.New(route.Config{
		Eligible:      []route.Backend{route.InSitu, route.InTransit},
		Start:         route.InTransit,
		ProbeInterval: 100,
	}, prior)
	rt := NewRouted(nil, r, scripted(0, prior))
	insitu := &recordingAnalysis{}
	intransit := &failingAnalysis{failAt: map[int]bool{2: true}}
	rt.SetRoute(route.InSitu, insitu)
	rt.SetRoute(route.InTransit, intransit)

	d := newFakeAdaptor()
	for step := 0; step < 6; step++ {
		d.SetStep(step, 0)
		if cont, err := rt.Execute(d); err != nil || !cont {
			t.Fatalf("step %d: cont=%v err=%v", step, cont, err)
		}
	}
	// Step 2 fell back in situ; steps 3+ are forced onto in situ by the
	// quarantine. No step is missing from the union.
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(insitu.executed, want) {
		t.Fatalf("in situ executed %v, want %v\n%s", insitu.executed, want, route.FormatDecisions(r.Decisions()))
	}
	if want := []int{0, 1}; !reflect.DeepEqual(intransit.recordingAnalysis.executed, want) {
		t.Fatalf("in transit executed %v, want %v", intransit.recordingAnalysis.executed, want)
	}
	var forced *route.Decision
	for i := range r.Decisions() {
		if d := r.Decisions()[i]; d.Switched {
			forced = &r.Decisions()[i]
		}
	}
	if forced == nil || !forced.Forced || forced.Step != 3 || forced.Reason != "failed" {
		t.Fatalf("expected forced failover at step 3, got %+v\n%s", forced, route.FormatDecisions(r.Decisions()))
	}
}

func TestRoutedErrorsWhenFallbackMissing(t *testing.T) {
	prior := [route.NumBackends]route.Estimate{route.InTransit: {Seconds: 0.1}}
	r := route.New(route.Config{Eligible: []route.Backend{route.InTransit}, Start: route.InTransit}, prior)
	rt := NewRouted(nil, r, scripted(0, prior))
	rt.SetRoute(route.InTransit, &failingAnalysis{failAt: map[int]bool{0: true}})
	d := newFakeAdaptor()
	d.SetStep(0, 0)
	if _, err := rt.Execute(d); err == nil {
		t.Fatal("expected an error with no fallback route")
	}
}

func TestRoutedFinalizesEveryRoute(t *testing.T) {
	// An in transit writer must deliver its EOS even if the router never
	// picked it, so Finalize must reach every registered route.
	prior := [route.NumBackends]route.Estimate{route.InSitu: {Seconds: 0.1}}
	r := route.New(route.Config{Eligible: []route.Backend{route.InSitu}}, prior)
	rt := NewRouted(nil, r, scripted(0, prior))
	all := [route.NumBackends]*recordingAnalysis{{}, {}, {}}
	for b := route.Backend(0); b < route.NumBackends; b++ {
		rt.SetRoute(b, all[b])
	}
	if err := rt.Finalize(); err != nil {
		t.Fatal(err)
	}
	for b, a := range all {
		if !a.finalized {
			t.Errorf("route %v not finalized", route.Backend(b))
		}
	}
}

// TestRoutedMultiRankConsistency runs the routed dispatcher across 4 ranks:
// rank 0 decides and broadcasts, so every rank must execute the identical
// backend sequence even when only rank 0 sees the scripted byte costs — and
// a mid-run cost shift must carry all ranks through the same forced switch.
func TestRoutedMultiRankConsistency(t *testing.T) {
	const ranks, steps, shift = 4, 10, 5
	phaseA := [route.NumBackends]route.Estimate{
		route.InSitu:    {Seconds: 0.5},
		route.InTransit: {Seconds: 1.0, WireBytes: 1 << 20},
	}
	phaseB := [route.NumBackends]route.Estimate{
		route.InSitu:    {Seconds: 3.0},
		route.InTransit: {Seconds: 1.0, WireBytes: 1 << 20},
	}
	costs := func(step int, b route.Backend) route.Estimate {
		if step < shift {
			return phaseA[b]
		}
		return phaseB[b]
	}

	var mu sync.Mutex
	ran := make([][]string, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var r *route.Router
		if c.Rank() == 0 {
			r = route.New(route.Config{
				Budget:   route.Budget{MaxStepSeconds: 2.0},
				Eligible: []route.Backend{route.InSitu, route.InTransit},
				Start:    route.InSitu,
				Alpha:    1, // track the shift immediately
			}, phaseA)
		}
		rt := NewRouted(c, r, &routetest.ScriptMeter{Rank: c.Rank(), Costs: costs})
		record := func(b route.Backend) AnalysisAdaptor {
			return funcAnalysis(func(d DataAdaptor) (bool, error) {
				mu.Lock()
				ran[c.Rank()] = append(ran[c.Rank()], fmt.Sprintf("%d:%v", d.TimeStep(), b))
				mu.Unlock()
				return true, nil
			})
		}
		rt.SetRoute(route.InSitu, record(route.InSitu))
		rt.SetRoute(route.InTransit, record(route.InTransit))

		d := newFakeAdaptor()
		for step := 0; step < steps; step++ {
			d.SetStep(step, 0)
			if cont, err := rt.Execute(d); err != nil || !cont {
				return fmt.Errorf("rank %d step %d: cont=%v err=%v", c.Rank(), step, cont, err)
			}
		}
		if c.Rank() == 0 {
			if r.Switches() < 1 {
				return fmt.Errorf("no switch after the shift:\n%s", route.FormatDecisions(r.Decisions()))
			}
			if ds := r.Decisions(); ds[len(ds)-1].Backend != route.InTransit {
				return fmt.Errorf("final backend %v, want intransit", ds[len(ds)-1].Backend)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk := 1; rk < ranks; rk++ {
		if !reflect.DeepEqual(ran[rk], ran[0]) {
			t.Fatalf("rank %d diverged from rank 0:\nrank0: %v\nrank%d: %v", rk, ran[0], rk, ran[rk])
		}
	}
}

// funcAnalysis adapts a function to AnalysisAdaptor.
type funcAnalysis func(DataAdaptor) (bool, error)

func (f funcAnalysis) Execute(d DataAdaptor) (bool, error) { return f(d) }
func (f funcAnalysis) Finalize() error                     { return nil }

// reportingAnalysis is a recordingAnalysis that reports what it ran.
type reportingAnalysis struct {
	recordingAnalysis
	tag string
}

func (r *reportingAnalysis) Report(w io.Writer) { fmt.Fprintf(w, "%s ran %v\n", r.tag, r.executed) }

// TestRoutedFromXML: a routed analysis is a configuration element whose
// routes are nested elements built through the same registry — the eligible
// set is the routes present, the first listed starts, a route that reports
// does so under the decision log — and every way of misplacing a route is an
// error naming the element.
func TestRoutedFromXML(t *testing.T) {
	RegisterFactory("test-route", func(attrs *Attrs, b *Bridge) (AnalysisAdaptor, error) {
		return &reportingAnalysis{tag: attrs.String("tag", "")}, nil
	})
	RegisterFactory("test-silent", func(*Attrs, *Bridge) (AnalysisAdaptor, error) { return &recordingAnalysis{}, nil })

	b := NewBridge(nil, nil, nil)
	err := ConfigureFromXML(b, []byte(`<sensei>
		<analysis type="routed" budget-step="0.5" budget-storage="4096">
			<analysis route="posthoc" type="test-route" tag="replayed" name="ph"/>
			<analysis route="insitu" type="test-silent"/>
			<analysis route="intransit" type="nothing-registered" enabled="0"/>
		</analysis>
	</sensei>`))
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := b.analyses[0].a.(*Routed)
	if !ok || b.AnalysisCount() != 1 {
		t.Fatalf("configured %d analyses, the first a %T", b.AnalysisCount(), b.analyses[0].a)
	}
	if got, want := rt.router.Budget(), (route.Budget{MaxStepSeconds: 0.5, MaxStorageBytes: 4096}); got != want {
		t.Errorf("budget %+v, want %+v", got, want)
	}
	if rt.routes[route.InTransit] != nil || rt.routes[route.InSitu] == nil || rt.routes[route.PostHoc] == nil {
		t.Error("route table does not match the enabled nested elements")
	}
	d := newFakeAdaptor()
	d.SetStep(0, 0)
	if _, err := b.Execute(d); err != nil {
		t.Fatal(err)
	}
	if got := rt.router.Decisions()[0].Backend; got != route.PostHoc {
		t.Errorf("starts on %v, want the first listed (posthoc)", got)
	}
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	b.Report(&out)
	if got := out.String(); !strings.HasPrefix(got, "route: decision log\nstep=0 ") || !strings.HasSuffix(got, "\nreplayed ran [0]\n") {
		t.Errorf("report %q: want the decision log, then the post hoc route's own report of step 0", got)
	}

	for doc, want := range map[string]string{
		`<analysis type="test-route" route="insitu"/>`:                                                                                 `element 0 (test-route): attribute "route": not an attribute`,
		`<analysis type="routed"><analysis type="test-route"/></analysis>`:                                                             `element 0 (routed): nested element 0 (test-route): attribute "route": route: unknown backend ""`,
		`<analysis type="routed"><analysis route="sideways" type="test-route"/></analysis>`:                                            `nested element 0 (test-route): attribute "route": route: unknown backend "sideways"`,
		`<analysis type="routed"><analysis route="insitu" type="test-route"/><analysis route="insitu" type="test-silent"/></analysis>`: `element 0 (routed): nested element 1 (test-silent): attribute "route": a second element on route insitu`,
		`<analysis type="test-route"><analysis route="insitu" type="test-silent"/></analysis>`:                                         `element 0 (test-route): 1 nested analysis elements: this analysis type takes none`,
		`<analysis type="routed" budget-step="0.5"/>`:                                                                                  `element 0 (routed): no nested analysis elements to route between`,
		`<analysis type="routed"><analysis route="insitu" type="nope"/></analysis>`:                                                    `element 0 (routed): nested element 0: unknown analysis type "nope"`,
		`<analysis type="routed"><analysis route="insitu" type="test-route" tga="x"/></analysis>`:                                      `element 0 (routed): nested element 0 (test-route): attribute "tga"`,
		`<analysis type="routed" budget-wire="-1"><analysis route="insitu" type="test-route"/></analysis>`:                             `element 0 (routed): attribute "budget-wire"`,
		`<analysis type="routed" eligible="insitu"><analysis route="insitu" type="test-route"/></analysis>`:                            `element 0 (routed): attribute "eligible": not an attribute`,
	} {
		err := ConfigureFromXML(NewBridge(nil, nil, nil), []byte("<sensei>"+doc+"</sensei>"))
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: err=%v, want one line containing %q", doc, err, want)
		}
	}
}
