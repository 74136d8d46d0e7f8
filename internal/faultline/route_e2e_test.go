// Metamorphic route-independence: a routed oscillator -> histogram pipeline
// whose router tours all three backends must produce analysis output
// bit-identical to the fault-free static in situ baseline — under any
// tolerated fault schedule — and the router's decision log must replay
// identically on every run (decisions key on step counters and scripted
// costs, never wall time). Failures print the decision log alongside the
// GOSENSEI_FAULT_SCHEDULE repro token.
package faultline_test

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gosensei/internal/adios"
	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/faultline"
	"gosensei/internal/grid"
	"gosensei/internal/iosim"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/route"
	"gosensei/internal/route/routetest"
)

const (
	routeWriters = 2
	routeSteps   = 8
	routeBins    = 8
)

func routeConfig() oscillator.Config {
	return oscillator.Config{
		GlobalCells: [3]int{8, 8, 8},
		DT:          0.1,
		Steps:       routeSteps,
		Oscillators: oscillator.DefaultDeck(8),
	}
}

// routeTourCosts scripts the router's cost stream so it deterministically
// tours all three backends: in situ is cheapest for steps 0-1, balloons at
// step 2 pushing the router onto in transit at step 3, which in turn
// balloons at step 5 pushing it post hoc at step 6. Pure in (step, backend):
// the decision log is identical on every run, faults or not.
func routeTourCosts(step int, b route.Backend) route.Estimate {
	cheap, dear := route.Estimate{Seconds: 1.0}, route.Estimate{Seconds: 5.0}
	switch b {
	case route.InSitu:
		if step < 2 {
			return cheap
		}
		return dear
	case route.InTransit:
		if step < 5 {
			return cheap
		}
		return dear
	default: // post hoc
		return cheap
	}
}

// routeRouter builds the rank-0 router for the tour: immediate posterior
// tracking (Alpha 1), a weak prior, a one-step dwell, and a thin margin, so
// the scripted cost shifts translate into switches within one step of
// detection.
func routeRouter() *route.Router {
	prior := [route.NumBackends]route.Estimate{
		route.InSitu:    {Seconds: 1.0},
		route.InTransit: {Seconds: 1.0},
		route.PostHoc:   {Seconds: 1.0},
	}
	return route.New(route.Config{
		Eligible:     []route.Backend{route.InSitu, route.InTransit, route.PostHoc},
		Start:        route.InSitu,
		MinDwell:     1,
		SwitchMargin: 0.1,
		Alpha:        1,
		PriorWeight:  1,
	}, prior)
}

// seqAnalysis runs a fixed sequence of adaptors as one (histogram, then its
// recorder, on the in situ route).
type seqAnalysis []core.AnalysisAdaptor

func (s seqAnalysis) Execute(d core.DataAdaptor) (bool, error) {
	for _, a := range s {
		if cont, err := a.Execute(d); err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

func (s seqAnalysis) Finalize() error {
	var firstErr error
	for _, a := range s {
		if err := a.Finalize(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// routedRun drives the routed pipeline under a fault schedule: oscillator
// writers whose bridge holds one core.Routed analysis with all three routes
// populated (in situ histogram, adios/FlexPath writer, iosim histogram
// replay), plus the staging endpoint. It returns the canonical analysis
// output (all steps' histogram lines, in step order, wherever they were
// computed) and the router's decision log.
func routedRun(dir string, sched *faultline.Schedule) (string, string, error) {
	run := sched.Start()

	cfg := routeConfig()
	fab, err := adios.ListenFabric("loopback", fmt.Sprintf("faultline/%d", fabricSeq.Add(1)), routeWriters, 1, e2eDepth)
	if err != nil {
		return "", "", err
	}
	if fp := run.FabricPlan(); fp != nil {
		fab.SetConnWrapper(fp.WrapConn)
	}
	writerOpts := []mpi.Option{mpi.WithRecvTimeout(60 * time.Second)}
	if p := run.NewMPIPlan(); p != nil {
		writerOpts = append(writerOpts, mpi.WithFaults(p))
	}

	var (
		writerLines []string // in situ + post hoc lines, rank 0 only
		decisions   string
		endRec      = &histRecorder{}
	)
	var wg sync.WaitGroup
	var writerErr, endpointErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = mpi.Run(routeWriters, func(c *mpi.Comm) error {
			s, err := oscillator.NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			var r *route.Router
			if c.Rank() == 0 {
				r = routeRouter()
			}
			rt := core.NewRouted(c, r, &routetest.ScriptMeter{Rank: c.Rank(), Costs: routeTourCosts})

			h := analysis.NewHistogram(c, "data", grid.CellData, routeBins)
			insituRec := &histRecorder{h: h}
			rt.SetRoute(route.InSitu, seqAnalysis{h, insituRec})
			rt.SetRoute(route.InTransit, adios.NewWriter(c, &adios.FlexPathTransport{Fabric: fab}))
			replay := iosim.NewHistogramReplay(c, dir, "data", grid.CellData, routeBins)
			replay.Faults = run.IOPlan()
			rt.SetRoute(route.PostHoc, replay)

			b := core.NewBridge(c, nil, nil)
			b.AddAnalysis("routed", rt)
			d := oscillator.NewDataAdaptor(s)
			for i := 0; i < cfg.Steps; i++ {
				if err := s.Step(); err != nil {
					return err
				}
				d.Update()
				if _, err := b.Execute(d); err != nil {
					return err
				}
			}
			if err := b.Finalize(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				writerLines = append(writerLines, insituRec.lines...)
				for _, res := range replay.Results {
					writerLines = append(writerLines, renderHist(res))
				}
				decisions = route.FormatDecisions(r.Decisions())
			}
			return nil
		}, writerOpts...)
	}()
	go func() {
		defer wg.Done()
		_, endpointErr = adios.RunEndpoint(fab, func(b *core.Bridge) error {
			h := analysis.NewHistogram(b.Comm, "data", grid.CellData, routeBins)
			endRec.h = h
			b.AddAnalysis("histogram", h)
			b.AddAnalysis("record", endRec)
			return nil
		}, mpi.WithRecvTimeout(60*time.Second))
	}()
	wg.Wait()
	_ = fab.Close()
	if writerErr != nil {
		return "", decisions, fmt.Errorf("writer group: %w", writerErr)
	}
	if endpointErr != nil {
		return "", decisions, fmt.Errorf("endpoint group: %w", endpointErr)
	}

	lines := append(append([]string{}, writerLines...), endRec.lines...)
	sort.Slice(lines, func(i, j int) bool { return lineStep(lines[i]) < lineStep(lines[j]) })
	return strings.Join(lines, "\n"), decisions, nil
}

// lineStep parses the step index from a renderHist line.
func lineStep(line string) int {
	var step int
	fmt.Sscanf(line, "step=%d", &step)
	return step
}

// insituBaseline runs the fault-free static in situ pipeline: every step's
// histogram computed inside the writers' bridge.
func insituBaseline() (string, error) {
	cfg := routeConfig()
	rec := &histRecorder{}
	err := mpi.Run(routeWriters, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		h := analysis.NewHistogram(c, "data", grid.CellData, routeBins)
		if c.Rank() == 0 {
			rec.h = h
		}
		b := core.NewBridge(c, nil, nil)
		b.AddAnalysis("histogram", h)
		if c.Rank() == 0 {
			b.AddAnalysis("record", rec)
		}
		d := oscillator.NewDataAdaptor(s)
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			d.Update()
			if _, err := b.Execute(d); err != nil {
				return err
			}
		}
		return b.Finalize()
	}, mpi.WithRecvTimeout(60*time.Second))
	if err != nil {
		return "", err
	}
	return strings.Join(rec.lines, "\n"), nil
}

// routeSchedules mirrors e2eSchedules with the issue's count of 5 generated
// schedules (GOSENSEI_FAULT_SCHEDULE still replays a single one).
func routeSchedules(t *testing.T, m faultline.Menu) []*faultline.Schedule {
	t.Helper()
	if spec := os.Getenv("GOSENSEI_FAULT_SCHEDULE"); spec != "" {
		s, err := faultline.Parse(spec)
		if err != nil {
			t.Fatalf("GOSENSEI_FAULT_SCHEDULE: %v", err)
		}
		return []*faultline.Schedule{s}
	}
	out := make([]*faultline.Schedule, 5)
	for i := range out {
		out[i] = faultline.Generate(int64(i+1), m)
	}
	return out
}

// TestMetamorphicRouteIndependence is the route-independence property: the
// routed pipeline's analysis output — with the router touring in situ, in
// transit, and post hoc mid-run — is bit-identical to the fault-free static
// in situ baseline, under the fault-free schedule and under 5 seeded
// tolerated fault schedules spanning mpi, fabric, and io faults. The
// decision log must also be identical across every run: routing is keyed on
// step counters and scripted costs, so faults may delay steps but can never
// change where they were routed.
func TestMetamorphicRouteIndependence(t *testing.T) {
	baseline, err := insituBaseline()
	if err != nil {
		t.Fatalf("static in situ baseline: %v", err)
	}
	if got := strings.Count(baseline, "step="); got != routeSteps {
		t.Fatalf("baseline recorded %d steps, want %d:\n%s", got, routeSteps, baseline)
	}

	cleanOut, cleanDec, err := routedRun(t.TempDir(), &faultline.Schedule{Seed: 0})
	if err != nil {
		t.Fatalf("fault-free routed pipeline: %v\ndecision log:\n%s", err, cleanDec)
	}
	if cleanOut != baseline {
		t.Fatalf("routed output diverged from static in situ baseline\nbaseline:\n%s\nrouted:\n%s\ndecision log:\n%s",
			baseline, cleanOut, cleanDec)
	}
	// The tour must actually have toured: all three backends appear.
	for _, b := range []route.Backend{route.InSitu, route.InTransit, route.PostHoc} {
		if !strings.Contains(cleanDec, "route="+b.String()) {
			t.Fatalf("decision log never routed %v:\n%s", b, cleanDec)
		}
	}

	menu := faultline.Menu{MPI: true, Fabric: true, IO: true, Ranks: routeWriters, Steps: routeSteps}
	for _, sched := range routeSchedules(t, menu) {
		sched := sched
		t.Run(fmt.Sprintf("seed=%d", sched.Seed), func(t *testing.T) {
			out, dec, err := routedRun(t.TempDir(), sched)
			if err != nil {
				faultf(t, sched, "routed pipeline failed under tolerated faults: %v\ndecision log:\n%s", err, dec)
			}
			if out != baseline {
				faultf(t, sched, "routed output diverged from baseline\nbaseline:\n%s\nfaulty:\n%s\ndecision log:\n%s",
					baseline, out, dec)
			}
			if dec != cleanDec {
				faultf(t, sched, "decision log not schedule-replayable\nclean:\n%s\nfaulty:\n%s", cleanDec, dec)
			}
		})
	}
}
