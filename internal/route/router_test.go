package route_test

import (
	"testing"

	"gosensei/internal/route"
	"gosensei/internal/route/routetest"
)

func TestBackendNames(t *testing.T) {
	for b := route.Backend(0); b < route.NumBackends; b++ {
		got, err := route.ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	if _, err := route.ParseBackend("carrier-pigeon"); err == nil {
		t.Fatalf("ParseBackend accepted junk")
	}
	if s := route.Backend(99).String(); s != "backend(99)" {
		t.Fatalf("out-of-range String = %q", s)
	}
}

func TestBudgetScoring(t *testing.T) {
	b := route.Budget{MaxStepSeconds: 1, MaxWireBytes: 100, MaxStorageBytes: 10}
	cases := []struct {
		name string
		e    route.Estimate
		viol int
		over float64
	}{
		{"within", route.Estimate{Seconds: 1, WireBytes: 100, StorageBytes: 10}, 0, 0},
		{"latency", route.Estimate{Seconds: 2}, 1, 1},
		{"wire", route.Estimate{WireBytes: 150}, 1, 0.5},
		{"all", route.Estimate{Seconds: 2, WireBytes: 200, StorageBytes: 20}, 3, 3},
		{"zero", route.Estimate{}, 0, 0},
	}
	for _, c := range cases {
		if got := b.Violations(c.e); got != c.viol {
			t.Errorf("%s: Violations = %d, want %d", c.name, got, c.viol)
		}
		if got := b.Overage(c.e); got != c.over {
			t.Errorf("%s: Overage = %g, want %g", c.name, got, c.over)
		}
		if got := b.Feasible(c.e); got != (c.viol == 0) {
			t.Errorf("%s: Feasible = %v", c.name, got)
		}
	}
	var unlimited route.Budget
	if !unlimited.Feasible(route.Estimate{Seconds: 1e9, WireBytes: 1 << 60}) {
		t.Fatalf("zero budget must be unlimited")
	}
}

func TestPredictBlendsPriorAndPosterior(t *testing.T) {
	prior := [route.NumBackends]route.Estimate{
		route.InSitu: {Seconds: 2},
	}
	r := route.New(route.Config{Eligible: []route.Backend{route.InSitu}, PriorWeight: 4, Alpha: 0.3}, prior)

	if got := r.Predict(route.InSitu); got != prior[route.InSitu] {
		t.Fatalf("unobserved Predict = %+v, want prior %+v", got, prior[route.InSitu])
	}
	r.Observe(0, route.InSitu, route.Estimate{Seconds: 1})
	// One observation: w = 4/5, pred = 0.8*2 + 0.2*1 = 1.8.
	if got := r.Predict(route.InSitu).Seconds; got != 0.8*2+0.2*1 {
		t.Fatalf("blended Predict = %g, want %g", got, 0.8*2+0.2*1)
	}
	// Posterior equal to prior is an exact fixed point.
	r2 := route.New(route.Config{Eligible: []route.Backend{route.InSitu}}, prior)
	for step := 0; step < 5; step++ {
		r2.Observe(step, route.InSitu, route.Estimate{Seconds: 2})
	}
	if got := r2.Predict(route.InSitu).Seconds; got != 2 {
		t.Fatalf("steady-cost Predict = %g, want exactly 2", got)
	}
}

// flat is shorthand for a constant per-backend cost table.
func flat(insitu, intransit, posthoc route.Estimate) [route.NumBackends]route.Estimate {
	return [route.NumBackends]route.Estimate{
		route.InSitu:    insitu,
		route.InTransit: intransit,
		route.PostHoc:   posthoc,
	}
}

// sec is an Estimate with only a latency cost.
func sec(s float64) route.Estimate { return route.Estimate{Seconds: s} }

// TestTransitions is the table-driven transition suite: every scripted trace
// pins the switch schedule (which steps, which backends, which reasons) of a
// fresh router, plus budget/fallback tallies. All traces are pure functions
// of the step counter, so each case is exactly reproducible.
func TestTransitions(t *testing.T) {
	two := []route.Backend{route.InSitu, route.InTransit}
	ip := []route.Backend{route.InSitu, route.PostHoc}

	type switchWant struct {
		step   int
		to     route.Backend
		forced bool
		reason string
	}
	cases := []struct {
		name       string
		cfg        route.Config
		prior      [route.NumBackends]route.Estimate
		trace      routetest.Trace
		wantSwitch []switchWant
		wantViol   int
		wantFall   int
		wantEnd    route.Backend
	}{
		{
			// The prior says posthoc is cheap; reality says it is 5x the
			// in situ cost. The blended prediction crosses the 20% margin
			// after one observation, but the dwell clock (started by the
			// first decision at step 0) holds the router until step 4.
			name:  "dwell expiry",
			cfg:   route.Config{Eligible: ip, Start: route.InSitu, MinDwell: 4, SwitchMargin: 0.2, PriorWeight: 4},
			prior: flat(sec(1.0), route.Estimate{}, sec(0.5)),
			trace: routetest.Trace{
				Steps: 8,
				Costs: routetest.FlatCosts(flat(sec(1.0), route.Estimate{}, sec(5.0))),
			},
			wantSwitch: []switchWant{{step: 4, to: route.InSitu, forced: false, reason: "cheapest"}},
			wantEnd:    route.InSitu,
		},
		{
			// The challenger is predicted 10% cheaper forever — inside the
			// 20% margin, so the router must never switch.
			name:  "sub-margin win ignored",
			cfg:   route.Config{Eligible: two, Start: route.InSitu, MinDwell: 2, SwitchMargin: 0.2},
			prior: flat(sec(1.0), sec(0.9), route.Estimate{}),
			trace: routetest.Trace{
				Steps: 12,
				Costs: routetest.FlatCosts(flat(sec(1.0), sec(0.9), route.Estimate{})),
			},
			wantSwitch: nil,
			wantEnd:    route.InSitu,
		},
		{
			// Workload shift at step 5: the in situ cost balloons past the
			// latency cap. The EWMA needs two violating observations before
			// the blended prediction crosses the cap, then the router must
			// switch immediately — MinDwell of 100 proves the switch is
			// forced, not voluntary.
			name:  "budget violation forces switch",
			cfg:   route.Config{Budget: route.Budget{MaxStepSeconds: 1.5}, Eligible: two, Start: route.InSitu, MinDwell: 100, SwitchMargin: 0.2, Alpha: 0.3, PriorWeight: 4},
			prior: flat(sec(1.0), sec(1.4), route.Estimate{}),
			trace: routetest.Trace{
				Steps: 12,
				Costs: routetest.PhasedCosts([]int{5},
					flat(sec(1.0), sec(1.4), route.Estimate{}),
					flat(sec(3.0), sec(1.4), route.Estimate{})),
			},
			wantSwitch: []switchWant{{step: 7, to: route.InTransit, forced: true, reason: "budget"}},
			wantViol:   2, // detection lag: steps 5 and 6 ran hot before the posterior caught up
			wantEnd:    route.InTransit,
		},
		{
			// The in transit endpoint dies for steps 3..5. Step 3's dispatch
			// fails and falls back in situ; step 4 is a forced switch off the
			// quarantined backend; the quarantine expires at step 7 and the
			// router probes its way back to the cheaper route.
			name:  "endpoint loss falls back and recovers",
			cfg:   route.Config{Eligible: two, Start: route.InSitu, MinDwell: 2, SwitchMargin: 0.2, ProbeInterval: 4, PriorWeight: 4},
			prior: flat(sec(1.0), sec(0.5), route.Estimate{}),
			trace: routetest.Trace{
				Steps: 12,
				Costs: routetest.FlatCosts(flat(sec(1.0), sec(0.5), route.Estimate{})),
				Down: func(step int, b route.Backend) bool {
					return b == route.InTransit && step >= 3 && step <= 5
				},
			},
			wantSwitch: []switchWant{
				{step: 4, to: route.InSitu, forced: true, reason: "failed"},
				{step: 7, to: route.InTransit, forced: false, reason: "cheapest"},
			},
			wantFall: 1,
			wantEnd:  route.InTransit,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := route.New(c.cfg, c.prior)
			res := routetest.Drive(r, c.trace)

			var switches []switchWant
			for _, d := range res.Decisions {
				if d.Switched {
					switches = append(switches, switchWant{step: d.Step, to: d.Backend, forced: d.Forced, reason: d.Reason})
				}
			}
			if len(switches) != len(c.wantSwitch) {
				t.Fatalf("switches = %+v, want %+v\ndecision log:\n%s", switches, c.wantSwitch, route.FormatDecisions(res.Decisions))
			}
			for i, w := range c.wantSwitch {
				if switches[i] != w {
					t.Errorf("switch[%d] = %+v, want %+v\ndecision log:\n%s", i, switches[i], w, route.FormatDecisions(res.Decisions))
				}
			}
			if res.Violations != c.wantViol {
				t.Errorf("violations = %d, want %d\n%s", res.Violations, c.wantViol, res.String())
			}
			if res.Fallbacks != c.wantFall {
				t.Errorf("fallbacks = %d, want %d\n%s", res.Fallbacks, c.wantFall, res.String())
			}
			if got := res.Decisions[len(res.Decisions)-1].Backend; got != c.wantEnd {
				t.Errorf("final backend = %v, want %v", got, c.wantEnd)
			}

			// Replayability: a fresh router on the same trace must emit a
			// bit-identical decision log.
			r2 := route.New(c.cfg, c.prior)
			res2 := routetest.Drive(r2, c.trace)
			if a, b := route.FormatDecisions(res.Decisions), route.FormatDecisions(res2.Decisions); a != b {
				t.Errorf("replay diverged:\nfirst:\n%s\nsecond:\n%s", a, b)
			}
		})
	}
}

// TestAdversarialOscillationDoesNotFlap scripts a trace where the cheapest
// backend alternates every step — the worst case for a naive greedy
// scheduler. The dwell window must cap the switch rate at one per MinDwell
// steps, and consecutive switches must be at least MinDwell apart.
func TestAdversarialOscillationDoesNotFlap(t *testing.T) {
	const steps, dwell = 40, 4
	cfg := route.Config{
		Eligible:     []route.Backend{route.InSitu, route.PostHoc},
		Start:        route.InSitu,
		MinDwell:     dwell,
		SwitchMargin: 0.2,
		Alpha:        0.5,
		PriorWeight:  1,
	}
	prior := flat(sec(1.0), route.Estimate{}, sec(1.0))
	tr := routetest.Trace{
		Steps: steps,
		Costs: func(step int, b route.Backend) route.Estimate {
			cheap := route.InSitu
			if step%2 == 1 {
				cheap = route.PostHoc
			}
			if b == cheap {
				return sec(0.2)
			}
			return sec(2.0)
		},
	}
	res := routetest.Drive(route.New(cfg, prior), tr)

	if max := steps/dwell + 1; res.Switches > max {
		t.Fatalf("flapped: %d switches over %d steps (max %d)\n%s",
			res.Switches, steps, max, route.FormatDecisions(res.Decisions))
	}
	ss := res.SwitchSteps()
	for i := 1; i < len(ss); i++ {
		if ss[i]-ss[i-1] < dwell {
			t.Fatalf("switches at steps %d and %d violate MinDwell=%d\n%s",
				ss[i-1], ss[i], dwell, route.FormatDecisions(res.Decisions))
		}
	}
}

// TestEqualCostsNeverSwitch: with identical predictions everywhere, ties
// break toward the incumbent, so the route must stay put.
func TestEqualCostsNeverSwitch(t *testing.T) {
	cfg := route.Config{Eligible: []route.Backend{route.InSitu, route.InTransit, route.PostHoc}, Start: route.InTransit}
	prior := flat(sec(1.0), sec(1.0), sec(1.0))
	tr := routetest.Trace{Steps: 20, Costs: routetest.FlatCosts(prior)}
	res := routetest.Drive(route.New(cfg, prior), tr)
	if res.Switches != 0 {
		t.Fatalf("equal costs switched %d times:\n%s", res.Switches, route.FormatDecisions(res.Decisions))
	}
	for _, b := range res.Executed() {
		if b != route.InTransit {
			t.Fatalf("left the starting backend:\n%s", res.String())
		}
	}
}

// TestNothingFeasibleRidesLeastOverage: when every backend busts the budget,
// the router parks on the least-overage one instead of flapping.
func TestNothingFeasibleRidesLeastOverage(t *testing.T) {
	cfg := route.Config{
		Budget:   route.Budget{MaxStepSeconds: 0.1},
		Eligible: []route.Backend{route.InSitu, route.PostHoc},
		Start:    route.InSitu,
	}
	prior := flat(sec(1.0), route.Estimate{}, sec(0.5))
	tr := routetest.Trace{Steps: 10, Costs: routetest.FlatCosts(prior)}
	res := routetest.Drive(route.New(cfg, prior), tr)
	// posthoc (0.5s) has the smaller overage; the router moves there once
	// and stays.
	if res.Switches > 1 {
		t.Fatalf("flapped under infeasible budget: %d switches\n%s", res.Switches, route.FormatDecisions(res.Decisions))
	}
	if got := res.Executed()[len(res.Outcomes)-1]; got != route.PostHoc {
		t.Fatalf("final backend = %v, want posthoc (least overage)\n%s", got, route.FormatDecisions(res.Decisions))
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	cfg := route.Config{}.Normalize()
	if len(cfg.Eligible) != 1 || cfg.Eligible[0] != route.InSitu {
		t.Errorf("default Eligible = %v", cfg.Eligible)
	}
	if cfg.MinDwell != 4 || cfg.SwitchMargin != 0.2 || cfg.PriorWeight != 4 || cfg.ProbeInterval != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestStartBackendMustBeEligible(t *testing.T) {
	r := route.New(route.Config{Eligible: []route.Backend{route.PostHoc}, Start: route.InTransit}, [route.NumBackends]route.Estimate{})
	if got := r.Decide(0).Backend; got != route.PostHoc {
		t.Fatalf("ineligible Start kept: %v", got)
	}
}
