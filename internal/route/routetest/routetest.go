// Package routetest is the deterministic harness for the route scheduler:
// scripted cost traces and a fake-clock driver that walk a route.Router
// through synthetic workloads so every transition — dwell expiry, hysteresis
// margin, budget-forced switch, endpoint loss, recovery, flap storms — is
// pinned by table-driven tests. Nothing here reads a wall clock; costs are
// functions of (step, backend), so a trace replays bit-identically.
package routetest

import (
	"fmt"
	"strings"

	"gosensei/internal/route"
)

// Trace is a scripted workload: per-(step, backend) costs and outages.
type Trace struct {
	// Steps is the number of simulation steps to drive.
	Steps int
	// Costs returns the true cost of running step on b. It must be a pure
	// function of its arguments.
	Costs func(step int, b route.Backend) route.Estimate
	// Down reports whether b is unreachable at step (nil = never down).
	// Dispatching to a down backend costs nothing, fails, and falls back
	// to Fallback for the step.
	Down func(step int, b route.Backend) bool
	// Fallback is the backend a failed dispatch retries on (default InSitu).
	Fallback route.Backend
}

// StepOutcome records what actually happened on one driven step.
type StepOutcome struct {
	// Step index.
	Step int
	// Decided is the backend the router picked.
	Decided route.Backend
	// Executed is the backend that actually ran (differs from Decided when
	// the dispatch failed and fell back).
	Executed route.Backend
	// FellBack is set when Decided was down and Fallback ran instead.
	FellBack bool
	// Cost is the true cost paid (the executed backend's trace cost).
	Cost route.Estimate
	// Violations is how many budget dimensions Cost exceeded.
	Violations int
}

// Result summarizes a driven trace.
type Result struct {
	// Outcomes, one per step.
	Outcomes []StepOutcome
	// Decisions is the router's decision log for the run.
	Decisions []route.Decision
	// Switches is the router's switch count.
	Switches int
	// Fallbacks counts steps where the decided backend was down.
	Fallbacks int
	// Violations is the total budget-dimension violations over the run.
	Violations int
}

// Executed returns the executed-backend sequence, one entry per step.
func (r Result) Executed() []route.Backend {
	out := make([]route.Backend, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = o.Executed
	}
	return out
}

// SwitchSteps returns the steps at which the router switched backends.
func (r Result) SwitchSteps() []int {
	var out []int
	for _, d := range r.Decisions {
		if d.Switched {
			out = append(out, d.Step)
		}
	}
	return out
}

// String renders the outcome log, one line per step.
func (r Result) String() string {
	var b strings.Builder
	for _, o := range r.Outcomes {
		mark := " "
		if o.FellBack {
			mark = "!"
		}
		fmt.Fprintf(&b, "step=%-4d ran=%-9s%s cost=%.3gs/%dB/%dB viol=%d\n",
			o.Step, o.Executed, mark, o.Cost.Seconds, o.Cost.WireBytes, o.Cost.StorageBytes, o.Violations)
	}
	return b.String()
}

// Drive walks r through the trace: each step it asks the router to decide,
// executes (or fails over) against the scripted costs, feeds the observation
// back, and scores the true cost against the router's budget. The loop is
// the synchronous single-rank mirror of core.Routed's dispatch.
func Drive(r *route.Router, tr Trace) Result {
	budget := r.Budget()
	var res Result
	for step := 0; step < tr.Steps; step++ {
		d := r.Decide(step)
		o := StepOutcome{Step: step, Decided: d.Backend, Executed: d.Backend}
		if tr.Down != nil && tr.Down(step, d.Backend) {
			// Dispatch failed: quarantine the backend and fall back.
			r.ReportFailure(step, d.Backend)
			o.FellBack = true
			o.Executed = tr.Fallback
			res.Fallbacks++
		}
		o.Cost = tr.Costs(step, o.Executed)
		o.Violations = budget.Violations(o.Cost)
		r.Observe(step, o.Executed, o.Cost)
		res.Violations += o.Violations
		res.Outcomes = append(res.Outcomes, o)
	}
	res.Decisions = r.Decisions()
	res.Switches = r.Switches()
	return res
}

// FlatCosts builds a Costs function from constant per-backend estimates.
func FlatCosts(costs [route.NumBackends]route.Estimate) func(int, route.Backend) route.Estimate {
	return func(_ int, b route.Backend) route.Estimate { return costs[b] }
}

// PhasedCosts builds a Costs function that switches cost tables at given
// step boundaries: phases[i] applies while step < bounds[i]; the last phase
// applies forever. len(bounds) must be len(phases)-1.
func PhasedCosts(bounds []int, phases ...[route.NumBackends]route.Estimate) func(int, route.Backend) route.Estimate {
	if len(bounds) != len(phases)-1 {
		panic("routetest: PhasedCosts wants len(bounds) == len(phases)-1")
	}
	return func(step int, b route.Backend) route.Estimate {
		for i, bound := range bounds {
			if step < bound {
				return phases[i][b]
			}
		}
		return phases[len(phases)-1][b]
	}
}

// ScriptMeter is a scripted implementation of core.Routed's StepMeter seam:
// instead of timing fn against the wall clock and odometers, it runs fn and
// reports the trace cost for (step, backend). Every rank reports the same
// scripted latency and rank 0 reports the bytes (others zero), so the
// max-reduction core.Routed agrees costs with reproduces the scripted
// estimate exactly on every rank.
type ScriptMeter struct {
	// Costs is the scripted cost function (required).
	Costs func(step int, b route.Backend) route.Estimate
	// Rank of the caller in its communicator.
	Rank int
}

// Measure runs fn and returns the scripted estimate for (step, b).
func (m *ScriptMeter) Measure(step int, b route.Backend, fn func() error) (route.Estimate, error) {
	err := fn()
	e := m.Costs(step, b)
	if m.Rank != 0 {
		e.WireBytes = 0
		e.StorageBytes = 0
	}
	return e, err
}
