// Package route is the per-step backend scheduler that operationalizes the
// SC16 paper's core question — "what does in situ cost, and when should you
// stage or go post hoc?" Instead of only *reporting* those costs (the
// experiment harnesses) or *predicting* them (internal/perfmodel), the
// router acts on them: every simulation step it scores the three dispatch
// routes the paper compares —
//
//   - in situ: the analysis runs inside the simulation's step loop
//     (catalyst/libsim-style), paying compute latency but no wire or disk;
//   - in transit: the step ships over the staging fabric to an analysis
//     endpoint (ADIOS/FlexPath-style), paying wire bytes to move compute
//     off the critical path;
//   - post hoc: the step is written to storage and analyzed by a replay
//     (VTK-file-style), paying storage bytes and read-back latency;
//
// against a declared budget, and dispatches the step to the cheapest
// feasible route. Estimates blend a perfmodel prior with EWMA-smoothed
// observations (internal/metrics.EWMA), so the router both starts sensible
// and adapts when the workload shifts mid-run.
//
// The package is a deterministic kernel (enforced by gosenseilint): it never
// reads a clock, never consults the global rand source, and keys every
// decision on the step counter plus explicitly injected observations — which
// is what makes router decisions replayable under a faultline schedule and
// scriptable by the routetest harness.
package route

import (
	"fmt"
	"strings"
)

// Backend identifies one dispatch route for an analysis step.
type Backend int

const (
	// InSitu runs the analysis inside the simulation's step loop.
	InSitu Backend = iota
	// InTransit ships the step over the staging fabric to an endpoint.
	InTransit
	// PostHoc writes the step to storage for replayed analysis.
	PostHoc
	// NumBackends bounds Backend values; useful for per-backend arrays.
	NumBackends
)

var backendNames = [NumBackends]string{"insitu", "intransit", "posthoc"}

// String returns the canonical lowercase name.
func (b Backend) String() string {
	if b < 0 || b >= NumBackends {
		return fmt.Sprintf("backend(%d)", int(b))
	}
	return backendNames[b]
}

// ParseBackend decodes a canonical backend name.
func ParseBackend(s string) (Backend, error) {
	for b, n := range backendNames {
		if s == n {
			return Backend(b), nil
		}
	}
	return 0, fmt.Errorf("route: unknown backend %q (want %s)", s, strings.Join(backendNames[:], ", "))
}

// Estimate is the cost of running one analysis step on one backend: the
// latency added to the simulation's critical path, the bytes that cross the
// staging wire, and the bytes that land on storage. Zero fields are free
// dimensions (in situ moves no bytes; in transit stores none).
type Estimate struct {
	// Seconds of step latency on the simulation's critical path.
	Seconds float64
	// WireBytes crossing the staging fabric for the step.
	WireBytes int64
	// StorageBytes written to disk for the step.
	StorageBytes int64
}

// Budget declares the per-step resource ceilings a route must respect. A
// zero field is an unlimited dimension.
type Budget struct {
	// MaxStepSeconds caps the analysis latency added to one step.
	MaxStepSeconds float64
	// MaxWireBytes caps the staging-fabric bytes of one step.
	MaxWireBytes int64
	// MaxStorageBytes caps the storage bytes of one step.
	MaxStorageBytes int64
}

// Violations counts the budget dimensions e exceeds (0 to 3).
func (b Budget) Violations(e Estimate) int {
	n := 0
	if b.MaxStepSeconds > 0 && e.Seconds > b.MaxStepSeconds {
		n++
	}
	if b.MaxWireBytes > 0 && e.WireBytes > b.MaxWireBytes {
		n++
	}
	if b.MaxStorageBytes > 0 && e.StorageBytes > b.MaxStorageBytes {
		n++
	}
	return n
}

// Feasible reports whether e fits inside every budgeted dimension.
func (b Budget) Feasible(e Estimate) bool { return b.Violations(e) == 0 }

// Overage is the normalized total by which e exceeds the budget: the sum
// over violated dimensions of (cost/cap - 1). Zero when feasible. The router
// minimizes this when no route is feasible at all.
func (b Budget) Overage(e Estimate) float64 {
	var v float64
	if b.MaxStepSeconds > 0 && e.Seconds > b.MaxStepSeconds {
		v += e.Seconds/b.MaxStepSeconds - 1
	}
	if b.MaxWireBytes > 0 && e.WireBytes > b.MaxWireBytes {
		v += float64(e.WireBytes)/float64(b.MaxWireBytes) - 1
	}
	if b.MaxStorageBytes > 0 && e.StorageBytes > b.MaxStorageBytes {
		v += float64(e.StorageBytes)/float64(b.MaxStorageBytes) - 1
	}
	return v
}

// Decision is one step's routing outcome, the unit of the decision log.
type Decision struct {
	// Step the decision routes.
	Step int
	// Backend chosen for the step.
	Backend Backend
	// Switched is set when Backend differs from the previous step's.
	Switched bool
	// Forced is set when the switch ignored the dwell clock: the current
	// backend predicted a budget violation or was reported failed.
	Forced bool
	// Reason is a short human-readable explanation ("dwell", "cheapest",
	// "budget", "failed", "probe", ...).
	Reason string
	// Predicted is the blended prior/posterior estimate per backend at
	// decision time (the scores the choice was made from).
	Predicted [NumBackends]Estimate
}

// String renders one decision-log line.
func (d Decision) String() string {
	mark := " "
	if d.Switched {
		mark = "*"
	}
	return fmt.Sprintf("step=%-4d route=%-9s%s %-8s insitu=%.3gs intransit=%.3gs/%dB posthoc=%.3gs/%dB",
		d.Step, d.Backend, mark, d.Reason,
		d.Predicted[InSitu].Seconds,
		d.Predicted[InTransit].Seconds, d.Predicted[InTransit].WireBytes,
		d.Predicted[PostHoc].Seconds, d.Predicted[PostHoc].StorageBytes)
}

// FormatDecisions renders a decision log, one line per decision.
func FormatDecisions(ds []Decision) string {
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}
