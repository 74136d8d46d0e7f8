// Package core implements the paper's primary contribution: the SENSEI
// generic data interface.
//
// The interface decouples three roles so each can vary independently:
//
//   - The simulation implements a DataAdaptor that lazily maps its native
//     data structures onto the shared data model (packages grid and array),
//     using zero-copy wrapping wherever layouts permit.
//   - Analyses and in situ infrastructures implement AnalysisAdaptor and pull
//     data through the DataAdaptor, never from the simulation directly.
//   - The Bridge is the thin glue the simulation calls once per time step; it
//     hands the data adaptor to every registered analysis adaptor and keeps
//     the timing/memory instrumentation the paper's experiments report.
//
// Because infrastructures (Catalyst, Libsim, ADIOS, GLEAN) are themselves
// just AnalysisAdaptors, a simulation instrumented once can use any of them —
// the paper's "write once, use anywhere" property — and an analysis written
// against DataAdaptor runs unmodified in situ, in transit, or post hoc.
package core

import (
	"fmt"
	"io"

	"gosensei/internal/faultline"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

// DataAdaptor is the simulation-side half of the SENSEI interface. The
// adaptor is expected to be lazy: Mesh and AddArray should construct or wrap
// data only when called, so that an instrumented simulation with no enabled
// analyses pays (almost) nothing.
type DataAdaptor interface {
	// Mesh returns the simulation's current mesh. With structureOnly set the
	// adaptor may omit point coordinates and connectivity, returning only
	// metadata-bearing structure (used by analyses that only need extents).
	Mesh(structureOnly bool) (grid.Dataset, error)
	// AddArray attaches the named simulation array to the mesh, wrapping
	// simulation memory zero-copy when the layout allows.
	AddArray(mesh grid.Dataset, assoc grid.Association, name string) error
	// ArrayNames lists the arrays the simulation can provide.
	ArrayNames(assoc grid.Association) ([]string, error)
	// TimeStep returns the current simulation step index.
	TimeStep() int
	// Time returns the current simulation time.
	Time() float64
	// ReleaseData drops references to the simulation's per-step data; it is
	// called by the bridge after all analyses ran.
	ReleaseData() error
}

// AnalysisAdaptor is the analysis-side half of the interface. Execute is
// called once per bridged time step; the return value reports whether the
// simulation should continue (false requests an orderly stop, e.g. from an
// interactive steering endpoint).
type AnalysisAdaptor interface {
	Execute(d DataAdaptor) (bool, error)
	Finalize() error
}

// Reporter is the optional third method of an analysis adaptor: after
// Finalize, write what the run computed. What it writes is a function of the
// data and the configuration alone — no timings — so that a run's report is
// the same bytes on goroutine ranks, loopback pipes and TCP worlds.
type Reporter interface {
	Report(w io.Writer)
}

// BaseDataAdaptor carries the step/time bookkeeping every data adaptor
// needs; concrete adaptors embed it.
type BaseDataAdaptor struct {
	Step int
	T    float64
}

// SetStep records the current step and time; the simulation's bridge calls
// this before Execute.
func (b *BaseDataAdaptor) SetStep(step int, t float64) { b.Step = step; b.T = t }

// TimeStep implements part of DataAdaptor.
func (b *BaseDataAdaptor) TimeStep() int { return b.Step }

// Time implements part of DataAdaptor.
func (b *BaseDataAdaptor) Time() float64 { return b.T }

// namedAnalysis pairs an adaptor with the label used in timing events.
type namedAnalysis struct {
	name string
	a    AnalysisAdaptor
}

// Bridge assembles the in situ workflow: one data adaptor per simulation,
// any number of analysis adaptors. It is the only object the simulation's
// time-stepping loop touches.
type Bridge struct {
	Comm     *mpi.Comm
	Registry *metrics.Registry
	Memory   *metrics.Tracker
	// Publish, when set before the bridge is configured, is the live frame
	// sink the configured image-producing analyses publish encoded frames to.
	Publish func(step, w, h int, png []byte)
	// Faults, when set before the bridge is configured, is the run's fault
	// schedule: the configured analyses that write block files or dial a
	// staging wire take its io and fabric plans. Nil injects nothing.
	Faults *faultline.Run

	analyses  []namedAnalysis
	execCount int
	stopped   bool
}

// NewBridge creates a bridge for one rank. registry and memory may be nil,
// in which case fresh instances are created.
func NewBridge(comm *mpi.Comm, registry *metrics.Registry, memory *metrics.Tracker) *Bridge {
	if memory == nil {
		memory = metrics.NewTracker()
	}
	return &Bridge{Comm: comm, Registry: metrics.OrNew(registry, comm.Rank()), Memory: memory}
}

// AddAnalysis registers an analysis adaptor under a timing label.
func (b *Bridge) AddAnalysis(name string, a AnalysisAdaptor) {
	b.analyses = append(b.analyses, namedAnalysis{name, a})
}

// AnalysisCount returns the number of registered analyses.
func (b *Bridge) AnalysisCount() int { return len(b.analyses) }

// Execute passes the current simulation state to every registered analysis.
// Per-analysis wall time is logged as "analysis::<name>"; the total for the
// step as "sensei::execute". It returns false when any analysis requests a
// stop.
func (b *Bridge) Execute(d DataAdaptor) (bool, error) {
	step := d.TimeStep()
	total := b.Registry.Timer("sensei::execute")
	total.Start()
	cont := true
	var firstErr error
	for _, na := range b.analyses {
		var (
			ok  bool
			err error
		)
		b.Registry.Time("analysis::"+na.name, step, func() {
			ok, err = na.a.Execute(d)
		})
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("analysis %q at step %d: %w", na.name, step, err)
		}
		if !ok {
			cont = false
		}
	}
	d1 := total.Stop()
	b.Registry.Log("sensei::execute-step", step, d1.Seconds())
	b.execCount++
	if !cont {
		b.stopped = true
	}
	// A step an analysis failed on is not released: a staged step stays
	// unacknowledged, and its writer retransmits it to a restarted endpoint.
	if firstErr != nil {
		return false, firstErr
	}
	if err := d.ReleaseData(); err != nil {
		return false, fmt.Errorf("release data at step %d: %w", step, err)
	}
	return cont, nil
}

// Finalize finalizes every analysis (in registration order), logging the
// wall time as "sensei::finalize".
func (b *Bridge) Finalize() error {
	var firstErr error
	b.Registry.Time("sensei::finalize", b.execCount, func() {
		for _, na := range b.analyses {
			if err := na.a.Finalize(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("finalize %q: %w", na.name, err)
			}
		}
	})
	return firstErr
}

// Report writes, on rank 0 and after Finalize, the results of every analysis
// that reports, in registration order; other ranks write nothing.
func (b *Bridge) Report(w io.Writer) {
	if b.Comm.Rank() != 0 {
		return
	}
	for _, na := range b.analyses {
		if r, ok := na.a.(Reporter); ok {
			r.Report(w)
		}
	}
}

// FetchArray is a convenience for analyses: it obtains the mesh and attaches
// the named array, returning both. Most concrete analyses start with this.
func FetchArray(d DataAdaptor, assoc grid.Association, name string) (grid.Dataset, error) {
	mesh, err := d.Mesh(false)
	if err != nil {
		return nil, fmt.Errorf("fetch mesh: %w", err)
	}
	if err := d.AddArray(mesh, assoc, name); err != nil {
		return nil, fmt.Errorf("fetch array %q: %w", name, err)
	}
	return mesh, nil
}

// FetchAll obtains the mesh with every array the simulation offers attached,
// point data then cell data: what a writer fetches so that its output is
// self-describing.
func FetchAll(d DataAdaptor) (grid.Dataset, error) {
	mesh, err := d.Mesh(false)
	if err != nil {
		return nil, fmt.Errorf("fetch mesh: %w", err)
	}
	for _, assoc := range []grid.Association{grid.PointData, grid.CellData} {
		names, err := d.ArrayNames(assoc)
		if err != nil {
			return nil, fmt.Errorf("list %s arrays: %w", assoc, err)
		}
		for _, n := range names {
			if err := d.AddArray(mesh, assoc, n); err != nil {
				return nil, fmt.Errorf("fetch %s array %q: %w", assoc, n, err)
			}
		}
	}
	return mesh, nil
}
