package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"gosensei/internal/mpi"
	"gosensei/internal/route"
)

// storageCounter is implemented by a route adaptor that writes to storage
// (iosim.HistogramReplay): the cumulative bytes all ranks wrote, identical on
// every rank — the odometer WallMeter.Storage differences.
type storageCounter interface {
	StorageBytes() int64
}

// The routed analysis is configured like any other, its routes nested in it:
// one element per route, each built through the same registry. The eligible
// set is the routes present and the first listed starts. The router starts
// from the zero prior route.New documents ("assumed free until observed"):
// a configuration carries no machine model, so it learns every cost from the
// run itself.
func init() {
	RegisterFactory("routed", func(attrs *Attrs, bridge *Bridge) (AnalysisAdaptor, error) {
		cfg := route.Config{Budget: route.Budget{
			MaxStepSeconds:  attrs.Float("budget-step", 0),
			MaxWireBytes:    int64(attrs.Int("budget-wire", 0, 0)),
			MaxStorageBytes: int64(attrs.Int("budget-storage", 0, 0)),
		}}
		var routes [route.NumBackends]AnalysisAdaptor
		meter := &WallMeter{}
		err := attrs.Nested(bridge, func(child *Attrs, a AnalysisAdaptor) error {
			b, err := route.ParseBackend(child.String("route", ""))
			if err != nil {
				return fmt.Errorf("attribute %q: %w", "route", err)
			}
			if routes[b] != nil {
				return fmt.Errorf("attribute %q: a second element on route %v", "route", b)
			}
			routes[b] = a
			cfg.Eligible = append(cfg.Eligible, b)
			if sc, ok := a.(storageCounter); ok && b == route.PostHoc {
				meter.Storage = sc.StorageBytes
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(cfg.Eligible) == 0 {
			return nil, errors.New("no nested analysis elements to route between")
		}
		cfg.Start = cfg.Eligible[0]
		var router *route.Router
		if bridge.Comm.Rank() == 0 {
			router = route.New(cfg, [route.NumBackends]route.Estimate{})
		}
		rt := NewRouted(bridge.Comm, router, meter)
		for _, b := range cfg.Eligible {
			rt.SetRoute(b, routes[b])
		}
		return rt, nil
	})
}

// StepMeter measures the cost of one routed dispatch: it runs fn and returns
// the estimate the router should learn from. The production WallMeter reads
// the wall clock and byte odometers; tests substitute routetest.ScriptMeter
// so routing decisions are a pure function of the step counter.
type StepMeter interface {
	Measure(step int, b route.Backend, fn func() error) (route.Estimate, error)
}

// WallMeter is the production StepMeter: wall-clock latency plus deltas of
// the wire and storage odometers (either may be nil for "no such cost").
type WallMeter struct {
	// Wire returns the staging fabric's cumulative bytes-on-wire odometer
	// (fabric.Stats.DataBytesWire), nil if no fabric is in play.
	Wire func() int64
	// Storage returns the cumulative bytes written to storage, nil if none.
	Storage func() int64
}

// Measure implements StepMeter.
func (m *WallMeter) Measure(step int, b route.Backend, fn func() error) (route.Estimate, error) {
	var w0, s0 int64
	if m.Wire != nil {
		w0 = m.Wire()
	}
	if m.Storage != nil {
		s0 = m.Storage()
	}
	start := time.Now()
	err := fn()
	e := route.Estimate{Seconds: time.Since(start).Seconds()}
	if m.Wire != nil {
		e.WireBytes = m.Wire() - w0
	}
	if m.Storage != nil {
		e.StorageBytes = m.Storage() - s0
	}
	return e, err
}

// Routed is the router seam in the SENSEI interface: an AnalysisAdaptor that
// re-dispatches each bridged step to one of up to three route adaptors — the
// same analysis running in situ, in transit, or post hoc — as chosen by a
// route.Router. Because infrastructures are themselves AnalysisAdaptors, the
// routes are ordinary adaptors (e.g. the analysis itself, an adios.Writer,
// an iosim replay writer) and the simulation keeps calling one Bridge.
//
// Collective contract: every rank constructs a Routed with the same routes;
// rank 0 owns the Router and broadcasts each decision, so all ranks always
// dispatch the same backend (a rank-divergent route would deadlock the
// collectives inside the routes). Observed costs are agreed before they feed
// the router — latency is max-reduced (the step is as slow as its slowest
// rank), bytes ride the same max-reduce because they are counted on the
// odometer-owning rank — so the decision stream is identical no matter which
// rank's clock jitters.
type Routed struct {
	comm     *mpi.Comm
	router   *route.Router // non-nil on rank 0 only
	meter    StepMeter
	fallback route.Backend

	routes [route.NumBackends]AnalysisAdaptor
	// DecisionHook, when set on rank 0, observes each broadcast decision.
	DecisionHook func(route.Decision)
}

// NewRouted builds the routed dispatcher. router must be non-nil on rank 0
// and is ignored on other ranks; meter must be non-nil. comm may be nil for
// single-process use. The fallback backend (used when a dispatch fails) is
// InSitu.
func NewRouted(comm *mpi.Comm, router *route.Router, meter StepMeter) *Routed {
	rt := &Routed{comm: comm, router: router, meter: meter, fallback: route.InSitu}
	if (comm == nil || comm.Rank() == 0) && router == nil {
		panic("core: NewRouted needs a router on rank 0")
	}
	return rt
}

// SetRoute installs the adaptor dispatched when the router picks b.
func (rt *Routed) SetRoute(b route.Backend, a AnalysisAdaptor) {
	rt.routes[b] = a
}

func (rt *Routed) root() bool { return rt.comm == nil || rt.comm.Rank() == 0 }

// decide picks the step's backend on rank 0 and broadcasts it.
func (rt *Routed) decide(step int) (route.Backend, error) {
	var choice int64
	if rt.root() {
		d := rt.router.Decide(step)
		choice = int64(d.Backend)
		if rt.DecisionHook != nil {
			rt.DecisionHook(d)
		}
	}
	if rt.comm != nil && rt.comm.Size() > 1 {
		buf := []int64{choice}
		if err := mpi.Bcast(rt.comm, buf, 0); err != nil {
			return 0, fmt.Errorf("route: broadcast decision: %w", err)
		}
		choice = buf[0]
	}
	return route.Backend(choice), nil
}

// agree reconciles per-rank outcomes into one collective truth: the step's
// latency is the slowest rank's, its bytes are the sum over ranks, and error
// and stop flags are sticky across ranks.
func (rt *Routed) agree(e route.Estimate, failed, stop bool) (route.Estimate, bool, bool, error) {
	if rt.comm == nil || rt.comm.Size() <= 1 {
		return e, failed, stop, nil
	}
	send := []float64{e.Seconds, float64(e.WireBytes), float64(e.StorageBytes), 0, 0}
	if failed {
		send[3] = 1
	}
	if stop {
		send[4] = 1
	}
	// One max-reduce carries everything: bytes are counted only on the rank
	// that owns the odometer (the fabric and block writers count globally),
	// so max doubles as "the counting rank's value"; flags are 0/1.
	recv := make([]float64, len(send))
	if err := mpi.Allreduce(rt.comm, send, recv, mpi.OpMax); err != nil {
		return e, failed, stop, fmt.Errorf("route: agree step cost: %w", err)
	}
	out := route.Estimate{Seconds: recv[0], WireBytes: int64(recv[1]), StorageBytes: int64(recv[2])}
	return out, recv[3] != 0, recv[4] != 0, nil
}

// Execute implements AnalysisAdaptor: decide, dispatch, agree, learn.
func (rt *Routed) Execute(d DataAdaptor) (bool, error) {
	step := d.TimeStep()
	b, err := rt.decide(step)
	if err != nil {
		return false, err
	}
	executed := b
	cont := true
	runErr := func() error {
		a := rt.routes[b]
		if a == nil {
			return fmt.Errorf("route: no adaptor for backend %v", b)
		}
		var execErr error
		cont, execErr = a.Execute(d)
		return execErr
	}
	est, dispatchErr := rt.meter.Measure(step, b, runErr)

	est, failed, stopped, aerr := rt.agree(est, dispatchErr != nil, !cont)
	if aerr != nil {
		return false, aerr
	}

	if failed {
		// Graceful degradation: quarantine the route and redo the step on
		// the fallback so no step's analysis is lost. The fallback cost is
		// what the router learns for the fallback backend.
		if rt.root() {
			rt.router.ReportFailure(step, b)
		}
		if b != rt.fallback && rt.routes[rt.fallback] != nil {
			executed = rt.fallback
			cont = true
			fe, ferr := rt.meter.Measure(step, executed, func() error {
				var execErr error
				cont, execErr = rt.routes[executed].Execute(d)
				return execErr
			})
			fe, ffailed, fstopped, aerr2 := rt.agree(fe, ferr != nil, !cont)
			if aerr2 != nil {
				return false, aerr2
			}
			if ffailed {
				return false, fmt.Errorf("route: step %d failed on %v and fallback %v", step, b, executed)
			}
			est, stopped = fe, fstopped
		} else {
			return false, fmt.Errorf("route: step %d failed on %v with no fallback", step, b)
		}
	}

	if rt.root() {
		rt.router.Observe(step, executed, est)
	}
	return !stopped, nil
}

// Finalize implements AnalysisAdaptor: every registered route is finalized,
// executed or not — an in transit writer must still close its stream (EOS)
// even if the router never picked it.
func (rt *Routed) Finalize() error {
	var firstErr error
	for b := route.Backend(0); b < route.NumBackends; b++ {
		if rt.routes[b] == nil {
			continue
		}
		if err := rt.routes[b].Finalize(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("route: finalize %v: %w", b, err)
		}
	}
	return firstErr
}

// Report implements Reporter: the decision log, then every route that
// reports, in backend order.
func (rt *Routed) Report(w io.Writer) {
	if !rt.root() {
		return
	}
	fmt.Fprintf(w, "route: decision log\n%s\n", route.FormatDecisions(rt.router.Decisions()))
	for _, a := range rt.routes {
		if r, ok := a.(Reporter); ok {
			r.Report(w)
		}
	}
}
