package main

import (
	"fmt"
	"runtime"
	"time"

	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

// The three simulation workloads share one rank loop. Every rank runs it;
// rank 0 holds the clock. On one P the ranks are serialised, so what the
// process CPU clock advances between two world synchronisations is the
// core time all ranks together spent in between — the only timing this box
// resolves.

const (
	simDT      = 0.05
	simRanks   = 2
	warmSteps  = 10
	heapEvery  = 10
	recvBudget = 20 * time.Second // bounds a rank blocked on a peer that failed
)

// Loop statuses agreed by the step-closing allreduce: every rank leaves the
// loop at the same step, whether on SIGINT or on one rank's error.
const (
	statusOK int64 = iota
	statusStop
	statusFailed
)

// runOpts sizes one pipeline lifetime.
type runOpts struct {
	ranks int // 1 for the serial reference
	warm  int // untimed leading steps
	steps int // timed steps
	// tr, when set, makes this the traced pass: public seams are wrapped and
	// every wrapped call is bracketed by world barriers.
	tr *traceSet
	// heap samples the live heap (forced GC, clock stopped) every
	// heapEvery-th timed step; base is the idle process's heap.
	heap bool
	base uint64
	// probes calls the workload's layer probes at the same cadence.
	probes bool
}

func (o *runOpts) total() int { return o.warm + o.steps }

// lifeOut is what rank 0 measured over one pipeline lifetime.
type lifeOut struct {
	// Per timed step, ns of process CPU time: the gated timings.
	stepNs, blockedNs, lagNs []int64
	// wallNs is the timed steps' wall time, for the ungated diagnostics.
	wallNs []int64
	// simEnd is when each step's simulation phase ended (CPU clock),
	// indexed by absolute step; consumers elsewhere measure lag from it.
	simEnd []int64

	mem0, mem1 memSnap
	cpu0, cpu1 int64 // CPU clock at the edges of the timed steps
	// traf0/traf1 are every rank's mpi odometers around the timed steps;
	// each rank writes its own slot.
	traf0, traf1 []mpi.Traffic
	heapPeak     uint64 // above base
	goroutines   int    // peak seen at the sample points
	ranAt        int64  // when rank 0's function started (clock ns)

	// Filled by the workload after the ranks have returned.
	bytesOut float64 // bytes leaving the simulation ranks per timed step
	checks   checks
	// obs holds per-layer observations of the traced pass, by metric name:
	// raw samples for _p50/_p10 metrics, one value per lifetime otherwise.
	obs map[string][]float64
}

func (l *lifeOut) observe(name string, v ...float64) {
	if l.obs == nil {
		l.obs = map[string][]float64{}
	}
	l.obs[name] = append(l.obs[name], v...)
}

// sample reads the whole-process gauges at a sample point, clock stopped:
// the live heap above the idle process's (a forced collection, so only
// where the pass asked for it) and the goroutine count.
func (l *lifeOut) sample(o *runOpts) {
	if o.heap {
		if h := liveHeap(); h > o.base {
			l.heapPeak = max(l.heapPeak, h-o.base)
		}
	}
	l.goroutines = max(l.goroutines, runtime.NumGoroutine())
}

func newLifeOut(o *runOpts) *lifeOut {
	return &lifeOut{
		stepNs:    make([]int64, 0, o.steps),
		blockedNs: make([]int64, 0, o.steps),
		lagNs:     make([]int64, 0, o.steps),
		wallNs:    make([]int64, 0, o.steps),
		simEnd:    make([]int64, o.total()+1),
		traf0:     make([]mpi.Traffic, o.ranks),
		traf1:     make([]mpi.Traffic, o.ranks),
	}
}

// simRank is one rank's share of a simulation pipeline.
type simRank struct {
	env    *env
	o      *runOpts
	clk    clock
	c      *mpi.Comm
	rec    *recorder // nil in the timed pass
	sim    *oscillator.Sim
	ad     *oscillator.DataAdaptor
	data   core.DataAdaptor
	reg    *metrics.Registry
	bridge *core.Bridge
	out    *lifeOut // shared by the ranks; rank 0 writes all but the per-rank slots
	root   bool     // rank 0 holds the clock
	// onTimed, when set, runs on rank 0 with the clock stopped where the
	// timed steps begin (true) and end (false): the place to snapshot an
	// odometer the workload keeps.
	onTimed func(begin bool)

	sbuf, rbuf [1]int64
}

// newSimRank builds the rank's simulation, data adaptor and bridge. out is
// shared; only rank 0 writes it.
func newSimRank(e *env, o *runOpts, clk clock, c *mpi.Comm, cells int, out *lifeOut) (*simRank, error) {
	r := &simRank{env: e, o: o, clk: clk, c: c, out: out, root: c.Rank() == 0}
	if r.root {
		out.ranAt = clk.now()
	}
	if o.tr != nil {
		r.rec = o.tr.recorder(c.Rank())
	}
	sim, err := oscillator.NewSim(c, oscillator.Config{
		GlobalCells: [3]int{cells, cells, cells},
		DT:          simDT,
		Steps:       o.total(),
		Oscillators: e.in.deckFor(cells),
		Threads:     1,
	}, nil)
	if err != nil {
		return nil, err
	}
	r.sim = sim
	r.ad = oscillator.NewDataAdaptor(sim)
	r.data = r.ad
	if r.rec != nil {
		r.data = &tracedData{inner: r.ad, rec: r.rec}
	}
	r.reg = metrics.NewRegistry(c.Rank())
	r.bridge = core.NewBridge(c, r.reg, nil)
	return r, nil
}

// add registers an analysis under its layer; the traced pass wraps it.
func (r *simRank) add(name, layer string, a core.AnalysisAdaptor) {
	if r.rec != nil {
		a = &tracedAnalysis{inner: a, name: layer + "." + name, layer: layer, c: r.c, rec: r.rec}
	}
	r.bridge.AddAnalysis(name, a)
}

// sync closes a step: a max-reduce to rank 0 and a broadcast back — the
// shape of mpi's Barrier, carrying the loop status so that stopping costs no
// extra collective. The shape matters on one P: the clock holder, rank 0,
// is the last to learn that everyone arrived and the first to run on, so it
// reads the clock before any rank has started the next phase. (A symmetric
// exchange lets whichever rank arrives last run straight into its next
// phase while rank 0 is still waiting for the core.)
func (r *simRank) sync(local int64) (int64, error) {
	r.sbuf[0] = local
	if err := mpi.Reduce(r.c, r.sbuf[:], r.rbuf[:], mpi.OpMax, 0); err != nil {
		return statusFailed, err
	}
	if err := mpi.Bcast(r.c, r.rbuf[:], 0); err != nil {
		return statusFailed, err
	}
	return r.rbuf[0], nil
}

// loop runs warm+steps steps. afterStep runs on every rank once a step is
// closed, clock stopped, with the 0-based step index; probe (traced pass
// only) runs on every rank at the heap-sample cadence.
func (r *simRank) loop(afterStep func(k int), probe func(k int) error) error {
	root := r.root
	var stepErr error
	for k := 0; k < r.o.total(); k++ {
		timed := k >= r.o.warm
		if k == r.o.warm {
			r.out.traf0[r.c.Rank()] = r.c.TrafficStats()
			if err := r.pause(func() { r.timedEdge(true) }); err != nil {
				return err
			}
		}
		var t0, t1, w0 int64
		var sStep, sSim, sExec int
		if r.rec != nil {
			r.rec.step = k
			sStep = r.rec.begin("step", layerRun)
			sSim = r.rec.begin("oscillator.step", "oscillator")
		}
		if root {
			t0, w0 = cpuNow(), r.clk.now()
		}
		if err := r.sim.Step(); err != nil && stepErr == nil {
			stepErr = err
		}
		if err := r.c.Barrier(); err != nil {
			return err
		}
		if r.rec != nil {
			r.rec.end(sSim)
			sExec = r.rec.begin("core.execute", "core")
		}
		if root {
			t1 = cpuNow()
			r.out.simEnd[k] = t1
		}
		r.ad.Update()
		if _, err := r.bridge.Execute(r.data); err != nil && stepErr == nil {
			stepErr = err
		}
		local := statusOK
		if stepErr != nil {
			local = statusFailed
		} else if r.env.stopped() {
			local = statusStop
		}
		status, err := r.sync(local)
		if err != nil {
			return err
		}
		if r.rec != nil {
			r.rec.end(sExec)
			r.rec.end(sStep)
		}
		if root && timed {
			t2 := cpuNow()
			r.out.stepNs = append(r.out.stepNs, t2-t0)
			r.out.blockedNs = append(r.out.blockedNs, t2-t1)
			// In situ the result is everyone's once the step is closed;
			// when rank 0's own Execute returns depends on how the
			// scheduler interleaved the ranks, not on the code.
			r.out.lagNs = append(r.out.lagNs, t2-t1)
			r.out.wallNs = append(r.out.wallNs, r.clk.now()-w0)
		}
		switch {
		case stepErr != nil:
			return stepErr
		case status == statusFailed:
			return fmt.Errorf("rank %d: a peer failed at step %d", r.c.Rank(), k)
		case status == statusStop:
			return errInterrupted
		}
		if afterStep != nil {
			afterStep(k)
		}
		n := k - r.o.warm + 1
		if timed && (n%heapEvery == 0 || n == r.o.steps) && (r.o.heap || r.o.probes) {
			var perr error
			if r.o.probes && probe != nil && n != r.o.steps {
				perr = probe(k)
			}
			if err := r.pause(func() { r.out.sample(r.o) }); err != nil {
				return err
			}
			if perr != nil {
				return perr
			}
		}
	}
	r.out.traf1[r.c.Rank()] = r.c.TrafficStats()
	return r.pause(func() { r.timedEdge(false) })
}

// timedEdge reads the whole-process odometers at an edge of the timed steps.
func (r *simRank) timedEdge(begin bool) {
	if r.onTimed != nil {
		r.onTimed(begin)
	}
	if begin {
		r.out.mem0, r.out.cpu0 = readMem(), cpuNow()
	} else {
		r.out.mem1, r.out.cpu1 = readMem(), cpuNow()
	}
}

// pause runs f on rank 0 with the step clock stopped while the other ranks
// wait in a barrier, so nothing of the next step runs beside it.
func (r *simRank) pause(f func()) error {
	if r.root {
		f()
	}
	return r.c.Barrier()
}

// finalize finalizes the bridge's analyses.
func (r *simRank) finalize() error {
	if r.rec != nil {
		r.rec.step = r.o.total()
		s := r.rec.begin("core.finalize", "core")
		defer r.rec.end(s)
	}
	return r.bridge.Finalize()
}

// mesh fetches the rank's current block with its array attached, for probes.
func (r *simRank) mesh() (*grid.ImageData, error) {
	m, err := core.FetchArray(r.ad, grid.CellData, "data")
	if err != nil {
		return nil, err
	}
	img, ok := m.(*grid.ImageData)
	if !ok {
		return nil, fmt.Errorf("mesh is %T, want *grid.ImageData", m)
	}
	return img, r.ad.ReleaseData()
}

// tracedAnalysis wraps a core.AnalysisAdaptor for the traced pass. The
// world barriers before and after make rank 0's span the call's cost summed
// over ranks, with nothing of the neighbouring calls mixed in.
type tracedAnalysis struct {
	inner core.AnalysisAdaptor
	name  string
	layer string
	c     *mpi.Comm
	rec   *recorder
}

func (t *tracedAnalysis) Execute(d core.DataAdaptor) (bool, error) {
	if err := t.c.Barrier(); err != nil {
		return false, err
	}
	s := t.rec.begin(t.name, t.layer)
	ok, err := t.inner.Execute(d)
	berr := t.c.Barrier()
	t.rec.end(s)
	if err == nil {
		err = berr
	}
	return ok, err
}

func (t *tracedAnalysis) Finalize() error { return t.inner.Finalize() }

// tracedData wraps the simulation's core.DataAdaptor; its calls are local
// and short, so they are timed without barriers.
type tracedData struct {
	inner core.DataAdaptor
	rec   *recorder
}

func (t *tracedData) Mesh(structureOnly bool) (grid.Dataset, error) {
	s := t.rec.begin("core.adaptor", "core")
	defer t.rec.end(s)
	return t.inner.Mesh(structureOnly)
}

func (t *tracedData) AddArray(mesh grid.Dataset, assoc grid.Association, name string) error {
	s := t.rec.begin("core.adaptor", "core")
	defer t.rec.end(s)
	return t.inner.AddArray(mesh, assoc, name)
}

func (t *tracedData) ArrayNames(assoc grid.Association) ([]string, error) {
	s := t.rec.begin("core.adaptor", "core")
	defer t.rec.end(s)
	return t.inner.ArrayNames(assoc)
}

func (t *tracedData) TimeStep() int { return t.inner.TimeStep() }

func (t *tracedData) Time() float64 { return t.inner.Time() }

func (t *tracedData) ReleaseData() error {
	s := t.rec.begin("core.adaptor", "core")
	defer t.rec.end(s)
	return t.inner.ReleaseData()
}

// clock returns the lifetime's time base: the trace's in the traced pass,
// so spans and clock reads compare.
func (o *runOpts) clock() clock {
	if o.tr != nil {
		return o.tr.clk
	}
	return newClock()
}

// timedSpans keeps the spans of the timed steps.
func timedSpans(spans []span, o *runOpts) []span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.Step >= o.warm && s.Step < o.total() {
			out = append(out, s)
		}
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// simLayerObs derives the observations every simulation workload shares
// from the timed steps' spans.
func simLayerObs(out *lifeOut, spans []span, cells int) {
	simNs := perStep(spans, 0, "oscillator.step", nil)
	out.observe("oscillator.step_ms_p50", scaled(simNs, 1e-6)...)
	if m := median(simNs); m > 0 {
		out.observe("oscillator.mcells_per_s", float64(cells*cells*cells)/(m/1e9)/1e6)
	}
	adaptor := perStep(spans, 0, "core.adaptor", nil)
	for i, v := range perStep(spans, 1, "core.adaptor", nil) {
		if i < len(adaptor) {
			adaptor[i] += v // cost summed over ranks, like the bracketed spans
		}
	}
	out.observe("core.adaptor_us_p50", scaled(adaptor, 1e-3)...)
	out.observe("core.bridge_self_us_p50", scaled(perStep(spans, 0, "core.execute", selfTimes(spans)), 1e-3)...)
	out.observe("run.ledger_coverage", ledgerCoverage(spans, 0))
}

// Probes call a layer's public function on the workload's own communicator
// or step data, outside the step clock.

const (
	probeReps = 16
	// tagProbe is the point-to-point tag of the large-exchange probe.
	tagProbe = 7001
)

// probeCollectives times the small collectives the analyses lean on.
func (r *simRank) probeCollectives(k int) error {
	send, recv := make([]float64, 10), make([]float64, 10)
	if err := r.c.Barrier(); err != nil {
		return err
	}
	t0 := r.clk.now()
	for i := 0; i < probeReps; i++ {
		if err := mpi.Allreduce(r.c, send, recv, mpi.OpSum); err != nil {
			return err
		}
	}
	t1 := r.clk.now()
	for i := 0; i < probeReps; i++ {
		if err := r.c.Barrier(); err != nil {
			return err
		}
	}
	t2 := r.clk.now()
	if r.root {
		r.out.observe("mpi.allreduce_80b_us_p50", float64(t1-t0)/probeReps/1e3)
		r.out.observe("mpi.barrier_us_p50", float64(t2-t1)/probeReps/1e3)
		r.rec.add("probe.mpi.allreduce_80b", "mpi", k, t0, t1)
		r.rec.add("probe.mpi.barrier", "mpi", k, t1, t2)
	}
	return nil
}

// sent sums what the ranks sent over the timed steps.
func (l *lifeOut) sent() (msgs, bytes int64) {
	for i := range l.traf0 {
		msgs += l.traf1[i].SentMsgs - l.traf0[i].SentMsgs
		bytes += l.traf1[i].SentBytes - l.traf0[i].SentBytes
	}
	return msgs, bytes
}
