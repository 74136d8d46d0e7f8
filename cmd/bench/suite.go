package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string
}

// plan sizes a workload's run. Counts are fixed per workload — not fitted
// to the host — so exact-count metrics (bytes, allocations per step) mean
// the same thing in every run; only the number of repetitions follows the
// time budget.
type plan struct {
	warm, steps int // untimed and timed steps (frames) of a repetition
	cycles      int // set-up cycles of the timed pass
}

// pipeline is one workload: it can run its one-rank serial reference and
// any number of pipeline lifetimes, each verified against the reference.
type pipeline interface {
	plan(quick bool) plan
	// reference runs the serial pass over total steps and keeps its outputs.
	// It returns the serial lifetime for its step times, or nil where there
	// is no serial counterpart to time.
	reference(total int) (*lifeOut, error)
	// run executes one lifetime: set-up, o.warm+o.steps steps, tear-down.
	run(o *runOpts) (*lifeOut, error)
}

func newPipeline(name string, e *env) (pipeline, error) {
	switch name {
	case "insitu-stats":
		return &statsPipeline{env: e}, nil
	case "insitu-render-tcp":
		return &renderPipeline{env: e}, nil
	case "intransit-delta":
		return &transitPipeline{env: e}, nil
	case "live-fanout":
		return &livePipeline{env: e}, nil
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// outcome is everything one run measured.
type outcome struct {
	cfg     config
	header  header
	checks  checks
	metrics map[string]float64 // what the result line prints
	diag    map[string]float64 // run.* diagnostics of the timed pass
	// reps keeps every repetition's value per metric, so scatter stays on
	// record.
	reps    map[string][]float64
	asserts []string // directional checks that failed
	spans   []span   // the last traced repetition
	elapsed time.Duration
	// How much was measured: set-up cycles, repetitions and timed steps,
	// whatever the pass.
	cycles, repetitions, samples int
}

func (o *outcome) correct() bool { return o.checks.failed == 0 && len(o.asserts) == 0 }

// budgetShare is the part of --seconds the phases may plan to use; the rest
// absorbs process start, verification and a slow repetition.
const budgetShare = 0.90

// runWorkload measures one workload once: reference, set-up cycles, timed
// or traced repetitions, verification. It owns GOMAXPROCS for its duration.
func runWorkload(cfg config, stop *atomic.Bool) (res *outcome, err error) {
	start := time.Now()
	// One busy core is the only thing this box times repeatably (README:
	// "Why one busy core"); ranks, endpoint and pumps are serialised on it.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	scratch, err := os.MkdirTemp(".", ".gosensei-bench-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(scratch); rerr != nil && err == nil {
			err = rerr
		}
	}()
	e := &env{cfg: cfg, in: makeInputs(cfg.seed), scratch: scratch, stop: stop, idle: runtime.NumGoroutine()}
	// Leave the process as it was found, on every path out: the pipelines
	// close what they opened, and the stragglers (a fabric client's
	// heartbeat sleeps out its tick) are waited for here.
	defer func() {
		if werr := e.awaitIdle(lingerBudget); werr != nil && err == nil {
			err = werr
		}
	}()
	p, err := newPipeline(cfg.workload, e)
	if err != nil {
		return nil, err
	}
	pl := p.plan(cfg.quick)
	res = &outcome{
		cfg:     cfg,
		metrics: map[string]float64{},
		diag:    map[string]float64{},
		reps:    map[string][]float64{},
	}
	m := &measurer{env: e, p: p, pl: pl, res: res, start: start,
		budget: time.Duration(cfg.seconds * budgetShare * float64(time.Second))}

	if err := m.reference(); err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	if cfg.trace {
		err = m.tracedPass()
	} else {
		err = m.timedPass()
	}
	if err != nil {
		return nil, err
	}
	res.header = makeHeader(cfg, pl, res)
	res.elapsed = time.Since(start)
	return res, nil
}

// measurer carries one run through its phases.
type measurer struct {
	env    *env
	p      pipeline
	pl     plan
	res    *outcome
	start  time.Time
	budget time.Duration

	serialMs []float64 // the serial reference's step times
	hostMs   []float64 // host reference loop, one per repetition
}

func (m *measurer) left() time.Duration { return m.budget - time.Since(m.start) }

func (m *measurer) reference() error {
	if _, err := m.env.quiesce(); err != nil {
		return err
	}
	out, err := m.p.reference(m.pl.warm + m.pl.steps)
	if err != nil {
		return err
	}
	if out != nil {
		m.serialMs = nsToMs(out.stepNs)
	}
	return nil
}

// setupCycle times one set-up -> first cold step -> tear-down cycle, in core
// time: from a collected process until the pipeline's last tear-down call
// has returned.
func (m *measurer) setupCycle(tr *traceSet) (float64, *lifeOut, error) {
	m.env.settle()
	t0 := cpuNow()
	out, err := m.p.run(&runOpts{ranks: simRanks, steps: 1, tr: tr})
	if err != nil {
		return 0, nil, err
	}
	m.res.cycles++
	return float64(cpuNow()-t0) / 1e9, out, nil
}

// repetition runs one measured lifetime from a quiesced process.
func (m *measurer) repetition(o *runOpts) (*lifeOut, error) {
	base, err := m.env.quiesce()
	if err != nil {
		return nil, err
	}
	m.hostMs = append(m.hostMs, hostRef())
	o.base = base
	out, err := m.p.run(o)
	if err != nil {
		return nil, err
	}
	m.res.checks.add(out.checks)
	m.res.repetitions++
	m.res.samples += len(out.stepNs)
	return out, nil
}

// timedPass is --trace 0: nothing wrapped, nothing recorded; every gated
// number comes from here.
func (m *measurer) timedPass() error {
	var setup []float64
	for i := 0; i < m.pl.cycles; i++ {
		s, out, err := m.setupCycle(nil)
		if err != nil {
			return fmt.Errorf("set-up cycle %d: %w", i, err)
		}
		m.res.checks.add(out.checks)
		setup = append(setup, s)
	}

	var step, blocked, lag, wall []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		out, err := m.repetition(&runOpts{ranks: simRanks, warm: m.pl.warm, steps: m.pl.steps, heap: true})
		if err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
		stepMs, blockedMs, lagMs := nsToMs(out.stepNs), nsToMs(out.blockedNs), nsToMs(out.lagNs)
		step = append(step, stepMs...)
		blocked = append(blocked, blockedMs...)
		lag = append(lag, lagMs...)
		wall = append(wall, nsToMs(out.wallNs)...)
		n := float64(m.pl.steps)
		m.rep("step_ms_p10", quantile(stepMs, 0.10))
		m.rep("sim_blocked_ms_p10", quantile(blockedMs, 0.10))
		m.rep("result_lag_ms_p10", quantile(lagMs, 0.10))
		m.rep("bytes_out_per_step", out.bytesOut)
		m.rep("alloc_kb_per_step", float64(out.mem1.totalAlloc-out.mem0.totalAlloc)/n/1024)
		m.rep("mallocs_per_step", float64(out.mem1.mallocs-out.mem0.mallocs)/n)
		m.rep("heap_peak_mb", float64(out.heapPeak)/(1<<20))
		m.runDiag(out)
		// At least two repetitions (one with -quick); more while one more
		// still fits the budget.
		if m.env.cfg.quick || rep >= 1 && m.left() < time.Since(t0)*21/20 {
			break
		}
	}

	// Noise is one-sided — a step is never faster than the code allows — so
	// a gated timing is the lower decile pooled over every timed step.
	r := m.res
	// Set-up cycles are not: some finish early (a lucky tear-down order),
	// a minority mode a low quantile would flip in and out of. The median
	// of the cycles repeats.
	r.metrics["setup_s"] = median(setup)
	r.reps["setup_s"] = setup
	r.metrics["step_ms_p10"] = quantile(step, 0.10)
	r.metrics["sim_blocked_ms_p10"] = quantile(blocked, 0.10)
	r.metrics["result_lag_ms_p10"] = quantile(lag, 0.10)
	for _, name := range []string{"bytes_out_per_step", "alloc_kb_per_step", "mallocs_per_step"} {
		r.metrics[name] = median(r.reps[name])
	}
	// A high-water mark is the highest sample of the run: an asynchronous
	// pipeline holds its fullest state only now and then, and one
	// repetition's dozen samples can miss it.
	r.metrics["heap_peak_mb"] = maxOf(r.reps["heap_peak_mb"])
	m.stepDiag(step, wall)
	return nil
}

func (m *measurer) rep(name string, v float64) {
	m.res.reps[name] = append(m.res.reps[name], v)
}

// runDiag records a repetition's whole-process odometers.
func (m *measurer) runDiag(out *lifeOut) {
	n := float64(m.pl.steps)
	m.rep("run.core_ms_per_step", float64(out.cpu1-out.cpu0)/1e6/n)
	m.rep("run.gc_cycles", float64(out.mem1.numGC-out.mem0.numGC))
	m.rep("run.gc_pause_ms", float64(out.mem1.pauseNs-out.mem0.pauseNs)/1e6)
	m.rep("run.goroutines_peak", float64(out.goroutines))
	msgs, bytes := out.sent()
	m.rep("mpi.msgs_per_step", float64(msgs)/n)
	m.rep("mpi.bytes_per_step", float64(bytes)/n)
}

// stepDiag fills the run.* diagnostics from the untraced steps' core and
// wall times.
func (m *measurer) stepDiag(stepMs, wallMs []float64) {
	d := m.res.diag
	d["run.step_ms_p50"] = median(wallMs)
	d["run.step_ms_p95"] = quantile(wallMs, 0.95)
	d["run.step_samples"] = float64(len(wallMs))
	if c := median(stepMs); c > 0 {
		d["run.wall_per_core_ratio"] = median(wallMs) / c
	}
	for _, name := range []string{"run.core_ms_per_step", "run.gc_cycles", "run.gc_pause_ms", "run.goroutines_peak", "mpi.msgs_per_step", "mpi.bytes_per_step"} {
		d[name] = median(m.res.reps[name])
	}
	if len(m.serialMs) > 0 {
		d["run.serial_step_ms_p10"] = quantile(m.serialMs, 0.10)
		if s := d["run.serial_step_ms_p10"]; s > 0 {
			d["run.decomposition_ratio"] = quantile(stepMs, 0.10) / s
		}
	}
	d["run.host_ref_ms_p10"] = quantile(m.hostMs, 0.10)
	d["run.host_ref_spread"] = scatter(m.hostMs)
}

// oneTime names the per-layer metrics a set-up cycle measures; its single
// cold step contributes to nothing else.
var oneTime = map[string]bool{
	"world.join_ms_p10":          true,
	"fabric.handshake_ms_p10":    true,
	"catalyst.init_ms_p10":       true,
	"adios.endpoint_init_ms_p10": true,
	"live.heap_kb_per_sub":       true,
	"live.heap_kb_per_viewer":    true,
	"live.attach_us_per_sub":     true,
}

// tracedPass is --trace 1: an untraced repetition for the run.* odometers
// and the overhead's denominator, traced repetitions with probes for the
// ledger, and one short repetition at GOMAXPROCS=nproc, ungated, so the
// parallel behaviour is on record.
func (m *measurer) tracedPass() error {
	obs := map[string][]float64{}
	merge := func(out *lifeOut, keep func(string) bool) {
		for k, v := range out.obs {
			if keep(k) {
				obs[k] = append(obs[k], v...)
			}
		}
	}
	cycles := 6
	if m.env.cfg.quick {
		cycles = 2
	}
	for i := 0; i < cycles; i++ {
		_, out, err := m.setupCycle(newTraceSet())
		if err != nil {
			return fmt.Errorf("traced set-up cycle %d: %w", i, err)
		}
		m.res.checks.add(out.checks)
		merge(out, func(k string) bool { return oneTime[k] })
	}

	plain, err := m.repetition(&runOpts{ranks: simRanks, warm: m.pl.warm, steps: m.pl.steps, heap: true})
	if err != nil {
		return fmt.Errorf("untraced repetition: %w", err)
	}
	m.runDiag(plain)
	plainMs := nsToMs(plain.stepNs)

	nprocSteps := max(m.pl.steps/4, 5)
	var tracedMs []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		tr := newTraceSet()
		out, err := m.repetition(&runOpts{ranks: simRanks, warm: m.pl.warm, steps: m.pl.steps, tr: tr, probes: true})
		if err != nil {
			return fmt.Errorf("traced repetition %d: %w", rep, err)
		}
		merge(out, func(string) bool { return true })
		tracedMs = append(tracedMs, nsToMs(out.stepNs)...)
		m.res.spans = tr.all()
		// Keep room for the nproc repetition, priced at the untraced step.
		reserve := time.Duration(float64(nprocSteps+m.pl.warm) * median(plainMs) * 1.5 * float64(time.Millisecond))
		if m.env.cfg.quick || m.left() < reserve+time.Since(t0)*21/20 {
			break
		}
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	wide, err := m.repetition(&runOpts{ranks: simRanks, warm: m.pl.warm, steps: nprocSteps})
	runtime.GOMAXPROCS(1)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS=%d repetition: %w", runtime.NumCPU(), err)
	}

	m.stepDiag(plainMs, nsToMs(plain.wallNs))
	r := m.res
	for _, def := range perLayerDefs {
		xs := obs[def.Name]
		switch {
		case strings.HasSuffix(def.Name, "_p10"):
			r.metrics[def.Name] = quantile(xs, 0.10)
		default:
			r.metrics[def.Name] = median(xs)
		}
	}
	for k, v := range r.diag {
		r.metrics[k] = v
	}
	// Speed-up is a wall-time notion: with two Ps the CPU clock runs twice.
	p10 := quantile(plainMs, 0.10)
	r.metrics["run.step_ms_p10_nproc"] = quantile(nsToMs(wide.wallNs), 0.10)
	if w := r.metrics["run.step_ms_p10_nproc"]; w > 0 {
		r.metrics["run.parallel_speedup_nproc"] = quantile(nsToMs(plain.wallNs), 0.10) / w
	}
	if p10 > 0 {
		r.metrics["run.trace_overhead_ratio"] = quantile(tracedMs, 0.10) / p10
	}
	m.assert(r.metrics["run.ledger_coverage"] >= 0.85, "run.ledger_coverage %.3f < 0.85", r.metrics["run.ledger_coverage"])
	switch m.env.cfg.workload {
	case "intransit-delta":
		// At -quick sizes the keyframe that opens each delta chain is a
		// seventh of the traffic and hides the codec's steady-state gain.
		m.assert(m.env.cfg.quick || r.metrics["fabric.wire_reduction"] > minWireReduction, "fabric.wire_reduction %.3f <= %.2f", r.metrics["fabric.wire_reduction"], minWireReduction)
		m.assert(r.metrics["fabric.retransmits"] == 0, "fabric.retransmits %v != 0", r.metrics["fabric.retransmits"])
		m.assert(r.metrics["fabric.reconnects"] == 0, "fabric.reconnects %v != 0", r.metrics["fabric.reconnects"])
	case "live-fanout":
		m.assert(r.metrics["live.skipped_frames"] == 0, "live.skipped_frames %v != 0", r.metrics["live.skipped_frames"])
	}
	return nil
}

// minWireReduction is the least the delta+flate codec must keep off the
// wire. The 64^3 field saves 0.19 here (README: "What the first baseline
// says"); the 0.58 of BENCH_6 was 16^3 over 4 steps, mostly zeros.
const minWireReduction = 0.10

// assert records a directional check that must hold on any baseline.
func (m *measurer) assert(ok bool, format string, args ...any) {
	if !ok {
		m.res.asserts = append(m.res.asserts, fmt.Sprintf(format, args...))
	}
}
