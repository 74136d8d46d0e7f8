package faultline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gosensei/internal/mpi"
)

// Trace records which faults of a running schedule actually fired and how
// often. Its rendering is a sorted multiset, independent of firing order, so
// two replays of one schedule compare equal even though goroutine
// interleavings differ between runs.
type Trace struct {
	mu   sync.Mutex
	hits map[string]int
}

func (t *Trace) hit(f Fault) {
	t.mu.Lock()
	t.hits[f.String()]++
	t.mu.Unlock()
}

// Lines returns one "fault xN" line per fired fault, sorted.
func (t *Trace) Lines() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.hits))
	for spec, n := range t.hits {
		out = append(out, fmt.Sprintf("%s x%d", spec, n))
	}
	sort.Strings(out)
	return out
}

// Run is one execution of a schedule: live per-substrate plans sharing one
// trace. Start a fresh Run per execution — plans hold counters. A nil *Run
// is the fault-free baseline: every accessor returns nil, and the substrate
// hooks treat a nil plan as "injection disabled".
type Run struct {
	Schedule *Schedule
	trace    *Trace

	mpiFaults    []Fault
	fabricFaults []Fault
	ioFaults     []Fault
	worldFaults  []Fault

	fabric *FabricPlan
	io     *IOPlan
	// fabricTaken records a FabricPlan call: a staging writer took the plan.
	fabricTaken atomic.Bool
}

// Start instantiates the schedule for one execution.
func (s *Schedule) Start() *Run {
	r := &Run{Schedule: s, trace: &Trace{hits: map[string]int{}}}
	for _, f := range s.Faults {
		switch f.Domain {
		case "mpi":
			r.mpiFaults = append(r.mpiFaults, f)
		case "fabric":
			r.fabricFaults = append(r.fabricFaults, f)
		case "io":
			r.ioFaults = append(r.ioFaults, f)
		case "world":
			r.worldFaults = append(r.worldFaults, f)
		}
	}
	if len(r.fabricFaults) > 0 {
		r.fabric = newFabricPlan(r.fabricFaults, r.trace)
	}
	if len(r.ioFaults) > 0 {
		r.io = newIOPlan(r.ioFaults, r.trace)
	}
	return r
}

// NewMPIPlan returns a fresh MPI plan, or nil when the schedule carries no
// mpi faults (or r is nil). Each mpi.Run world needs its own plan — the
// counters are per world — while all plans of one Run share the trace.
func (r *Run) NewMPIPlan() *MPIPlan {
	if r == nil || len(r.mpiFaults) == 0 {
		return nil
	}
	return &MPIPlan{
		faults: r.mpiFaults,
		trace:  r.trace,
		edges:  map[[2]int]uint64{},
		ops:    map[int]uint64{},
	}
}

// NewWorldPlan returns a fresh world plan, or nil when the schedule carries
// no world faults (or r is nil). Like MPI plans it is per-world: the send
// counters restart with each world incarnation, so a relaunch replays the
// same schedule from op 1. The returned plan implements world.FaultHook.
func (r *Run) NewWorldPlan() *WorldPlan {
	if r == nil || len(r.worldFaults) == 0 {
		return nil
	}
	return &WorldPlan{faults: r.worldFaults, trace: r.trace, ops: map[int]uint64{}}
}

// FabricPlan returns the run's fabric plan (nil when the schedule carries no
// fabric faults or r is nil) and records that something took it: a staging
// writer dials its connections through it. Unlike MPI plans it is a
// singleton: its counters are per writer rank and cumulative across
// reconnects, which is exactly the identity a reconnecting connection needs.
func (r *Run) FabricPlan() *FabricPlan {
	if r == nil {
		return nil
	}
	r.fabricTaken.Store(true)
	return r.fabric
}

// FabricTaken reports whether FabricPlan has been called on r: a schedule of
// fabric faults in a run that dials no staging wire can deliver none of them.
func (r *Run) FabricTaken() bool { return r != nil && r.fabricTaken.Load() }

// IOPlan returns the run's io plan (nil when the schedule carries no io
// faults or r is nil).
func (r *Run) IOPlan() *IOPlan {
	if r == nil {
		return nil
	}
	return r.io
}

// TraceLines returns the fired-fault multiset so far (nil-safe).
func (r *Run) TraceLines() []string {
	if r == nil {
		return nil
	}
	return r.trace.Lines()
}

// MPIPlan implements mpi.FaultInjector for one world. Message faults are
// indexed by the 1-based message count of a (src,dst) world-rank edge; rank
// faults by the 1-based total send count of a world rank. Both counters are
// functions of the program alone, so a fault fires at the same logical point
// on every replay regardless of goroutine scheduling.
type MPIPlan struct {
	faults []Fault
	trace  *Trace

	mu    sync.Mutex
	edges map[[2]int]uint64 // (src,dst) world ranks -> messages sent
	ops   map[int]uint64    // src world rank -> total sends
}

// BeforeSend implements mpi.FaultInjector.
func (p *MPIPlan) BeforeSend(src, dst, tag int) mpi.SendFault {
	if p == nil {
		return mpi.SendFault{}
	}
	p.mu.Lock()
	p.edges[[2]int{src, dst}]++
	seq := p.edges[[2]int{src, dst}]
	p.ops[src]++
	op := p.ops[src]
	out := mpi.SendFault{Seq: seq}
	for _, f := range p.faults {
		switch f.Kind {
		case "stall":
			if f.arg("rank") == src && uint64(f.arg("op")) == op {
				out.Stall = time.Duration(f.arg("ms")) * time.Millisecond
				p.trace.hit(f)
			}
		case "crash":
			if f.arg("rank") == src && uint64(f.arg("op")) == op {
				out.Crash = fmt.Sprintf("faultline: injected crash (%s)", f)
				p.trace.hit(f)
			}
		case "delay":
			if f.arg("src") == src && f.arg("dst") == dst && uint64(f.arg("msg")) == seq {
				out.Delay = time.Duration(f.arg("ms")) * time.Millisecond
				p.trace.hit(f)
			}
		case "dup":
			if f.arg("src") == src && f.arg("dst") == dst && uint64(f.arg("msg")) == seq {
				out.Dup = true
				p.trace.hit(f)
			}
		case "reorder":
			if f.arg("src") == src && f.arg("dst") == dst && uint64(f.arg("msg")) == seq {
				out.Reorder = true
				p.trace.hit(f)
			}
		}
	}
	p.mu.Unlock()
	return out
}

// WorldPlan implements world.FaultHook for one cross-process world. Kills
// are indexed by the 1-based wire-send count of a rank — a transport-level
// counter that matches across in-process (loopback) and N-process (tcp)
// launches of the same pipeline, so a schedule reproduced under `go test`
// fires at the same logical point inside a real worker process.
type WorldPlan struct {
	faults []Fault
	trace  *Trace

	mu  sync.Mutex
	ops map[int]uint64 // world rank -> wire sends
}

// BeforeSend implements world.FaultHook: it observes the rank's next wire
// send and returns the fired fault's repro token and true when the rank must
// die now.
func (p *WorldPlan) BeforeSend(rank int) (string, bool) {
	if p == nil {
		return "", false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops[rank]++
	op := p.ops[rank]
	for _, f := range p.faults {
		if f.Kind == "rankkill" && f.arg("rank") == rank && uint64(f.arg("op")) == op {
			p.trace.hit(f)
			return f.String(), true
		}
	}
	return "", false
}

// FaultAction is what an IOPlan decides for one block-file attempt; the zero
// value is "no fault".
type FaultAction struct {
	// ENOSPC fails a write attempt before any byte reaches the filesystem.
	ENOSPC bool
	// ShortRead truncates a read attempt mid-stream (the file itself stays
	// intact — only this attempt sees half of it).
	ShortRead bool
	// Delay stalls the attempt first: an fsync latency spike.
	Delay time.Duration
}

// IOPlan implements iosim.FaultInjector. Faults are indexed by cumulative
// per-rank attempt counters — retries count — so "n consecutive failures"
// composes with the writer's bounded retry loop: a generated schedule keeps
// n below the retry budget and the block always lands.
type IOPlan struct {
	faults []Fault
	trace  *Trace

	mu     sync.Mutex
	writes map[int]uint64 // rank -> write attempts
	reads  map[int]uint64 // rank -> read attempts
}

func newIOPlan(faults []Fault, trace *Trace) *IOPlan {
	return &IOPlan{faults: faults, trace: trace, writes: map[int]uint64{}, reads: map[int]uint64{}}
}

// BlockWrite implements iosim.FaultInjector: consulted once per block-file
// write attempt.
func (p *IOPlan) BlockWrite(rank int) FaultAction {
	if p == nil {
		return FaultAction{}
	}
	p.mu.Lock()
	p.writes[rank]++
	attempt := p.writes[rank]
	var out FaultAction
	for _, f := range p.faults {
		if f.arg("rank") != rank {
			continue
		}
		switch f.Kind {
		case "enospc":
			start, n := uint64(f.arg("op")), uint64(f.arg("n"))
			if attempt >= start && attempt < start+n {
				out.ENOSPC = true
				if attempt == start {
					p.trace.hit(f)
				}
			}
		case "fsync":
			if uint64(f.arg("op")) == attempt {
				out.Delay = time.Duration(f.arg("ms")) * time.Millisecond
				p.trace.hit(f)
			}
		}
	}
	p.mu.Unlock()
	return out
}

// BlockRead implements iosim.FaultInjector: consulted once per block-file
// read attempt.
func (p *IOPlan) BlockRead(rank int) FaultAction {
	if p == nil {
		return FaultAction{}
	}
	p.mu.Lock()
	p.reads[rank]++
	attempt := p.reads[rank]
	var out FaultAction
	for _, f := range p.faults {
		if f.Kind == "shortread" && f.arg("rank") == rank && uint64(f.arg("op")) == attempt {
			out.ShortRead = true
			p.trace.hit(f)
		}
	}
	p.mu.Unlock()
	return out
}
