package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// errInterrupted unwinds a run after SIGINT; every pipeline is torn down on
// the way out like after any other error.
var errInterrupted = errors.New("interrupted")

// env is what one run of one workload shares: its seeded inputs, its
// scratch directory and the stop flag the signal handler raises.
type env struct {
	cfg     config
	in      *inputs
	scratch string
	stop    *atomic.Bool
	// idle is the goroutine count of the process before any pipeline ran;
	// a pipeline is gone when the count is back there.
	idle int
	// dirSeq numbers the scratch subdirectories of this run.
	dirSeq int
}

func (e *env) stopped() bool { return e.stop.Load() }

// memSnap is the slice of runtime.MemStats the benchmark reads.
type memSnap struct {
	totalAlloc, mallocs, heapAlloc uint64
	numGC                          uint32
	pauseNs                        uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs, m.HeapAlloc, m.NumGC, m.PauseTotalNs}
}

// liveHeap forces a collection and returns what is still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return readMem().heapAlloc
}

// quiesce waits until the goroutines of the previous pipeline are gone and
// collects twice (the second cycle frees what finalizers and pools released
// in the first), so a measurement does not depend on what ran before it.
// It returns the heap the idle process keeps.
func (e *env) quiesce() (uint64, error) {
	if err := e.awaitIdle(lingerBudget); err != nil {
		return 0, err
	}
	coldStart()
	return liveHeap(), nil
}

// settle is quiesce for back-to-back set-up cycles: it gives stragglers a
// moment and moves on. A torn-down fabric client's heartbeat goroutine
// sleeps out its 500 ms tick before it notices; waiting for each would
// spend the run asleep, and a sleeping straggler costs the next cycle
// nothing. Every repetition, and the process's exit, still waits for all.
func (e *env) settle() {
	_ = e.awaitIdle(2 * time.Millisecond) // stragglers are waited for later
	coldStart()
}

// coldStart collects twice and hands every free page back to the OS, so
// the next pipeline faults its memory in afresh. Left to itself the
// runtime's scavenger returns pages at a pace set by wall time, and how
// many of the previous pipeline's pages are still mapped — page faults the
// next one is spared — would depend on how long the host let the process
// wait.
func coldStart() {
	runtime.GC()
	debug.FreeOSMemory()
}

// lingerBudget bounds the wait for a torn-down pipeline's goroutines.
const lingerBudget = 10 * time.Second

// awaitIdle blocks (sleeping, not spinning) until the goroutine count is
// back at the idle process's, or the budget runs out.
func (e *env) awaitIdle(budget time.Duration) error {
	const nap = 50 * time.Microsecond
	for waited := time.Duration(0); runtime.NumGoroutine() > e.idle; waited += nap {
		if waited > budget {
			return fmt.Errorf("%d goroutines still running %v after tear-down (idle process has %d)",
				runtime.NumGoroutine(), budget, e.idle)
		}
		time.Sleep(nap)
	}
	return nil
}

// hostRefBuf is streamed by hostRef; 4 MiB, larger than this box's L2.
var hostRefBuf = make([]float64, 512<<10)

// hostRefSink keeps hostRef's arithmetic alive.
var hostRefSink float64

// hostRef times a fixed single-threaded compute+stream loop. Run between
// repetitions, it tells a slow host from a slow program: when it moves with
// the step time, the host moved.
func hostRef() float64 {
	t0 := time.Now()
	s := 0.0
	for i := 0; i < 100_000; i++ {
		s += math.Exp(-float64(i&1023) * 1e-3)
	}
	for _, v := range hostRefBuf {
		s += v
	}
	hostRefSink = s
	return float64(time.Since(t0)) / 1e6
}

// clock is the wall-time base of one pipeline lifetime; every goroutine of
// the pipeline reads the same one, so instants compare across goroutines.
// Spans and the ungated run.* diagnostics are in wall time. Every gated
// timing is read from the process CPU clock instead (cpuNow; README: "Core
// time, not wall time").
type clock struct{ epoch time.Time }

func newClock() clock { return clock{time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// checks counts verification operations: every (step x consumer) comparison
// against the serial reference is one.
type checks struct{ attempted, failed int64 }

func (c *checks) expect(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
}
