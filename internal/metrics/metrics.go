// Package metrics provides the measurement machinery used throughout the
// repository: named accumulating timers, a per-step event log, and an
// explicit memory accountant that tracks the high-water mark of each rank's
// data structures.
//
// The SC16 SENSEI paper reports two metrics for every experiment: elapsed
// wall-clock time and the memory high-water mark summed over all MPI ranks.
// Go ranks in this reproduction are goroutines sharing one heap, so OS-level
// RSS cannot attribute memory to a rank; instead, every substrate registers
// its allocations with a Tracker. This has the side benefit of making the
// zero-copy claim falsifiable: wrapping a simulation buffer registers zero
// additional bytes, while a copying adaptor registers the full array size.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Timer accumulates wall-clock durations over repeated Start/Stop cycles.
type Timer struct {
	total time.Duration
	count int
	start time.Time
	open  bool
}

// Start begins a timing interval. Starting an already-started timer panics;
// that is always a programming error in the harness.
func (t *Timer) Start() {
	if t.open {
		panic("metrics: timer started twice")
	}
	t.open = true
	t.start = time.Now()
}

// Stop ends the current interval and adds it to the accumulated total.
func (t *Timer) Stop() time.Duration {
	if !t.open {
		panic("metrics: timer stopped without start")
	}
	d := time.Since(t.start)
	t.open = false
	t.total += d
	t.count++
	return d
}

// Add accumulates an externally measured (or modeled) duration.
func (t *Timer) Add(d time.Duration) {
	t.total += d
	t.count++
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return t.total }

// Count returns the number of completed intervals.
func (t *Timer) Count() int { return t.count }

// Counter is a monotonically increasing tally safe for concurrent use.
// Infrastructure layers with their own goroutines (the fabric's send/recv
// pumps, accept loops) count events — frames, bytes, reconnects — without a
// lock; readers may observe the value at any time.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n (n may be any non-negative delta).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v.Load() }

// Event is one logged measurement: a named phase at a time step.
type Event struct {
	Name    string
	Step    int
	Seconds float64
}

// EWMA is an exponentially weighted moving average over a stream of
// observations: the posterior half of the router's cost estimates (the prior
// half comes from perfmodel). Alpha is the weight of the newest observation;
// the zero value with Alpha unset averages with a default of 0.3.
type EWMA struct {
	// Alpha in (0, 1]: weight of the newest observation. 0 selects the
	// default of 0.3; 1 makes the value track the last observation exactly.
	Alpha float64

	value float64
	count int
}

// DefaultEWMAAlpha is the smoothing weight used when Alpha is left zero.
const DefaultEWMAAlpha = 0.3

func (e *EWMA) alpha() float64 {
	if e.Alpha <= 0 || e.Alpha > 1 {
		return DefaultEWMAAlpha
	}
	return e.Alpha
}

// Observe folds one observation into the average. The first observation
// seeds the value exactly (no bias toward zero), and an observation equal to
// the current value leaves it bit-identical: (1-a)v + av = v mathematically,
// but not in float64, and the routing layer's determinism contract needs a
// steady cost stream to be an exact fixed point.
func (e *EWMA) Observe(x float64) {
	switch {
	case e.count == 0, x == e.value:
		e.value = x
	default:
		a := e.alpha()
		e.value = (1-a)*e.value + a*x
	}
	e.count++
}

// Value returns the current smoothed value (zero before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Registry collects the timers and events of a single rank.
// A Registry is safe for use by one rank (goroutine) at a time.
type Registry struct {
	Rank   int
	timers map[string]*Timer
	events []Event
}

// NewRegistry returns an empty registry for the given rank.
func NewRegistry(rank int) *Registry {
	return &Registry{Rank: rank, timers: map[string]*Timer{}}
}

// OrNew returns r, or a fresh registry for the given rank when the owner was
// handed none: adaptors built outside a bridge still record their phases,
// under the rank they run on.
func OrNew(r *Registry, rank int) *Registry {
	if r == nil {
		return NewRegistry(rank)
	}
	return r
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Time runs f under the named timer and logs an event for the given step.
func (r *Registry) Time(name string, step int, f func()) time.Duration {
	t := r.Timer(name)
	t.Start()
	f()
	d := t.Stop()
	r.events = append(r.events, Event{Name: name, Step: step, Seconds: d.Seconds()})
	return d
}

// Log records an externally measured or modeled event.
func (r *Registry) Log(name string, step int, seconds float64) {
	r.Timer(name).Add(time.Duration(seconds * float64(time.Second)))
	r.events = append(r.events, Event{Name: name, Step: step, Seconds: seconds})
}

// EventsNamed returns the logged events with the given name, in step order.
func (r *Registry) EventsNamed(name string) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// TimerNames returns the names of all timers, sorted.
func (r *Registry) TimerNames() []string {
	names := make([]string, 0, len(r.timers))
	for n := range r.timers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Tracker is the explicit memory accountant for one rank. Allocations are
// registered by name; the tracker maintains current usage and the high-water
// mark. Trackers are safe for concurrent use (infrastructure components may
// run on helper goroutines within a rank).
type Tracker struct {
	mu      sync.Mutex
	current int64
	high    int64
	byName  map[string]int64
}

// NewTracker returns an empty memory tracker.
func NewTracker() *Tracker {
	return &Tracker{byName: map[string]int64{}}
}

// Alloc registers bytes under name and updates the high-water mark.
func (t *Tracker) Alloc(name string, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("metrics: negative allocation %d for %q", bytes, name))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byName[name] += bytes
	t.current += bytes
	if t.current > t.high {
		t.high = t.current
	}
}

// Free releases bytes previously registered under name.
func (t *Tracker) Free(name string, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byName[name] -= bytes
	t.current -= bytes
}

// FreeAll releases everything registered under name.
func (t *Tracker) FreeAll(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.current -= t.byName[name]
	t.byName[name] = 0
}

// Current returns the currently registered bytes.
func (t *Tracker) Current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// HighWater returns the maximum of Current over the tracker's lifetime.
func (t *Tracker) HighWater() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.high
}

// Named returns the bytes currently registered under name.
func (t *Tracker) Named(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byName[name]
}
