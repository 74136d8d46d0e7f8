package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// span is one traced interval at a layer boundary. Spans live only in this
// package: the traced pass wraps the layers' public seams and records here,
// the program under test is not instrumented.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Rank   int    `json:"rank"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// rankEndpoint is the rank number the in transit endpoint records under.
const rankEndpoint = 100

// layerRun marks spans that belong to the benchmark's own loop, not to a
// layer of the program; their self time is what the ledger fails to claim.
const layerRun = "run"

// traceSet collects the recorders of one run. A nil *traceSet is the timed
// pass: nothing is wrapped and nothing is recorded.
type traceSet struct {
	clk clock // shared with the pipeline, so spans and clock reads compare

	mu   sync.Mutex
	recs []*recorder
}

func newTraceSet() *traceSet { return &traceSet{clk: newClock()} }

// recorder returns a fresh recorder for one goroutine (a rank, the
// endpoint, a viewer). A recorder is confined to that goroutine.
func (t *traceSet) recorder(rank int) *recorder {
	r := &recorder{rank: rank, clk: t.clk, spans: make([]span, 0, 4096)}
	t.mu.Lock()
	r.base = int64(len(t.recs)+1) << 32
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// all returns every recorded span ordered by start time. Call it only
// after the goroutines that own the recorders have been waited for.
func (t *traceSet) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		out = append(out, r.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// recorder keeps one goroutine's spans in memory; nesting is tracked with a
// stack, so a span's parent is the span open when it began.
type recorder struct {
	rank  int
	clk   clock
	base  int64
	step  int
	spans []span
	open  []int
}

// begin opens a span at the recorder's current step.
func (r *recorder) begin(name, layer string) int {
	var parent int64
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{
		Name: name, Layer: layer, Rank: r.rank, Step: r.step,
		ID: r.base + int64(i) + 1, Parent: parent, Start: r.clk.now(),
	})
	r.open = append(r.open, i)
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int) {
	r.spans[i].End = r.clk.now()
	r.open = r.open[:len(r.open)-1]
}

// add records an interval measured elsewhere (a registry timer, a clock
// read in another goroutine) as a child of the open span.
func (r *recorder) add(name, layer string, step int, start, end int64) {
	var parent int64
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		Name: name, Layer: layer, Rank: r.rank, Step: step,
		ID: r.base + int64(len(r.spans)) + 1, Parent: parent, Start: start, End: end,
	})
}

// selfTimes returns each span's duration minus the part its direct children
// cover, keyed by span ID.
func selfTimes(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// perStep sums the named spans of one rank by step, in ns, returning one
// value per step that has any, in step order: their durations, or their
// self times when self (from selfTimes) is given.
func perStep(spans []span, rank int, name string, self map[int64]int64) []float64 {
	sum := map[int]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Rank != rank || s.Name != name {
			continue
		}
		if self != nil {
			sum[s.Step] += self[s.ID]
		} else {
			sum[s.Step] += s.dur()
		}
	}
	return stepOrdered(sum)
}

func stepOrdered(sum map[int]int64) []float64 {
	steps := make([]int, 0, len(sum))
	for st := range sum {
		steps = append(steps, st)
	}
	sort.Ints(steps)
	out := make([]float64, len(steps))
	for i, st := range steps {
		out[i] = float64(sum[st])
	}
	return out
}

// ledgerCoverage is the share of the step spans' time that a named layer
// claims as self time: everything under a step span that is not the
// benchmark's own loop.
func ledgerCoverage(spans []span, rank int) float64 {
	self := selfTimes(spans)
	var total, unclaimed int64
	for i := range spans {
		s := &spans[i]
		if s.Rank != rank || s.Layer != layerRun {
			continue
		}
		if s.Parent == 0 {
			total += s.dur()
		}
		unclaimed += self[s.ID]
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(unclaimed)/float64(total)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error wins
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
