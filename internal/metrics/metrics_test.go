package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gosensei/internal/mpi"
)

func TestTimerAccumulates(t *testing.T) {
	var tm Timer
	tm.Add(2 * time.Second)
	tm.Add(3 * time.Second)
	if tm.Total() != 5*time.Second {
		t.Fatalf("total=%v", tm.Total())
	}
	if tm.Count() != 2 {
		t.Fatalf("count=%d", tm.Count())
	}
}

func TestTimerStartStop(t *testing.T) {
	var tm Timer
	tm.Start()
	d := tm.Stop()
	if d < 0 {
		t.Fatal("negative duration")
	}
	if tm.Count() != 1 {
		t.Fatalf("count=%d", tm.Count())
	}
}

func TestTimerDoubleStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tm Timer
	tm.Start()
	tm.Start()
}

func TestTimerStopWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tm Timer
	tm.Stop()
}

func TestRegistryEventsNamed(t *testing.T) {
	r := NewRegistry(0)
	r.Log("analysis", 2, 0.5)
	r.Log("simulation", 1, 1.0)
	r.Log("analysis", 0, 0.25)
	evs := r.EventsNamed("analysis")
	if len(evs) != 2 || evs[0].Step != 0 || evs[1].Step != 2 {
		t.Fatalf("events=%v", evs)
	}
	if r.Timer("analysis").Total() != 750*time.Millisecond {
		t.Fatalf("total=%v", r.Timer("analysis").Total())
	}
}

func TestRegistryTime(t *testing.T) {
	r := NewRegistry(3)
	ran := false
	r.Time("phase", 7, func() { ran = true })
	if !ran {
		t.Fatal("func not run")
	}
	if len(r.Events()) != 1 || r.Events()[0].Step != 7 {
		t.Fatalf("events=%v", r.Events())
	}
	if names := r.TimerNames(); len(names) != 1 || names[0] != "phase" {
		t.Fatalf("names=%v", names)
	}
}

func TestTrackerHighWater(t *testing.T) {
	tr := NewTracker()
	tr.Alloc("grid", 1000)
	tr.Alloc("buffer", 500)
	tr.Free("buffer", 500)
	tr.Alloc("small", 100)
	if tr.Current() != 1100 {
		t.Fatalf("current=%d", tr.Current())
	}
	if tr.HighWater() != 1500 {
		t.Fatalf("high=%d", tr.HighWater())
	}
	if tr.Named("grid") != 1000 {
		t.Fatalf("named=%d", tr.Named("grid"))
	}
}

func TestTrackerFreeAll(t *testing.T) {
	tr := NewTracker()
	tr.Alloc("x", 10)
	tr.Alloc("x", 20)
	tr.FreeAll("x")
	if tr.Current() != 0 || tr.Named("x") != 0 {
		t.Fatalf("current=%d named=%d", tr.Current(), tr.Named("x"))
	}
	if tr.HighWater() != 30 {
		t.Fatalf("high=%d", tr.HighWater())
	}
}

func TestTrackerNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracker().Alloc("x", -1)
}

func TestTrackerHighWaterMonotone(t *testing.T) {
	// Property: high water mark never decreases and always >= current.
	f := func(deltas []int16) bool {
		tr := NewTracker()
		prevHigh := int64(0)
		for _, d := range deltas {
			if d >= 0 {
				tr.Alloc("x", int64(d))
			} else {
				tr.Free("x", int64(-d))
			}
			h := tr.HighWater()
			if h < prevHigh || h < tr.Current() {
				return false
			}
			prevHigh = h
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeAcrossRanks(t *testing.T) {
	n := 4
	err := mpi.Run(n, func(c *mpi.Comm) error {
		r := NewRegistry(c.Rank())
		r.Log("work", 0, float64(c.Rank()+1)) // 1,2,3,4 seconds
		s, err := Summarize(c, r, "work")
		if err != nil {
			return err
		}
		if s.Min != 1 || s.Max != 4 || s.Sum != 10 || s.Mean != 2.5 {
			t.Errorf("summary=%+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSumHighWater(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		tr := NewTracker()
		tr.Alloc("grid", int64(100*(c.Rank()+1)))
		sum, err := SumHighWater(c, tr)
		if err != nil {
			return err
		}
		if sum != 600 {
			t.Errorf("sum=%d", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "Demo", Columns: []string{"Config", "Time"}}
	tb.AddRow("baseline", "1.0 s")
	tb.AddRow("with-analysis", "1.2 s")
	tb.AddNote("weak scaling")
	s := tb.String()
	for _, want := range []string{"Demo", "Config", "baseline", "with-analysis", "note: weak scaling"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512 B",
		2048:            "2.00 KiB",
		3 << 20:         "3.00 MiB",
		5 << 30:         "5.00 GiB",
		123 * (1 << 30): "123.00 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d)=%q want %q", in, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		5e-7:   "0.5 µs",
		0.0025: "2.50 ms",
		1.5:    "1.50 s",
		653:    "653 s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v)=%q want %q", in, got, want)
		}
	}
}

func TestEventsNamedEmptyRegistry(t *testing.T) {
	r := NewRegistry(0)
	if evs := r.EventsNamed("anything"); len(evs) != 0 {
		t.Fatalf("events on empty registry = %v", evs)
	}
	if evs := r.Events(); len(evs) != 0 {
		t.Fatalf("Events on empty registry = %v", evs)
	}
	if _, ok := r.LastNamed("anything"); ok {
		t.Fatal("LastNamed found an event in an empty registry")
	}
	// A name with no matching events among others behaves the same.
	r.Log("sim", 0, 1)
	if evs := r.EventsNamed("analysis"); len(evs) != 0 {
		t.Fatalf("events for absent name = %v", evs)
	}
}

func TestLastNamed(t *testing.T) {
	r := NewRegistry(0)
	r.Log("phase", 0, 1)
	r.Log("other", 1, 2)
	r.Log("phase", 2, 3)
	e, ok := r.LastNamed("phase")
	if !ok || e.Step != 2 || e.Seconds != 3 {
		t.Fatalf("LastNamed = %+v ok=%v", e, ok)
	}
}

func TestSummarizeEmptyTimerAcrossRanks(t *testing.T) {
	// A timer nobody ever started must summarize to zeros on every rank, not
	// error — the per-step router summarizes names that may not have fired
	// yet on the first step.
	err := mpi.Run(3, func(c *mpi.Comm) error {
		r := NewRegistry(c.Rank())
		s, err := Summarize(c, r, "never-started")
		if err != nil {
			return err
		}
		if s.Min != 0 || s.Max != 0 || s.Sum != 0 || s.Mean != 0 {
			t.Errorf("summary of empty timer = %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeEventsMultiRank(t *testing.T) {
	// Three ranks, one of them empty: the merge is sorted by (step, name),
	// stable within ties, and tolerates empty registries anywhere in the
	// argument list.
	a, b, c := NewRegistry(0), NewRegistry(1), NewRegistry(2)
	a.Log("sim", 0, 1)
	a.Log("analysis", 1, 2)
	c.Log("analysis", 0, 3)
	c.Log("sim", 1, 4)
	all := MergeEvents(a, b, c)
	if len(all) != 4 {
		t.Fatalf("merged %d events, want 4: %v", len(all), all)
	}
	wantOrder := []struct {
		step int
		name string
	}{{0, "analysis"}, {0, "sim"}, {1, "analysis"}, {1, "sim"}}
	for i, w := range wantOrder {
		if all[i].Step != w.step || all[i].Name != w.name {
			t.Fatalf("merged[%d] = %+v, want step=%d name=%s", i, all[i], w.step, w.name)
		}
	}
	if got := MergeEvents(); len(got) != 0 {
		t.Fatalf("merge of nothing = %v", got)
	}
	if got := MergeEvents(NewRegistry(0), NewRegistry(1)); len(got) != 0 {
		t.Fatalf("merge of empty registries = %v", got)
	}
}

func TestEWMASeedsAndSmoothes(t *testing.T) {
	var e EWMA
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation must seed exactly, got %v", e.Value())
	}
	e.Observe(20)
	a := DefaultEWMAAlpha
	want := (1-a)*10 + a*20
	if e.Value() != want {
		t.Fatalf("value = %v, want %v", e.Value(), want)
	}
	if e.count != 2 {
		t.Fatalf("count = %d", e.count)
	}
	last := EWMA{Alpha: 1}
	last.Observe(5)
	last.Observe(9)
	if last.Value() != 9 {
		t.Fatalf("alpha=1 must track the last observation, got %v", last.Value())
	}
}

func TestEWMAEqualCostWindowOrderInsensitive(t *testing.T) {
	// Property: on a window whose observations are all the same cost, the
	// smoothed value equals that cost for every window length, permutation
	// (trivially), and alpha — so two ranks replaying the same per-step cost
	// stream in any interleaving agree bit-for-bit.
	f := func(cost float64, n uint8, alphaBits uint8) bool {
		if math.IsNaN(cost) || math.IsInf(cost, 0) {
			return true
		}
		alpha := float64(alphaBits%100+1) / 100 // (0, 1]
		e := EWMA{Alpha: alpha}
		for i := 0; i < int(n%64)+1; i++ {
			e.Observe(cost)
		}
		return e.Value() == cost
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEvents(t *testing.T) {
	a := NewRegistry(0)
	b := NewRegistry(1)
	a.Log("sim", 1, 1)
	b.Log("analysis", 0, 2)
	a.Log("analysis", 1, 3)
	all := MergeEvents(a, b)
	if len(all) != 3 || all[0].Step != 0 || all[1].Name != "analysis" || all[2].Name != "sim" {
		t.Fatalf("merged=%v", all)
	}
}

// Events returns the logged events in insertion order.
func (r *Registry) Events() []Event { return r.events }

// LastNamed returns the most recently logged event with the given name.
func (r *Registry) LastNamed(name string) (Event, bool) {
	for i := len(r.events) - 1; i >= 0; i-- {
		if r.events[i].Name == name {
			return r.events[i], true
		}
	}
	return Event{}, false
}

// MergeEvents interleaves event logs from several ranks sorted by (step, name).
func MergeEvents(regs ...*Registry) []Event {
	var all []Event
	for _, r := range regs {
		all = append(all, r.Events()...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Step != all[j].Step {
			return all[i].Step < all[j].Step
		}
		return all[i].Name < all[j].Name
	})
	return all
}
