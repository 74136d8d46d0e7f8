package glean

import (
	"path/filepath"
	"testing"

	"gosensei/internal/core"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

func runGlean(t *testing.T, nRanks int, opts Options, steps int) ([]*Staging, []*metrics.Registry) {
	t.Helper()
	cfg := oscillator.Config{
		GlobalCells: [3]int{8, 8, 8},
		DT:          0.1,
		Steps:       steps,
		Oscillators: oscillator.DefaultDeck(8),
	}
	stagings := make([]*Staging, nRanks)
	regs := make([]*metrics.Registry, nRanks)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry(c.Rank())
		regs[c.Rank()] = reg
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		g, err := New(c, opts)
		if err != nil {
			return err
		}
		g.Registry = reg
		stagings[c.Rank()] = g
		b := core.NewBridge(c, reg, nil)
		b.AddAnalysis("glean", g)
		d := oscillator.NewDataAdaptor(s)
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			d.Update()
			if _, err := b.Execute(d); err != nil {
				return err
			}
		}
		return b.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stagings, regs
}

func TestTopologyAggregators(t *testing.T) {
	stagings, _ := runGlean(t, 8, Options{RanksPerNode: 4, Mode: NodeAnalysis}, 1)
	aggs := 0
	for rank, s := range stagings {
		if s.isAggregator {
			aggs++
			if rank%4 != 0 {
				t.Errorf("rank %d should not aggregate", rank)
			}
		}
	}
	if aggs != 2 {
		t.Fatalf("8 ranks at 4/node should have 2 aggregators, got %d", aggs)
	}
}

func TestIOAccelerationWritesPerNode(t *testing.T) {
	dir := t.TempDir()
	stagings, regs := runGlean(t, 4, Options{RanksPerNode: 2, Mode: IOAcceleration, OutputDir: dir}, 2)
	files, _ := filepath.Glob(filepath.Join(dir, "*.bp"))
	// 2 nodes x 2 steps = 4 aggregated files instead of 4 ranks x 2 steps = 8.
	if len(files) != 4 {
		t.Fatalf("expected 4 aggregated files, got %d", len(files))
	}
	written := 0
	for _, s := range stagings {
		written += s.FilesWritten
	}
	if written != 4 {
		t.Fatalf("FilesWritten=%d", written)
	}
	// Aggregation gather is timed on every rank.
	for rank, reg := range regs {
		if reg.Timer("glean::aggregate").Count() != 2 {
			t.Errorf("rank %d: aggregate count=%d", rank, reg.Timer("glean::aggregate").Count())
		}
	}
}

func TestNodeAnalysisHistogram(t *testing.T) {
	stagings, _ := runGlean(t, 4, Options{RanksPerNode: 2, Mode: NodeAnalysis, ArrayName: "data", Bins: 6}, 1)
	// World rank 0 is the aggregator-communicator root.
	h := stagings[0].LastHistogram
	if h == nil {
		t.Fatal("no histogram on aggregator root")
	}
	if n := countsTotal(h.Counts); n != 8*8*8 {
		t.Fatalf("histogram total=%d want %d (all cells, node-aggregated)", n, 8*8*8)
	}
	// Non-root aggregators and non-aggregators hold no result.
	for rank := 1; rank < 4; rank++ {
		if stagings[rank].LastHistogram != nil {
			t.Errorf("rank %d unexpectedly holds a histogram", rank)
		}
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	stagings, _ := runGlean(t, 1, Options{RanksPerNode: 4, Mode: NodeAnalysis}, 1)
	if !stagings[0].isAggregator {
		t.Fatal("single rank must aggregate itself")
	}
	if stagings[0].LastHistogram == nil {
		t.Fatal("no histogram")
	}
}

func TestNewValidation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := New(c, Options{RanksPerNode: 0}); err == nil {
			t.Error("ranks-per-node 0 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFactoryFromXML(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="glean" ranks-per-node="2" mode="analysis" bins="4"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		if b.AnalysisCount() != 1 {
			t.Error("glean factory missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIOAccelerationDiscardMode(t *testing.T) {
	// Benchmark configuration: no output dir, staging cost only.
	stagings, regs := runGlean(t, 4, Options{RanksPerNode: 2, Mode: IOAcceleration}, 2)
	for _, s := range stagings {
		if s.FilesWritten != 0 {
			t.Fatalf("discard mode wrote %d files", s.FilesWritten)
		}
	}
	// Aggregators still timed the (empty) write phase.
	if regs[0].Timer("glean::write").Count() != 2 {
		t.Fatalf("write phase not timed: %d", regs[0].Timer("glean::write").Count())
	}
}

func TestGleanMemoryAccounting(t *testing.T) {
	cfg := oscillator.Config{
		GlobalCells: [3]int{8, 8, 8}, DT: 0.1, Steps: 1,
		Oscillators: oscillator.DefaultDeck(8),
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		mem := metrics.NewTracker()
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		g, err := New(c, Options{RanksPerNode: 2, Mode: NodeAnalysis})
		if err != nil {
			return err
		}
		g.Memory = mem
		b := core.NewBridge(c, nil, nil)
		b.AddAnalysis("glean", g)
		d := oscillator.NewDataAdaptor(s)
		if err := s.Step(); err != nil {
			return err
		}
		d.Update()
		if _, err := b.Execute(d); err != nil {
			return err
		}
		// Staging buffers are transient: tracked at peak, freed after.
		if mem.HighWater() <= 0 {
			t.Errorf("rank %d: staging not tracked", c.Rank())
		}
		if mem.Current() != 0 {
			t.Errorf("rank %d: staging leaked %d", c.Rank(), mem.Current())
		}
		return b.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGleanNodeCommTopology(t *testing.T) {
	// 6 ranks at 3/node: aggregators at world ranks 0 and 3.
	stagings, _ := runGlean(t, 6, Options{RanksPerNode: 3, Mode: NodeAnalysis}, 1)
	for rank, s := range stagings {
		want := rank%3 == 0
		if s.isAggregator != want {
			t.Errorf("rank %d: aggregator=%v want %v", rank, s.isAggregator, want)
		}
	}
}

// countsTotal is the number of elements a histogram counted.
func countsTotal(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}
