package catalyst

import (
	"os"
	"path/filepath"
	"testing"

	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

func runMiniapp(t *testing.T, nRanks, steps int, mk func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) *SliceAdaptor) {
	t.Helper()
	cfg := oscillator.Config{
		GlobalCells: [3]int{16, 16, 16},
		DT:          0.05,
		Steps:       steps,
		Oscillators: oscillator.DefaultDeck(16),
	}
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry(c.Rank())
		mem := metrics.NewTracker()
		s, err := oscillator.NewSim(c, cfg, mem)
		if err != nil {
			return err
		}
		b := core.NewBridge(c, reg, mem)
		b.AddAnalysis("catalyst", mk(c, reg, mem))
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
}

func TestSliceAdaptorWritesImages(t *testing.T) {
	dir := t.TempDir()
	runMiniapp(t, 4, 3, func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) *SliceAdaptor {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: 64, Height: 48, SliceAxis: 2, SliceCoord: 8,
			OutputDir: dir,
		})
		a.Registry = reg
		a.Memory = mem
		return a
	})
	files, err := filepath.Glob(filepath.Join(dir, "slice_*.png"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("expected 3 images, found %v", files)
	}
	st, err := os.Stat(files[0])
	if err != nil || st.Size() == 0 {
		t.Fatalf("empty image: %v", err)
	}
}

func TestSliceAdaptorStride(t *testing.T) {
	dir := t.TempDir()
	runMiniapp(t, 2, 6, func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) *SliceAdaptor {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: 32, Height: 32, SliceAxis: 2, SliceCoord: 8,
			OutputDir: dir, Stride: 2,
		})
		a.Registry = reg
		return a
	})
	// Steps 1..6 with stride 2 -> steps 2, 4, 6.
	files, _ := filepath.Glob(filepath.Join(dir, "slice_*.png"))
	if len(files) != 3 {
		t.Fatalf("stride 2 over 6 steps should write 3 images, found %d", len(files))
	}
}

func TestSliceAdaptorTimingEvents(t *testing.T) {
	var rootReg *metrics.Registry
	runMiniapp(t, 2, 2, func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) *SliceAdaptor {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: 32, Height: 32, SliceAxis: 2, SliceCoord: 8,
		})
		a.Registry = reg
		if c.Rank() == 0 {
			rootReg = reg
		}
		return a
	})
	events := rootReg.TimerNames()
	want := map[string]bool{"catalyst::initialize": false, "catalyst::render": false, "catalyst::composite": false, "catalyst::png": false}
	for _, e := range events {
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing timer %s (have %v)", k, events)
		}
	}
}

func TestSliceAdaptorMemoryAccounting(t *testing.T) {
	mem := metrics.NewTracker()
	runMiniapp(t, 1, 1, func(c *mpi.Comm, reg *metrics.Registry, _ *metrics.Tracker) *SliceAdaptor {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: 100, Height: 50, SliceAxis: 2, SliceCoord: 8,
		})
		a.Memory = mem
		return a
	})
	if mem.Named("catalyst/library") != RenderingEdition().ResidentBytes {
		t.Fatalf("library bytes=%d", mem.Named("catalyst/library"))
	}
	if mem.Named("catalyst/framebuffer") != 0 {
		t.Fatal("framebuffer not freed at finalize")
	}
	if mem.HighWater() < 100*50*8 {
		t.Fatalf("high water %d too small", mem.HighWater())
	}
}

func TestEditionGating(t *testing.T) {
	e := Edition{Name: "data-only", Features: map[string]bool{"slice": true}}
	a := NewSliceAdaptor(nil, Options{
		ArrayName: "data", Assoc: grid.CellData,
		Width: 8, Height: 8, Edition: &e,
	})
	if err := a.Initialize(); err == nil {
		t.Fatal("data-only edition should reject a rendering pipeline")
	}
	rendering := RenderingEdition()
	a2 := NewSliceAdaptor(nil, Options{
		ArrayName: "data", Assoc: grid.CellData,
		Width: 8, Height: 8, Edition: &rendering,
	})
	if err := a2.Initialize(); err != nil {
		t.Fatal(err)
	}
}

func TestEditionSizes(t *testing.T) {
	// The paper's PHASTA runs linked an 87 MB rendering edition.
	e := RenderingEdition()
	if e.ResidentBytes != 87<<20 {
		t.Fatalf("rendering edition resident bytes %d, want 87 MiB", e.ResidentBytes)
	}
	for _, f := range []string{"slice", "render", "png"} {
		if !e.Has(f) {
			t.Fatalf("rendering edition lacks %q", f)
		}
	}
}

func TestFactoryFromXML(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei>
			<analysis type="catalyst" array="data" image-width="32" image-height="32" slice-axis="z" slice-coord="8"/>
		</sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		if b.AnalysisCount() != 1 {
			t.Error("catalyst factory not registered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
