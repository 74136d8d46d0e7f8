package iosim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/machine"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

const gib = int64(1) << 30

func TestModelTable1Shapes(t *testing.T) {
	// Table 1: at every scale, file-per-process ("VTK I/O") beats collective
	// MPI-IO, and both grow with data size.
	m := NewModel(machine.Cori().IO, 1)
	cases := []struct {
		writers int
		bytes   int64
	}{
		{812, 2 * gib},
		{6496, 16 * gib},
		{45440, 123 * gib},
	}
	var prevFPP, prevMPI float64
	for _, tc := range cases {
		fpp := m.WriteTime(FilePerProcess, tc.writers, tc.bytes)
		mpiio := m.WriteTime(CollectiveMPIIO, tc.writers, tc.bytes)
		if fpp >= mpiio {
			t.Errorf("writers=%d: file-per-process (%.2fs) should beat MPI-IO (%.2fs)", tc.writers, fpp, mpiio)
		}
		if fpp <= prevFPP || mpiio <= prevMPI {
			t.Errorf("writers=%d: write time should grow with size", tc.writers)
		}
		prevFPP, prevMPI = fpp, mpiio
	}
	// Magnitude check against the paper's 45K row (9.05 s and 22.87 s): our
	// model should land within a factor of two.
	fpp := m.WriteTime(FilePerProcess, 45440, 123*gib)
	mpiio := m.WriteTime(CollectiveMPIIO, 45440, 123*gib)
	if fpp < 4.5 || fpp > 18 {
		t.Errorf("45K FPP write %.2fs not within 2x of the paper's 9.05s", fpp)
	}
	if mpiio < 11 || mpiio > 46 {
		t.Errorf("45K MPI-IO write %.2fs not within 2x of the paper's 22.87s", mpiio)
	}
}

func TestModelDeterministicPerSeed(t *testing.T) {
	a := NewModel(machine.Cori().IO, 42)
	b := NewModel(machine.Cori().IO, 42)
	for i := 0; i < 5; i++ {
		if a.ReadTime(100, gib) != b.ReadTime(100, gib) {
			t.Fatal("same seed, different timings")
		}
	}
	c := NewModel(machine.Cori().IO, 43)
	same := true
	a2 := NewModel(machine.Cori().IO, 42)
	for i := 0; i < 5; i++ {
		if a2.ReadTime(100, gib) != c.ReadTime(100, gib) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestReadVariability(t *testing.T) {
	// Fig. 11: reads show significant variability. The log-normal spread
	// over repeated reads must exceed a few percent.
	m := NewModel(machine.Cori().IO, 7)
	var lo, hi float64 = math.Inf(1), 0
	for i := 0; i < 40; i++ {
		v := m.ReadTime(4545, 123*gib)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/lo < 1.3 {
		t.Fatalf("read variability too small: %.2fx", hi/lo)
	}
}

func TestPlotfileWriteGrowsWithVars(t *testing.T) {
	m := NewModel(machine.Cori().IO, 1)
	one := m.PlotfileWriteTime(512, 4*gib, 1)
	eight := m.PlotfileWriteTime(512, 4*gib, 8)
	if eight < 6*one {
		t.Fatalf("8 variables (%.1fs) should cost ~8x one (%.1fs)", eight, one)
	}
}

func buildBlock() *grid.ImageData {
	img := grid.NewImageData(grid.Extent{2, 5, 0, 3, 1, 2})
	img.Origin = [3]float64{0.5, 0, -1}
	img.Spacing = [3]float64{1, 2, 1}
	nc := img.NumberOfCells()
	vals := make([]float64, nc)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, vals))
	np := img.NumberOfPoints()
	pvals := make([]float64, np*3)
	for i := range pvals {
		pvals[i] = -float64(i)
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("velocity", 3, pvals))
	return img
}

func TestBlockRoundTrip(t *testing.T) {
	img := buildBlock()
	var buf bytes.Buffer
	if err := WriteBlock(&buf, img, 7, 0.35); err != nil {
		t.Fatal(err)
	}
	got, step, tm, err := ReadBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 || tm != 0.35 {
		t.Fatalf("step=%d time=%v", step, tm)
	}
	if got.Extent != img.Extent || got.Origin != img.Origin || got.Spacing != img.Spacing {
		t.Fatal("geometry lost")
	}
	a := got.Attributes(grid.CellData).Get("data")
	if a == nil || a.Tuples() != img.NumberOfCells() {
		t.Fatal("cell data lost")
	}
	for i := 0; i < a.Tuples(); i++ {
		if a.Value(i, 0) != float64(i)*1.5 {
			t.Fatalf("cell %d = %v", i, a.Value(i, 0))
		}
	}
	v := got.Attributes(grid.PointData).Get("velocity")
	if v == nil || v.Components() != 3 {
		t.Fatal("point data lost")
	}
	if v.Value(1, 2) != -5 {
		t.Fatalf("velocity(1,2)=%v", v.Value(1, 2))
	}
}

func TestReadBlockRejectsGarbage(t *testing.T) {
	if _, _, _, err := ReadBlock(bytes.NewReader([]byte("not a block"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBlockFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	img := buildBlock()
	n, err := WriteBlockFile(dir, 3, img, 12, 1.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("zero-size file")
	}
	if _, err := WriteBlockFile(dir, 4, img, 12, 1.2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBlockFile(dir, 3, img, 13, 1.3, nil); err != nil {
		t.Fatal(err)
	}
	got, step, _, err := ReadBlockFile(dir, 12, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if step != 12 || got.NumberOfCells() != img.NumberOfCells() {
		t.Fatal("round trip via disk failed")
	}
	for rank := 0; rank < 6; rank++ {
		_, _, _, err := ReadBlockFile(dir, 12, rank, nil)
		if want := rank == 3 || rank == 4; (err == nil) != want {
			t.Fatalf("step 12 rank %d: read error %v, want a file only for ranks 3 and 4", rank, err)
		}
	}
	if _, _, _, err := ReadBlockFile(dir, 99, 0, nil); err == nil {
		t.Fatal("missing file read succeeded")
	}
	// A replay reads whole steps only: step 12 has no block of ranks 0-2.
	if _, _, err := ListSteps(dir); err == nil || !strings.Contains(err.Error(), "step 12 lacks rank 0's block") {
		t.Fatalf("ListSteps over partial steps: %v, want the first missing block named", err)
	}
	for _, step := range []int{12, 13} {
		for rank := 0; rank < 5; rank++ {
			if _, err := WriteBlockFile(dir, rank, img, step, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps, writers, err := ListSteps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0] != 12 || steps[1] != 13 || writers != 5 {
		t.Fatalf("steps=%v writers=%d", steps, writers)
	}
}

func TestPatternString(t *testing.T) {
	if FilePerProcess.String() != "vtk-multi-file" || CollectiveMPIIO.String() != "mpi-io-collective" {
		t.Fatal("pattern names wrong")
	}
}

func TestBlockWriterAdaptor(t *testing.T) {
	dir := t.TempDir()
	cfg := oscillator.Config{
		GlobalCells: [3]int{8, 8, 8}, DT: 0.1, Steps: 4,
		Oscillators: oscillator.DefaultDeck(8),
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="vtk-writer" dir="` + dir + `" stride="2"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
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
	steps, _, err := ListSteps(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Stride 2 over execute-indexes 0..3 -> steps 1 and 3 written.
	if len(steps) != 2 {
		t.Fatalf("steps=%v", steps)
	}
	if _, _, _, err := ReadBlockFile(dir, steps[0], 1, nil); err != nil {
		t.Fatalf("rank 1's block: %v", err)
	}
	// Files round-trip through the post hoc reader.
	img, _, _, err := ReadBlockFile(dir, steps[0], 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.Attributes(grid.CellData).Get("data") == nil {
		t.Fatal("written block lacks the data array")
	}
}

func TestBurstBufferAcceleratesWrites(t *testing.T) {
	// The paper's future-work scenario: staging to Cori's burst buffer must
	// beat both filesystem paths by a wide margin at 45K scale.
	m := NewModel(machine.Cori().IO, 3)
	bb, ok := m.BurstBufferWriteTime(45440, 123*gib)
	if !ok {
		t.Fatal("Cori model should expose a burst buffer")
	}
	fpp := m.WriteTime(FilePerProcess, 45440, 123*gib)
	if bb >= fpp/5 {
		t.Fatalf("burst buffer write %.2fs should be >=5x faster than Lustre FPP %.2fs", bb, fpp)
	}
	// Machines without the tier report absence.
	if _, ok := NewModel(machine.Mira().IO, 1).BurstBufferWriteTime(100, gib); ok {
		t.Fatal("Mira has no burst buffer")
	}
}
