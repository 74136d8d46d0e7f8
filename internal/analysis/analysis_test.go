package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

// meshAdaptor serves a pre-built mesh through the SENSEI interface.
type meshAdaptor struct {
	core.BaseDataAdaptor
	mesh grid.Dataset
}

func (m *meshAdaptor) Mesh(bool) (grid.Dataset, error) { return m.mesh, nil }
func (m *meshAdaptor) AddArray(mesh grid.Dataset, assoc grid.Association, name string) error {
	if mesh.Attributes(assoc).Get(name) == nil {
		return errNoArray
	}
	return nil
}
func (m *meshAdaptor) ArrayNames(assoc grid.Association) ([]string, error) {
	return m.mesh.Attributes(assoc).Names(), nil
}
func (m *meshAdaptor) ReleaseData() error { return nil }

var errNoArray = errString("no such array")

type errString string

func (e errString) Error() string { return string(e) }

func cellMesh(values []float64) *grid.ImageData {
	n := len(values)
	mesh := grid.NewImageData(grid.Extent{0, n, 0, 1, 0, 1}) // n cells in a row
	mesh.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, values))
	return mesh
}

func TestSerialHistogramUniform(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	res := SerialHistogram(array.WrapAOS("data", 1, vals), nil, 5)
	if res.Min != 0 || res.Max != 9 {
		t.Fatalf("range [%v %v]", res.Min, res.Max)
	}
	for i, c := range res.Counts {
		if c != 2 {
			t.Fatalf("bin %d = %d, counts=%v", i, c, res.Counts)
		}
	}
	if n := countsTotal(res.Counts); n != 10 {
		t.Fatalf("total=%d", n)
	}
	lo, hi := res.Bin(0)
	if lo != 0 || math.Abs(hi-1.8) > 1e-12 {
		t.Fatalf("bin0=[%v %v]", lo, hi)
	}
}

func TestSerialHistogramConstantData(t *testing.T) {
	res := SerialHistogram(array.WrapAOS("data", 1, []float64{3, 3, 3}), nil, 4)
	if res.Min != 3 || res.Max != 3 {
		t.Fatalf("range [%v %v]", res.Min, res.Max)
	}
	if res.Counts[0] != 3 || countsTotal(res.Counts) != 3 {
		t.Fatalf("counts=%v", res.Counts)
	}
}

func TestHistogramGhostsExcluded(t *testing.T) {
	vals := array.WrapAOS("data", 1, []float64{1, 2, 100})
	ghost := array.WrapAOS(grid.GhostArrayName, 1, []float64{0, 0, 1})
	g8 := array.New[uint8](grid.GhostArrayName, 1, 3)
	for i := 0; i < 3; i++ {
		g8.Set(i, 0, uint8(ghost.Value(i, 0)))
	}
	res := SerialHistogram(vals, g8, 2)
	if res.Max != 2 {
		t.Fatalf("ghost value included: max=%v", res.Max)
	}
	if n := countsTotal(res.Counts); n != 2 {
		t.Fatalf("total=%d", n)
	}
}

func TestParallelHistogramMatchesSerial(t *testing.T) {
	// Property: the parallel histogram over a partitioned vector equals the
	// serial histogram over the whole vector.
	f := func(seed int64, nRanksRaw uint8) bool {
		nRanks := int(nRanksRaw%4) + 1
		total := 24
		vals := make([]float64, total)
		x := seed
		for i := range vals {
			x = x*6364136223846793005 + 1442695040888963407
			vals[i] = float64(x%1000) / 10
		}
		want := SerialHistogram(array.WrapAOS("data", 1, vals), nil, 8)
		got := make([]int64, 8)
		var gotMin, gotMax float64
		err := mpi.Run(nRanks, func(c *mpi.Comm) error {
			per := total / nRanks
			lo := c.Rank() * per
			hi := lo + per
			if c.Rank() == nRanks-1 {
				hi = total
			}
			mesh := cellMesh(vals[lo:hi])
			h := NewHistogram(c, "data", grid.CellData, 8)
			res, err := h.Compute(0, mesh)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				copy(got, res.Counts)
				gotMin, gotMax = res.Min, res.Max
			}
			return nil
		})
		if err != nil {
			return false
		}
		if gotMin != want.Min || gotMax != want.Max {
			return false
		}
		for i := range got {
			if got[i] != want.Counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExecuteViaAdaptor(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		vals := []float64{float64(c.Rank()), float64(c.Rank()) + 0.5}
		d := &meshAdaptor{mesh: cellMesh(vals)}
		d.SetStep(3, 0.3)
		h := NewHistogram(c, "data", grid.CellData, 4)
		cont, err := h.Execute(d)
		if err != nil || !cont {
			return err
		}
		if c.Rank() == 0 {
			if h.Last == nil || h.Last.Step != 3 || h.Last.Min != 0 || h.Last.Max != 1.5 {
				t.Errorf("last=%+v", h.Last)
			}
			if countsTotal(h.Last.Counts) != 4 {
				t.Errorf("total=%d", countsTotal(h.Last.Counts))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMissingArray(t *testing.T) {
	h := NewHistogram(nil, "absent", grid.CellData, 4)
	d := &meshAdaptor{mesh: cellMesh([]float64{1})}
	if _, err := h.Execute(d); err == nil {
		t.Fatal("expected error")
	}
}

func TestHistogramMemoryTracked(t *testing.T) {
	mem := metrics.NewTracker()
	h := NewHistogram(nil, "data", grid.CellData, 16)
	h.Memory = mem
	if _, err := h.Compute(0, cellMesh([]float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if mem.HighWater() != 16*8 {
		t.Fatalf("high water=%d", mem.HighWater())
	}
	if mem.Current() != 0 {
		t.Fatalf("bins leaked: %d", mem.Current())
	}
}

func TestAutocorrelationSerialKnownSignal(t *testing.T) {
	// Single cell with signal 1, 2, 3, 4:
	// delay 1: 2*1 + 3*2 + 4*3 = 20
	// delay 2: 3*1 + 4*2 = 11
	ac := NewAutocorrelation(nil, "data", grid.CellData, 2, 1)
	for step, v := range []float64{1, 2, 3, 4} {
		mesh := cellMesh([]float64{v})
		d := &meshAdaptor{mesh: mesh}
		d.SetStep(step, float64(step))
		if _, err := ac.Execute(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := ac.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := ac.Top[0][0].Value; got != 20 {
		t.Fatalf("delay-1 corr=%v", got)
	}
	if got := ac.Top[1][0].Value; got != 11 {
		t.Fatalf("delay-2 corr=%v", got)
	}
}

func TestAutocorrelationFindsPeriodicCenter(t *testing.T) {
	// The paper: for periodic oscillators, the top-k reduction identifies
	// the oscillator centers. Run the miniapp with one periodic oscillator
	// and check the winning cell is the center cell.
	cfg := oscillator.Config{
		GlobalCells: [3]int{9, 9, 9},
		DT:          0.05,
		Steps:       30,
		Oscillators: []oscillator.Oscillator{{
			Kind:   oscillator.Periodic,
			Center: [3]float64{4.5, 4.5, 4.5}, // center of cell (4,4,4)
			Radius: 2,
			Omega0: 6.28,
		}},
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(s)
		ac := NewAutocorrelation(c, "data", grid.CellData, 5, 1)
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			d.Update()
			if _, err := ac.Execute(d); err != nil {
				return err
			}
			_ = d.ReleaseData()
		}
		if err := ac.Finalize(); err != nil {
			return err
		}
		wantCell := 4*9*9 + 4*9 + 4
		for delay := range ac.Top {
			if got := ac.Top[delay][0].Cell; got != wantCell {
				t.Errorf("delay %d: top cell %d, want center %d", delay+1, got, wantCell)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelationParallelMergesTopK(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		// Rank r's single cell has constant signal r+1; after 3 steps the
		// delay-1 correlation is 2*(r+1)^2. Top-2 must come from ranks 2,1.
		ac := NewAutocorrelation(c, "data", grid.CellData, 1, 2)
		v := float64(c.Rank() + 1)
		for step := 0; step < 3; step++ {
			d := &meshAdaptor{mesh: cellMesh([]float64{v})}
			d.SetStep(step, 0)
			if _, err := ac.Execute(d); err != nil {
				return err
			}
		}
		if err := ac.Finalize(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			top := ac.Top[0]
			if len(top) != 2 || top[0].Rank != 2 || top[0].Value != 18 || top[1].Rank != 1 || top[1].Value != 8 {
				t.Errorf("top=%v", top)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelationMemoryAccounting(t *testing.T) {
	mem := metrics.NewTracker()
	ac := NewAutocorrelation(nil, "data", grid.CellData, 4, 1)
	ac.Memory = mem
	d := &meshAdaptor{mesh: cellMesh(make([]float64, 10))}
	if _, err := ac.Execute(d); err != nil {
		t.Fatal(err)
	}
	want := int64(2 * 4 * 10 * 8)
	if mem.Current() != want {
		t.Fatalf("tracked=%d want %d", mem.Current(), want)
	}
	if ac.BufferBytes() != want {
		t.Fatalf("BufferBytes=%d", ac.BufferBytes())
	}
}

func TestAutocorrelationRejectsShapeChange(t *testing.T) {
	ac := NewAutocorrelation(nil, "data", grid.CellData, 2, 1)
	d1 := &meshAdaptor{mesh: cellMesh([]float64{1, 2})}
	if _, err := ac.Execute(d1); err != nil {
		t.Fatal(err)
	}
	d2 := &meshAdaptor{mesh: cellMesh([]float64{1})}
	if _, err := ac.Execute(d2); err == nil {
		t.Fatal("expected shape-change error")
	}
}

func TestAutocorrelationFinalizeWithoutExecute(t *testing.T) {
	ac := NewAutocorrelation(nil, "data", grid.CellData, 2, 1)
	if err := ac.Finalize(); err != nil {
		t.Fatal(err)
	}
	if ac.Top != nil {
		t.Fatal("unexpected results")
	}
}

func TestTopK(t *testing.T) {
	v := []float64{3, 9, 1, 7, 5}
	top := topK(v, 3, 2)
	if len(top) != 3 || top[0].Value != 9 || top[1].Value != 7 || top[2].Value != 5 {
		t.Fatalf("top=%v", top)
	}
	if top[0].Cell != 1 || top[0].Rank != 2 {
		t.Fatalf("metadata=%v", top[0])
	}
	// k larger than data.
	top = topK([]float64{2, 1}, 5, 0)
	if len(top) != 2 || top[0].Value != 2 {
		t.Fatalf("top=%v", top)
	}
}

func TestFactoriesRegistered(t *testing.T) {
	b := core.NewBridge(nil, nil, nil)
	doc := []byte(`<sensei>
		<analysis type="histogram" array="data" bins="8"/>
		<analysis type="autocorrelation" array="data" window="4" k-max="2"/>
	</sensei>`)
	if err := core.ConfigureFromXML(b, doc); err != nil {
		t.Fatal(err)
	}
	if b.AnalysisCount() != 2 {
		t.Fatalf("count=%d", b.AnalysisCount())
	}
}

func TestCompressionRatioAndErrorBound(t *testing.T) {
	// A smooth field compresses well; reconstruction stays within the
	// guaranteed bound.
	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i) / 100)
	}
	cp := NewCompression(nil, "data", grid.CellData, 12)
	cp.KeepPayload = true
	d := &meshAdaptor{mesh: cellMesh(vals)}
	d.SetStep(3, 0.3)
	if _, err := cp.Execute(d); err != nil {
		t.Fatal(err)
	}
	r := cp.Last
	if r == nil || r.Step != 3 {
		t.Fatalf("result=%+v", r)
	}
	if r.Ratio < 2 {
		t.Fatalf("smooth field ratio %.2f too low", r.Ratio)
	}
	bound := quantizationBound(cp.Bits, -1, 1)
	if r.MaxError > bound+1e-15 {
		t.Fatalf("max error %v exceeds bound %v", r.MaxError, bound)
	}
	var out strings.Builder
	cp.Report(&out)
	want := fmt.Sprintf("compress data: step=3 raw=%d compressed=%d max-error=%.17g\n", n*8, r.CompressedBytes, r.MaxError)
	if out.String() != want {
		t.Fatalf("report %q, want %q", out.String(), want)
	}
}

// quantizationBound is the guaranteed maximum absolute error of bits-bit
// quantization over the global range [lo, hi]: half a quantization step.
func quantizationBound(bits int, lo, hi float64) float64 {
	return (hi - lo) / float64(uint64(1)<<bits-1) / 2
}

func TestCompressionMoreBitsLessError(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i%97) * 1.37
	}
	errAt := func(bits int) float64 {
		cp := NewCompression(nil, "data", grid.CellData, bits)
		d := &meshAdaptor{mesh: cellMesh(vals)}
		if _, err := cp.Execute(d); err != nil {
			t.Fatal(err)
		}
		return cp.Last.MaxError
	}
	e4, e8, e16 := errAt(4), errAt(8), errAt(16)
	if !(e4 > e8 && e8 > e16) {
		t.Fatalf("error not decreasing with bits: %v %v %v", e4, e8, e16)
	}
}

func TestCompressionParallelAggregates(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		vals := make([]float64, 100)
		for i := range vals {
			vals[i] = float64(c.Rank())
		}
		cp := NewCompression(c, "data", grid.CellData, 8)
		d := &meshAdaptor{mesh: cellMesh(vals)}
		if _, err := cp.Execute(d); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if cp.Last.RawBytes != 3*100*8 {
				t.Errorf("raw=%d", cp.Last.RawBytes)
			}
			if cp.Last.CompressedBytes <= 0 || cp.Last.Ratio <= 1 {
				t.Errorf("result=%+v", cp.Last)
			}
			// Constant-per-rank data reconstructs exactly (values hit
			// quantization levels 0, mid, max... within bound anyway).
			if cp.Last.MaxError > quantizationBound(cp.Bits, 0, 2) {
				t.Errorf("error=%v", cp.Last.MaxError)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressionConstantField(t *testing.T) {
	cp := NewCompression(nil, "data", grid.CellData, 8)
	d := &meshAdaptor{mesh: cellMesh([]float64{5, 5, 5, 5})}
	if _, err := cp.Execute(d); err != nil {
		t.Fatal(err)
	}
	if cp.Last.MaxError != 0 {
		t.Fatalf("constant field error=%v", cp.Last.MaxError)
	}
}

func TestCompressionFactory(t *testing.T) {
	b := core.NewBridge(nil, nil, nil)
	if err := core.ConfigureFromXML(b, []byte(`<sensei><analysis type="compress" array="data" bits="10"/></sensei>`)); err != nil {
		t.Fatal(err)
	}
	if b.AnalysisCount() != 1 {
		t.Fatal("compress factory missing")
	}
}

func TestCompressionMemoryTracked(t *testing.T) {
	mem := metrics.NewTracker()
	cp := NewCompression(nil, "data", grid.CellData, 8)
	cp.Memory = mem
	d := &meshAdaptor{mesh: cellMesh(make([]float64, 256))}
	if _, err := cp.Execute(d); err != nil {
		t.Fatal(err)
	}
	if mem.Current() <= 0 {
		t.Fatal("payload not tracked")
	}
	if err := cp.Finalize(); err != nil {
		t.Fatal(err)
	}
	if mem.Current() != 0 {
		t.Fatal("payload leaked")
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
