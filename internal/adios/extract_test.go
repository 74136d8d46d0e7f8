package adios

import (
	"reflect"
	"sync"
	"testing"

	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/fabric"
	"gosensei/internal/grid"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

// stagingConfig parameterizes a staged oscillator -> histogram run.
type stagingConfig struct {
	writers, readers, depth int
	cells, steps, bins      int
	opts                    []FabricOption
}

// runHistogramStaging drives the oscillator writer group through a fabric
// into an endpoint histogram and returns every per-step result plus the
// endpoint's wire odometer readings (logical, wire data bytes).
func runHistogramStaging(tb testing.TB, sc stagingConfig) ([]*analysis.HistogramResult, int64, int64) {
	tb.Helper()
	cfg := oscillator.Config{
		GlobalCells: [3]int{sc.cells, sc.cells, sc.cells},
		DT:          0.1,
		Steps:       sc.steps,
		Oscillators: oscillator.DefaultDeck(float64(sc.cells)),
	}
	fab := loopbackFabric(tb, sc.writers, sc.readers, sc.depth, sc.opts...)
	var wg sync.WaitGroup
	var writerErr, endpointErr error
	var results []*analysis.HistogramResult

	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = mpi.Run(sc.writers, func(c *mpi.Comm) error {
			s, err := oscillator.NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			w := NewWriter(c, &FlexPathTransport{Fabric: fab})
			b := core.NewBridge(c, nil, nil)
			b.AddAnalysis("adios", w)
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
	}()
	go func() {
		defer wg.Done()
		var mu sync.Mutex
		_, endpointErr = RunEndpoint(fab, func(b *core.Bridge) error {
			h := analysis.NewHistogram(b.Comm, "data", grid.CellData, sc.bins)
			if b.Comm.Rank() == 0 {
				b.AddAnalysis("capture", &captureHistogram{h: h, out: &results, mu: &mu})
			} else {
				b.AddAnalysis("histogram", h)
			}
			return nil
		})
	}()
	wg.Wait()
	if writerErr != nil {
		tb.Fatal(writerErr)
	}
	if endpointErr != nil {
		tb.Fatal(endpointErr)
	}
	st := fab.Stats()
	return results, st.DataBytesLogical.Value(), st.DataBytesWire.Value()
}

// captureHistogram wraps a Histogram and snapshots each step's result so
// runs can be compared step by step.
type captureHistogram struct {
	h   *analysis.Histogram
	out *[]*analysis.HistogramResult
	mu  *sync.Mutex
}

func (c *captureHistogram) Execute(d core.DataAdaptor) (bool, error) {
	ok, err := c.h.Execute(d)
	if err != nil {
		return ok, err
	}
	c.mu.Lock()
	*c.out = append(*c.out, c.h.Last)
	c.mu.Unlock()
	return ok, nil
}

func (c *captureHistogram) Finalize() error { return c.h.Finalize() }

// TestExtractShippingBitIdentical is the extract-mode contract: negotiating
// "only ship the histogram" must leave the endpoint's per-step results
// bit-identical to raw-container staging — the writers agree on the global
// range with the same exact reduction and bin with the same kernel — while
// moving far fewer bytes.
func TestExtractShippingBitIdentical(t *testing.T) {
	const bins = 16
	spec := fabric.ExtractSpec{
		Kind:  fabric.ExtractHistogram,
		Assoc: uint8(grid.CellData),
		Bins:  bins,
		Array: "data",
	}
	for _, geom := range []struct {
		name               string
		nWriters, nReaders int
	}{
		{"1to1", 2, 2},
		{"fanin", 4, 1},
	} {
		t.Run(geom.name, func(t *testing.T) {
			base := stagingConfig{writers: geom.nWriters, readers: geom.nReaders,
				depth: 2, cells: 8, steps: 4, bins: bins}
			ext := base
			ext.opts = []FabricOption{WithExtract(spec), WithCodecs(fabric.CodecDelta)}
			raw, _, rawWire := runHistogramStaging(t, base)
			extRes, _, extWire := runHistogramStaging(t, ext)
			if len(raw) == 0 || len(raw) != len(extRes) {
				t.Fatalf("step counts: raw %d extract %d", len(raw), len(extRes))
			}
			for i := range raw {
				if raw[i].Min != extRes[i].Min || raw[i].Max != extRes[i].Max ||
					!reflect.DeepEqual(raw[i].Counts, extRes[i].Counts) {
					t.Fatalf("step %d differs:\nraw:     %+v\nextract: %+v", i, raw[i], extRes[i])
				}
				if n := countsTotal(raw[i].Counts); n != 8*8*8 {
					t.Fatalf("step %d: %d cells counted, want %d", i, n, 8*8*8)
				}
			}
			// The reduced product must be dramatically smaller than the full
			// containers: 8^3 float64 cells vs bins int64 counts per writer.
			if extWire*10 > rawWire {
				t.Errorf("extract shipped %d wire bytes vs raw %d — no real reduction", extWire, rawWire)
			}
		})
	}
}

// TestExtractSliceStaging: a negotiated slice extract ships a one-cell-thick
// slab that flows through the ordinary staged-decode path, and the
// endpoint's histogram over it counts exactly one cell plane. Two writers
// split the 8^3 domain along x, so the x=0.5 plane hits only writer 0 —
// writer 1 ships the empty marker, exercising the heard-from-without-data
// path end to end.
func TestExtractSliceStaging(t *testing.T) {
	spec := fabric.ExtractSpec{
		Kind:  fabric.ExtractSlice,
		Assoc: uint8(grid.CellData),
		Axis:  0,
		Coord: 0.5, // x-cell layer 0 of the [0,8)^3 unit-spacing domain
		Array: "data",
	}
	results, _, _ := runHistogramStaging(t, stagingConfig{writers: 2, readers: 1,
		depth: 2, cells: 8, steps: 4, bins: 8,
		opts: []FabricOption{WithExtract(spec), WithCodecs(fabric.CodecFlate)}})
	if len(results) == 0 {
		t.Fatal("no steps analyzed")
	}
	for i, r := range results {
		if countsTotal(r.Counts) != 8*8 {
			t.Fatalf("step %d: sliced histogram counted %d cells, want one %dx%d plane",
				i, countsTotal(r.Counts), 8, 8)
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
