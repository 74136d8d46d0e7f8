package adios

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosensei/internal/analysis"
	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/fabric"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

// drainTimeout guards tests against a stuck fabric: it receives one message
// with a timeout, releasing its credit immediately (a drained message is by
// definition consumed).
func drainTimeout(f *Fabric, rank int, d time.Duration) (fabric.Delivery, error) {
	select {
	case del := <-f.hub.Deliveries(rank):
		del.Release()
		del.Payload = nil // went back to the hub's pool with the release
		return del, nil
	case <-time.After(d):
		return fabric.Delivery{}, fmt.Errorf("adios: no message within %v", d)
	}
}

func sampleImage() *grid.ImageData {
	img := grid.NewImageData(grid.Extent{1, 4, 0, 2, 0, 2})
	img.Origin = [3]float64{0.5, 0, 0}
	img.Spacing = [3]float64{1, 1, 2}
	nc := img.NumberOfCells()
	vals := make([]float64, nc)
	for i := range vals {
		vals[i] = float64(i) - 3.5
	}
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, vals))
	np := img.NumberOfPoints()
	pv := make([]float64, np*2)
	for i := range pv {
		pv[i] = float64(i) * 0.25
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("uv", 2, pv))
	return img
}

func TestBPRoundTrip(t *testing.T) {
	img := sampleImage()
	payload := EncodeStep(img, 9, 4.5)
	got, step, tm, err := DecodeStep(payload)
	if err != nil {
		t.Fatal(err)
	}
	if step != 9 || tm != 4.5 {
		t.Fatalf("step=%d time=%v", step, tm)
	}
	if got.Extent != img.Extent || got.Origin != img.Origin || got.Spacing != img.Spacing {
		t.Fatal("geometry lost")
	}
	a := got.Attributes(grid.CellData).Get("data")
	if a == nil || a.Tuples() != img.NumberOfCells() {
		t.Fatal("cell array lost")
	}
	for i := 0; i < a.Tuples(); i++ {
		if a.Value(i, 0) != float64(i)-3.5 {
			t.Fatalf("value %d = %v", i, a.Value(i, 0))
		}
	}
	uv := got.Attributes(grid.PointData).Get("uv")
	if uv == nil || uv.Components() != 2 {
		t.Fatal("point array lost")
	}
	if uv.Value(3, 1) != float64(3*2+1)*0.25 {
		t.Fatalf("uv(3,1)=%v", uv.Value(3, 1))
	}
}

func TestBPDecodeRejectsCorruption(t *testing.T) {
	img := sampleImage()
	payload := EncodeStep(img, 0, 0)
	// Bad magic.
	bad := append([]byte{}, payload...)
	bad[0] ^= 0xFF
	if _, _, _, err := DecodeStep(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncation at various points.
	for _, cut := range []int{3, 10, 60, len(payload) / 2, len(payload) - 4} {
		if _, _, _, err := DecodeStep(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Wraparound extent: lo=MinInt64 with hi=MaxInt64 overflows both lo-1
	// and hi-lo, so the difference checks alone would pass it; the
	// per-coordinate bound must reject it. The extent starts at byte 8
	// (after magic and version), axis 0 lo then hi.
	wrap := append([]byte{}, payload...)
	binary.LittleEndian.PutUint64(wrap[8:], 1<<63) // MinInt64 bit pattern
	binary.LittleEndian.PutUint64(wrap[16:], math.MaxInt64)
	if _, _, _, err := DecodeStep(wrap); err == nil {
		t.Fatal("wraparound extent accepted")
	}
}

func TestFabricBackpressure(t *testing.T) {
	f := loopbackFabric(t, 1, 1, 1)
	tr := &FlexPathTransport{Fabric: f}
	done := make(chan struct{})
	go func() {
		// Two writes: the second must block until the reader drains one.
		_ = tr.WriteStep(0, []byte{1}, 0)
		_ = tr.WriteStep(0, []byte{2}, 1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second write did not block on full queue")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := drainTimeout(f, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("writer still blocked after drain")
	}
	if _, err := drainTimeout(f, 0, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestWriterEndpointHistogram(t *testing.T) {
	// Full staging round trip: oscillator writers -> FlexPath -> endpoint
	// histogram, with writer and endpoint as two concurrent "executables".
	const n = 4
	cfg := oscillator.Config{
		GlobalCells: [3]int{8, 8, 8},
		DT:          0.1,
		Steps:       3,
		Oscillators: oscillator.DefaultDeck(8),
	}
	fabric := loopbackFabric(t, n, n, 1)
	var wg sync.WaitGroup
	var writerErr, endpointErr error
	var res *EndpointResult
	var hist *analysis.Histogram

	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = mpi.Run(n, func(c *mpi.Comm) error {
			s, err := oscillator.NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			w := NewWriter(c, &FlexPathTransport{Fabric: fabric})
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
		res, endpointErr = RunEndpoint(fabric, func(b *core.Bridge) error {
			h := analysis.NewHistogram(b.Comm, "data", grid.CellData, 8)
			if b.Comm.Rank() == 0 {
				hist = h
			}
			b.AddAnalysis("histogram", h)
			return nil
		})
	}()
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	if endpointErr != nil {
		t.Fatal(endpointErr)
	}
	if res.Steps != cfg.Steps {
		t.Fatalf("endpoint consumed %d steps, want %d", res.Steps, cfg.Steps)
	}
	if hist == nil || hist.Last == nil {
		t.Fatal("no histogram computed at the endpoint")
	}
	if n := countsTotal(hist.Last.Counts); n != 8*8*8 {
		t.Fatalf("endpoint histogram total=%d want %d", n, 8*8*8)
	}
	// The endpoint's instrumentation includes the init and decode phases.
	reg := res.Registries[0]
	if reg.Timer("endpoint::initialize").Count() != 1 {
		t.Fatal("endpoint init not timed")
	}
	if reg.Timer("endpoint::decode").Count() != cfg.Steps {
		t.Fatal("decodes not timed")
	}
}

func TestWriterTimersAndMemory(t *testing.T) {
	fabric := loopbackFabric(t, 1, 1, 4)
	mem := metrics.NewTracker()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, oscillator.Config{
			GlobalCells: [3]int{4, 4, 4}, DT: 0.1, Steps: 1,
			Oscillators: oscillator.DefaultDeck(4),
		}, nil)
		if err != nil {
			return err
		}
		if err := s.Step(); err != nil {
			return err
		}
		w := NewWriter(c, &FlexPathTransport{Fabric: fabric})
		w.Memory = mem
		d := oscillator.NewDataAdaptor(s)
		d.Update()
		if _, err := w.Execute(d); err != nil {
			return err
		}
		if w.Registry.Timer("adios::advance").Count() != 1 {
			t.Error("advance not timed")
		}
		if w.Registry.Timer("adios::analysis").Count() != 1 {
			t.Error("analysis not timed")
		}
		// FlexPath is not zero-copy: the staging buffer was accounted.
		if mem.HighWater() < 4*4*4*8 {
			t.Errorf("stage buffer not tracked: high water %d", mem.HighWater())
		}
		if mem.Current() != 0 {
			t.Errorf("stage buffer leaked: %d", mem.Current())
		}
		return w.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step + EOS are queued.
	if m, err := drainTimeout(fabric, 0, time.Second); err != nil || m.EOS {
		t.Fatalf("first message: %+v %v", m, err)
	}
	if m, err := drainTimeout(fabric, 0, time.Second); err != nil || !m.EOS {
		t.Fatalf("second message should be EOS: %+v %v", m, err)
	}
}

func TestBPFileTransport(t *testing.T) {
	dir := t.TempDir()
	tr := &BPFileTransport{Dir: dir}
	img := sampleImage()
	payload := EncodeStep(img, 2, 0.2)
	if err := tr.WriteStep(0, payload, 2); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "step00002_rank00000.bp"))
	if err != nil {
		t.Fatal(err)
	}
	got, step, _, err := DecodeStep(data)
	if err != nil {
		t.Fatal(err)
	}
	if step != 2 || got.NumberOfCells() != img.NumberOfCells() {
		t.Fatal("bp file round trip failed")
	}
}

func TestFactoryBPFile(t *testing.T) {
	dir := t.TempDir()
	err := mpi.Run(1, func(c *mpi.Comm) error {
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="adios" transport="bp-file" dir="` + dir + `"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err != nil {
			return err
		}
		if b.AnalysisCount() != 1 {
			t.Error("adios factory missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// FlexPath via XML must be rejected with guidance.
	err = mpi.Run(1, func(c *mpi.Comm) error {
		b := core.NewBridge(c, nil, nil)
		doc := []byte(`<sensei><analysis type="adios" transport="flexpath"/></sensei>`)
		if err := core.ConfigureFromXML(b, doc); err == nil {
			t.Error("flexpath via XML accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStagedDataAdaptor(t *testing.T) {
	img := sampleImage()
	da := &core.StagedDataAdaptor{Data: img}
	da.SetStep(4, 0.4)
	mesh, err := da.Mesh(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(mesh, grid.CellData, "data"); err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(mesh, grid.CellData, "absent"); err == nil {
		t.Fatal("absent array accepted")
	}
	names, _ := da.ArrayNames(grid.PointData)
	if len(names) != 1 || names[0] != "uv" {
		t.Fatalf("names=%v", names)
	}
	if err := da.ReleaseData(); err != nil || da.Data != nil {
		t.Fatal("release failed")
	}
}

func TestFabricNMMapping(t *testing.T) {
	f := loopbackFabric(t, 8, 2, 1)
	if f.nWriters != 8 || f.Pairs() != 2 {
		t.Fatalf("shape: %d writers %d readers", f.nWriters, f.Pairs())
	}
	// Contiguous blocks: writers 0-3 -> reader 0, 4-7 -> reader 1.
	for w := 0; w < 8; w++ {
		want := w / 4
		if got := f.ReaderOf(w); got != want {
			t.Errorf("ReaderOf(%d)=%d want %d", w, got, want)
		}
	}
	if ws := f.WritersOf(1); len(ws) != 4 || ws[0] != 4 || ws[3] != 7 {
		t.Fatalf("WritersOf(1)=%v", ws)
	}
}

func TestFanInEndpointHistogram(t *testing.T) {
	// 4 writers -> 2 readers: the in transit configuration where a smaller
	// analysis allocation drains a larger simulation. Every cell must be
	// counted exactly once.
	const nWriters, nReaders = 4, 2
	cfg := oscillator.Config{
		GlobalCells: [3]int{8, 8, 8},
		DT:          0.1,
		Steps:       3,
		Oscillators: oscillator.DefaultDeck(8),
	}
	fabric := loopbackFabric(t, nWriters, nReaders, 2)
	var wg sync.WaitGroup
	var writerErr, endpointErr error
	var res *EndpointResult
	var hist *analysis.Histogram

	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = mpi.Run(nWriters, func(c *mpi.Comm) error {
			s, err := oscillator.NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			w := NewWriter(c, &FlexPathTransport{Fabric: fabric})
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
		res, endpointErr = RunEndpoint(fabric, func(b *core.Bridge) error {
			h := analysis.NewHistogram(b.Comm, "data", grid.CellData, 8)
			if b.Comm.Rank() == 0 {
				hist = h
			}
			b.AddAnalysis("histogram", h)
			return nil
		})
	}()
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	if endpointErr != nil {
		t.Fatal(endpointErr)
	}
	if res.Steps != cfg.Steps {
		t.Fatalf("endpoint steps=%d want %d", res.Steps, cfg.Steps)
	}
	if hist == nil || hist.Last == nil {
		t.Fatal("no histogram at fan-in endpoint")
	}
	if countsTotal(hist.Last.Counts) != 8*8*8 {
		t.Fatalf("fan-in histogram total=%d want %d (blocks lost or double-counted)", countsTotal(hist.Last.Counts), 8*8*8)
	}
}

func TestStagedAdaptorMultiBlock(t *testing.T) {
	a := sampleImage()
	b := sampleImage()
	mb := &grid.MultiBlock{Blocks: []grid.Dataset{a, b}}
	da := &core.StagedDataAdaptor{Data: mb}
	mesh, err := da.Mesh(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(mesh, grid.CellData, "data"); err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(mesh, grid.CellData, "absent"); err == nil {
		t.Fatal("absent array accepted in multiblock")
	}
	names, _ := da.ArrayNames(grid.PointData)
	if len(names) != 1 || names[0] != "uv" {
		t.Fatalf("names=%v", names)
	}
}

// fabricSeq names the tests' fabrics apart on the loopback registry.
var fabricSeq atomic.Int64

// loopbackFabric is an in-process fabric for nWriters producers and
// nReaders analysis ranks: the staging traffic runs over the loopback wire,
// the same framing, credit and release code paths as a TCP deployment,
// deterministically.
func loopbackFabric(tb testing.TB, nWriters, nReaders, depth int, opts ...FabricOption) *Fabric {
	tb.Helper()
	f, err := ListenFabric("loopback", fmt.Sprintf("adios-test/%d", fabricSeq.Add(1)), nWriters, nReaders, depth, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}
