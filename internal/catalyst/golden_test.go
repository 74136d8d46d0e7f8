package catalyst

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gosensei/internal/golden"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

// goldenSlices are the PNGs the slice pipeline wrote at the commit before the
// adaptors moved onto the shared image tail (PR 17's parent): four steps of
// the 16³ oscillator deck at 64×48 — the same bytes at every rank count — and
// the two-tet unstructured mesh of unstructured_test.go.
var goldenSlices = map[string]string{
	"structured/slice_00001.png": "034b02bfa54ad1a30c35af3be433530e81616c327d1678c07cb67a1c5d7834e0",
	"structured/slice_00002.png": "b7ec20dc7a54af23203f627841ee930e58be187e59d37c073e465122c72844e9",
	"structured/slice_00003.png": "67ab0b443d975cea5fd6be18513076e8f0157da3a1e5de225713073a7db9c4e1",
	"structured/slice_00004.png": "e5a262adad9bc1388f0066599ad52d9abe2eb9ee31bbbbbcdb3beab34948cc65",
	"tets/slice_00001.png":       "33ab49dd3b28ed8575a739d0146173e7c5bfa664e751892d5444119d4b2f0553",
}

func TestGoldenImages(t *testing.T) {
	golden.SkipUnlessAMD64(t)
	sliceOpts := func(dir string) Options {
		return Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: 64, Height: 48, SliceAxis: 2, SliceCoord: 8,
			OutputDir: dir,
		}
	}
	// The deck is identically zero at step 1; every later frame shows it.
	firstIsFlat := []string{"structured/slice_00001.png"}

	// The structured slice resamples cell data pixel by pixel, so the image
	// does not depend on how the domain is decomposed.
	for p := 1; p <= 4; p++ {
		t.Run(fmt.Sprintf("structured P=%d", p), func(t *testing.T) {
			dir := t.TempDir()
			runMiniapp(t, p, 4, func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) *SliceAdaptor {
				a := NewSliceAdaptor(c, sliceOpts(dir))
				a.Registry = reg
				return a
			})
			got, blank := golden.Dir(t, dir, "structured/")
			golden.Compare(t, got, goldenSlices, "structured/")
			if !slices.Equal(blank, firstIsFlat) {
				t.Errorf("flat frames %v, want %v", blank, firstIsFlat)
			}
		})
	}

	t.Run("unstructured", func(t *testing.T) {
		dir := t.TempDir()
		err := mpi.Run(1, func(c *mpi.Comm) error {
			a := NewSliceAdaptor(c, Options{
				ArrayName: "velocity", Assoc: grid.PointData,
				Width: 64, Height: 64,
				SliceAxis: 2, SliceCoord: 0.5,
				OutputDir: dir,
			})
			d := newTetAdaptor()
			d.SetStep(1, 0.1)
			if _, err := a.Execute(d); err != nil {
				return err
			}
			return a.Finalize()
		})
		if err != nil {
			t.Fatal(err)
		}
		got, blank := golden.Dir(t, dir, "tets/")
		golden.Compare(t, got, goldenSlices, "tets/")
		if len(blank) != 0 {
			t.Errorf("flat frames %v", blank)
		}
	})

	// With a live hub and an output directory the viewers and the file get
	// the same encode.
	t.Run("hub and dir", func(t *testing.T) {
		dir := t.TempDir()
		var frame []byte
		var last int
		runMiniapp(t, 2, 4, func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) *SliceAdaptor {
			o := sliceOpts(dir)
			o.Publish = func(step, w, h int, png []byte) {
				frame, last = bytes.Clone(png), step
			}
			a := NewSliceAdaptor(c, o)
			a.Registry = reg
			return a
		})
		got, _ := golden.Dir(t, dir, "structured/")
		golden.Compare(t, got, goldenSlices, "structured/")
		file, err := os.ReadFile(filepath.Join(dir, "slice_00004.png"))
		if err != nil {
			t.Fatal(err)
		}
		if last != 4 || !bytes.Equal(frame, file) {
			t.Errorf("published step %d, %d bytes; the file of step 4 has %d bytes and must be identical", last, len(frame), len(file))
		}
	})
}
