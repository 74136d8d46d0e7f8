package catalyst

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/mpi"
)

// tetAdaptor serves a two-tet unstructured mesh with a nodal velocity.
type tetAdaptor struct {
	core.BaseDataAdaptor
	mesh *grid.UnstructuredGrid
}

func newTetAdaptor() *tetAdaptor {
	pts := array.WrapAOS("points", 3, []float64{
		0, 0, 0,
		2, 0, 0,
		0, 2, 0,
		0, 0, 2,
		2, 2, 2,
	})
	g := grid.NewUnstructuredGrid(pts, grid.CellTetrahedron, []int64{0, 1, 2, 3, 1, 2, 3, 4})
	vel := array.WrapAOS("velocity", 3, []float64{
		1, 0, 0,
		2, 0, 0,
		0, 3, 0,
		0, 0, 4,
		1, 1, 1,
	})
	g.Attributes(grid.PointData).Add(vel)
	return &tetAdaptor{mesh: g}
}

func (a *tetAdaptor) Mesh(bool) (grid.Dataset, error) { return a.mesh, nil }
func (a *tetAdaptor) AddArray(mesh grid.Dataset, assoc grid.Association, name string) error {
	if mesh.Attributes(assoc).Get(name) == nil {
		return errNo
	}
	return nil
}
func (a *tetAdaptor) ArrayNames(assoc grid.Association) ([]string, error) {
	return a.mesh.Attributes(assoc).Names(), nil
}
func (a *tetAdaptor) ReleaseData() error { return nil }

type errString string

func (e errString) Error() string { return string(e) }

const errNo = errString("no such array")

func TestSliceAdaptorUnstructuredMesh(t *testing.T) {
	var frame []byte
	var width int
	err := mpi.Run(1, func(c *mpi.Comm) error {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "velocity", Assoc: grid.PointData,
			Width: 64, Height: 64,
			SliceAxis: 2, SliceCoord: 0.5,
			Publish: func(step, w, h int, png []byte) {
				frame, width = append([]byte(nil), png...), w
			},
		})
		d := newTetAdaptor()
		d.SetStep(1, 0.1)
		cont, err := a.Execute(d)
		if err != nil || !cont {
			return err
		}
		return a.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The slice cuts both tets: a frame must have been published.
	if len(frame) == 0 || width != 64 {
		t.Fatalf("published %d bytes at width %d", len(frame), width)
	}
}

func TestSliceAdaptorRejectsMultiBlockMesh(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "data", Assoc: grid.CellData,
			Width: 8, Height: 8,
		})
		mb := &grid.MultiBlock{}
		mb.Attributes(grid.CellData).Add(array.New[float64]("data", 1, 0))
		da := &mbAdaptor{mesh: mb}
		if _, err := a.Execute(da); err == nil {
			t.Error("multiblock mesh accepted by the slice pipeline")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type mbAdaptor struct {
	core.BaseDataAdaptor
	mesh grid.Dataset
}

func (a *mbAdaptor) Mesh(bool) (grid.Dataset, error) { return a.mesh, nil }
func (a *mbAdaptor) AddArray(mesh grid.Dataset, assoc grid.Association, name string) error {
	return nil
}
func (a *mbAdaptor) ArrayNames(assoc grid.Association) ([]string, error) { return nil, nil }
func (a *mbAdaptor) ReleaseData() error                                  { return nil }

func TestSliceAdaptorMissingArrayErrors(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "pressure", Assoc: grid.PointData,
			Width: 8, Height: 8,
		})
		d := newTetAdaptor()
		if _, err := a.Execute(d); err == nil {
			t.Error("missing array accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A frame whose bytes never landed is an error and is not counted: the
// step's file name is a link to /dev/full, which fails every write.
func TestSliceAdaptorWriteFailureIsNotCounted(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "slice_00001.png")); err != nil {
		t.Fatal(err)
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		a := NewSliceAdaptor(c, Options{
			ArrayName: "velocity", Assoc: grid.PointData,
			Width: 64, Height: 64, SliceAxis: 2, SliceCoord: 0.5,
			OutputDir: dir,
		})
		d := newTetAdaptor()
		d.SetStep(1, 0.1)
		cont, err := a.Execute(d)
		if cont || !errors.Is(err, syscall.ENOSPC) || !strings.HasPrefix(err.Error(), "catalyst: ") {
			t.Errorf("Execute = %v, %v; want false and catalyst's ENOSPC", cont, err)
		}
		if a.ImagesWritten() != 0 {
			t.Errorf("%d images counted, none landed", a.ImagesWritten())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ImagesWritten reports how many images rank 0 produced.
func (a *SliceAdaptor) ImagesWritten() int { return a.imagesOut }
