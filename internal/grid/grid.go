// Package grid implements the dataset types of the reproduction's VTK-like
// data model: uniform image data, rectilinear grids, unstructured grids, and
// multi-block collections, each carrying named point- and cell-centered
// arrays (package array) and optional ghost-level markers.
//
// These are the dataset shapes the SC16 SENSEI paper's applications exercise:
// the oscillator miniapp and Nyx use uniform/rectilinear grids with ghost
// blanking; AVF-LESLIE uses Cartesian grids; PHASTA uses unstructured meshes
// where nodal arrays are zero-copy but connectivity is a full copy.
package grid

import (
	"fmt"
	"math"

	"gosensei/internal/array"
)

// Association selects point- or cell-centered data.
type Association int

// Data associations.
const (
	PointData Association = iota
	CellData
)

func (a Association) String() string {
	if a == PointData {
		return "point"
	}
	return "cell"
}

// GhostArrayName is the reserved name of the uint8 ghost-level array, after
// VTK's vtkGhostLevels. A value of 0 marks a real element; values >= 1 mark
// ghost copies owned by another rank that analyses must blank out.
const GhostArrayName = "vtkGhostLevels"

// FieldData is an ordered collection of named arrays.
type FieldData struct {
	arrays []array.Array
}

// Add appends or replaces the array by name.
func (f *FieldData) Add(a array.Array) {
	for i, x := range f.arrays {
		if x.Name() == a.Name() {
			f.arrays[i] = a
			return
		}
	}
	f.arrays = append(f.arrays, a)
}

// Get returns the named array, or nil if absent.
func (f *FieldData) Get(name string) array.Array {
	for _, x := range f.arrays {
		if x.Name() == name {
			return x
		}
	}
	return nil
}

// Names lists the array names in insertion order.
func (f *FieldData) Names() []string {
	out := make([]string, len(f.arrays))
	for i, x := range f.arrays {
		out[i] = x.Name()
	}
	return out
}

// Len returns the number of arrays.
func (f *FieldData) Len() int { return len(f.arrays) }

// At returns the i-th array in insertion order.
func (f *FieldData) At(i int) array.Array { return f.arrays[i] }

// ByteSize sums the payload sizes of all arrays.
func (f *FieldData) ByteSize() int64 {
	var n int64
	for _, x := range f.arrays {
		n += x.ByteSize()
	}
	return n
}

// Kind discriminates dataset types.
type Kind int

// Dataset kinds.
const (
	ImageKind Kind = iota
	_              // unused: keeps the kinds below at their values
	UnstructuredKind
	MultiBlockKind
)

func (k Kind) String() string {
	switch k {
	case ImageKind:
		return "image"
	case UnstructuredKind:
		return "unstructured"
	case MultiBlockKind:
		return "multiblock"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dataset is the common interface over all mesh types.
type Dataset interface {
	Kind() Kind
	NumberOfPoints() int
	NumberOfCells() int
	// Attributes returns the field data for the given association.
	Attributes(Association) *FieldData
	// Bounds returns the axis-aligned bounding box
	// [xmin xmax ymin ymax zmin zmax].
	Bounds() [6]float64
	// ByteSize returns the total memory footprint of mesh plus attributes.
	ByteSize() int64
}

// ImageData is a uniform Cartesian grid defined by a point extent, an origin,
// and per-axis spacing — VTK's vtkImageData.
type ImageData struct {
	Extent  Extent
	Origin  [3]float64
	Spacing [3]float64
	pd, cd  FieldData
}

// NewImageData returns a grid over the given point extent with unit spacing
// at the origin.
func NewImageData(ext Extent) *ImageData {
	return &ImageData{Extent: ext, Spacing: [3]float64{1, 1, 1}}
}

// Kind implements Dataset.
func (g *ImageData) Kind() Kind { return ImageKind }

// NumberOfPoints implements Dataset.
func (g *ImageData) NumberOfPoints() int { return g.Extent.NumPoints() }

// NumberOfCells implements Dataset.
func (g *ImageData) NumberOfCells() int { return g.Extent.NumCells() }

// Attributes implements Dataset.
func (g *ImageData) Attributes(a Association) *FieldData {
	if a == PointData {
		return &g.pd
	}
	return &g.cd
}

// Bounds implements Dataset.
func (g *ImageData) Bounds() [6]float64 {
	var b [6]float64
	for ax := 0; ax < 3; ax++ {
		b[2*ax] = g.Origin[ax] + float64(g.Extent[2*ax])*g.Spacing[ax]
		b[2*ax+1] = g.Origin[ax] + float64(g.Extent[2*ax+1])*g.Spacing[ax]
	}
	return b
}

// ByteSize implements Dataset. The mesh itself is implicit (a few scalars);
// only attributes contribute.
func (g *ImageData) ByteSize() int64 { return g.pd.ByteSize() + g.cd.ByteSize() }

// PointPosition returns the world coordinates of global point (i, j, k).
func (g *ImageData) PointPosition(i, j, k int) (x, y, z float64) {
	return g.Origin[0] + float64(i)*g.Spacing[0],
		g.Origin[1] + float64(j)*g.Spacing[1],
		g.Origin[2] + float64(k)*g.Spacing[2]
}

// Cell types for unstructured grids, matching VTK's numbering for the types
// this reproduction uses.
const (
	CellTriangle    uint8 = 5
	CellQuad        uint8 = 9
	CellTetrahedron uint8 = 10
	CellHexahedron  uint8 = 12
)

// CellTypePoints returns the number of points of a (fixed-size) cell type.
func CellTypePoints(t uint8) int {
	switch t {
	case CellTriangle:
		return 3
	case CellQuad:
		return 4
	case CellTetrahedron:
		return 4
	case CellHexahedron:
		return 8
	}
	panic(fmt.Sprintf("grid: unknown cell type %d", t))
}

// UnstructuredGrid is an explicit-connectivity mesh — VTK's
// vtkUnstructuredGrid. Points may alias simulation memory (zero-copy);
// connectivity is owned by the grid (a full copy, as the paper's PHASTA
// adaptor describes).
type UnstructuredGrid struct {
	// Points holds the node coordinates as a 3-component array; it may be
	// AOS or SOA and may wrap caller-owned buffers.
	Points array.Array
	// CellTypes holds one VTK cell type per cell.
	CellTypes []uint8
	// Connectivity holds point ids, cell after cell; Offsets[i] is the start
	// of cell i's points and Offsets[len(CellTypes)] == len(Connectivity).
	Connectivity []int64
	Offsets      []int64
	pd, cd       FieldData
}

// NewUnstructuredGrid builds a mesh from points and homogeneous cells of the
// given type with the given connectivity.
func NewUnstructuredGrid(points array.Array, cellType uint8, conn []int64) *UnstructuredGrid {
	if points.Components() != 3 {
		panic("grid: points must have 3 components")
	}
	npc := CellTypePoints(cellType)
	if len(conn)%npc != 0 {
		panic(fmt.Sprintf("grid: connectivity length %d not a multiple of %d", len(conn), npc))
	}
	nc := len(conn) / npc
	types := make([]uint8, nc)
	offs := make([]int64, nc+1)
	for i := range types {
		types[i] = cellType
		offs[i] = int64(i * npc)
	}
	offs[nc] = int64(len(conn))
	return &UnstructuredGrid{Points: points, CellTypes: types, Connectivity: conn, Offsets: offs}
}

// Kind implements Dataset.
func (g *UnstructuredGrid) Kind() Kind { return UnstructuredKind }

// NumberOfPoints implements Dataset.
func (g *UnstructuredGrid) NumberOfPoints() int { return g.Points.Tuples() }

// NumberOfCells implements Dataset.
func (g *UnstructuredGrid) NumberOfCells() int { return len(g.CellTypes) }

// Attributes implements Dataset.
func (g *UnstructuredGrid) Attributes(a Association) *FieldData {
	if a == PointData {
		return &g.pd
	}
	return &g.cd
}

// CellPoints returns the point ids of cell i (a view into Connectivity).
func (g *UnstructuredGrid) CellPoints(i int) []int64 {
	return g.Connectivity[g.Offsets[i]:g.Offsets[i+1]]
}

// Bounds implements Dataset.
func (g *UnstructuredGrid) Bounds() [6]float64 {
	b := [6]float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
	for i := 0; i < g.Points.Tuples(); i++ {
		for ax := 0; ax < 3; ax++ {
			v := g.Points.Value(i, ax)
			if v < b[2*ax] {
				b[2*ax] = v
			}
			if v > b[2*ax+1] {
				b[2*ax+1] = v
			}
		}
	}
	if g.Points.Tuples() == 0 {
		return [6]float64{}
	}
	return b
}

// ByteSize implements Dataset.
func (g *UnstructuredGrid) ByteSize() int64 {
	mesh := g.Points.ByteSize() + int64(len(g.CellTypes)) + int64(len(g.Connectivity)+len(g.Offsets))*8
	return mesh + g.pd.ByteSize() + g.cd.ByteSize()
}

// MultiBlock is a collection of datasets, one per block. Entries may be nil
// for blocks resident on other ranks (VTK's vtkMultiBlockDataSet convention).
type MultiBlock struct {
	Blocks []Dataset
	pd, cd FieldData
}

// Kind implements Dataset.
func (g *MultiBlock) Kind() Kind { return MultiBlockKind }

// NumberOfPoints implements Dataset (local blocks only).
func (g *MultiBlock) NumberOfPoints() int {
	n := 0
	for _, b := range g.Blocks {
		if b != nil {
			n += b.NumberOfPoints()
		}
	}
	return n
}

// NumberOfCells implements Dataset (local blocks only).
func (g *MultiBlock) NumberOfCells() int {
	n := 0
	for _, b := range g.Blocks {
		if b != nil {
			n += b.NumberOfCells()
		}
	}
	return n
}

// Attributes implements Dataset; multiblock-level field data is rare but the
// interface requires it.
func (g *MultiBlock) Attributes(a Association) *FieldData {
	if a == PointData {
		return &g.pd
	}
	return &g.cd
}

// Bounds implements Dataset: the union over local blocks.
func (g *MultiBlock) Bounds() [6]float64 {
	out := [6]float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
	any := false
	for _, blk := range g.Blocks {
		if blk == nil {
			continue
		}
		any = true
		b := blk.Bounds()
		for ax := 0; ax < 3; ax++ {
			if b[2*ax] < out[2*ax] {
				out[2*ax] = b[2*ax]
			}
			if b[2*ax+1] > out[2*ax+1] {
				out[2*ax+1] = b[2*ax+1]
			}
		}
	}
	if !any {
		return [6]float64{}
	}
	return out
}

// ByteSize implements Dataset (local blocks only).
func (g *MultiBlock) ByteSize() int64 {
	var n int64
	for _, b := range g.Blocks {
		if b != nil {
			n += b.ByteSize()
		}
	}
	return n + g.pd.ByteSize() + g.cd.ByteSize()
}
