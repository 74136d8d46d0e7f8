package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gosensei/internal/array"
)

func TestExtentDims(t *testing.T) {
	e := NewExtent3D(4, 3, 2)
	nx, ny, nz := e.Dims()
	if nx != 4 || ny != 3 || nz != 2 {
		t.Fatalf("dims=%d %d %d", nx, ny, nz)
	}
	if e.NumPoints() != 24 {
		t.Fatalf("points=%d", e.NumPoints())
	}
	if e.NumCells() != 3*2*1 {
		t.Fatalf("cells=%d", e.NumCells())
	}
}

func TestDims3Balanced(t *testing.T) {
	cases := map[int][3]int{
		1:  {1, 1, 1},
		8:  {2, 2, 2},
		64: {4, 4, 4},
		12: {3, 2, 2},
		7:  {7, 1, 1},
		36: {4, 3, 3},
	}
	for n, want := range cases {
		px, py, pz := Dims3(n)
		if px != want[0] || py != want[1] || pz != want[2] {
			t.Errorf("Dims3(%d) = %d,%d,%d want %v", n, px, py, pz, want)
		}
		if px*py*pz != n {
			t.Errorf("Dims3(%d) product %d", n, px*py*pz)
		}
	}
}

func TestDecomposeRegularCoversDomain(t *testing.T) {
	// Property: the union of per-rank cell counts equals the global cell
	// count (each cell owned exactly once) and every extent is valid.
	f := func(nRaw, sRaw uint8) bool {
		n := int(nRaw%16) + 1
		s := int(sRaw%20) + n + 2 // grid larger than rank count
		global := NewExtent3D(s, s, s)
		parts := DecomposeRegular(global, n)
		if len(parts) != n {
			return false
		}
		totalCells := 0
		for _, e := range parts {
			if !e.Valid() {
				return false
			}
			cx, cy, cz := e.Dims()
			totalCells += (cx - 1) * (cy - 1) * (cz - 1)
		}
		gx, gy, gz := global.Dims()
		return totalCells == (gx-1)*(gy-1)*(gz-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeRegularBalance(t *testing.T) {
	global := NewExtent3D(65, 65, 65) // 64^3 cells
	parts := DecomposeRegular(global, 8)
	for _, e := range parts {
		if e.NumCells() != 64*64*64/8 {
			t.Fatalf("unbalanced: %v has %d cells", e, e.NumCells())
		}
	}
}

func TestImageDataBasics(t *testing.T) {
	g := NewImageData(Extent{0, 3, 0, 2, 0, 1})
	g.Origin = [3]float64{1, 2, 3}
	g.Spacing = [3]float64{0.5, 1, 2}
	if g.NumberOfPoints() != 4*3*2 {
		t.Fatalf("points=%d", g.NumberOfPoints())
	}
	if g.NumberOfCells() != 3*2*1 {
		t.Fatalf("cells=%d", g.NumberOfCells())
	}
	b := g.Bounds()
	if b[0] != 1 || b[1] != 2.5 || b[2] != 2 || b[3] != 4 || b[4] != 3 || b[5] != 5 {
		t.Fatalf("bounds=%v", b)
	}
	x, y, z := g.PointPosition(2, 1, 1)
	if x != 2 || y != 3 || z != 5 {
		t.Fatalf("pos=%v %v %v", x, y, z)
	}
}

func TestFieldDataAddReplaceRemove(t *testing.T) {
	var f FieldData
	f.Add(array.New[float64]("a", 1, 2))
	f.Add(array.New[float64]("b", 1, 2))
	if f.Len() != 2 || f.Get("a") == nil {
		t.Fatal("add failed")
	}
	// Replace keeps order and count.
	repl := array.New[float32]("a", 1, 4)
	f.Add(repl)
	if f.Len() != 2 || f.Get("a").Tuples() != 4 {
		t.Fatal("replace failed")
	}
	if names := f.Names(); names[0] != "a" || names[1] != "b" {
		t.Fatalf("names=%v", names)
	}
}

func TestUnstructuredGrid(t *testing.T) {
	pts := array.WrapAOS("points", 3, []float64{
		0, 0, 0,
		1, 0, 0,
		0, 1, 0,
		0, 0, 1,
	})
	g := NewUnstructuredGrid(pts, CellTetrahedron, []int64{0, 1, 2, 3})
	if g.NumberOfPoints() != 4 || g.NumberOfCells() != 1 {
		t.Fatalf("np=%d nc=%d", g.NumberOfPoints(), g.NumberOfCells())
	}
	cp := g.CellPoints(0)
	if len(cp) != 4 || cp[3] != 3 {
		t.Fatalf("cell points=%v", cp)
	}
	b := g.Bounds()
	if b != [6]float64{0, 1, 0, 1, 0, 1} {
		t.Fatalf("bounds=%v", b)
	}
}

func TestUnstructuredGridZeroCopyPoints(t *testing.T) {
	coords := []float64{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	pts := array.WrapAOS("points", 3, coords)
	g := NewUnstructuredGrid(pts, CellTetrahedron, []int64{0, 1, 2, 3})
	coords[0] = 42 // simulation moves a node
	if g.Points.Value(0, 0) != 42 {
		t.Fatal("unstructured points are not zero-copy")
	}
}

func TestMultiBlockAggregation(t *testing.T) {
	a := NewImageData(NewExtent3D(3, 3, 3))
	b := NewImageData(Extent{2, 4, 0, 2, 0, 2})
	mb := &MultiBlock{Blocks: []Dataset{a, nil, b}}
	if mb.NumberOfPoints() != a.NumberOfPoints()+b.NumberOfPoints() {
		t.Fatal("point aggregation wrong")
	}
	bounds := mb.Bounds()
	if bounds[1] != 4 {
		t.Fatalf("bounds=%v", bounds)
	}
	if mb.Kind() != MultiBlockKind {
		t.Fatal("kind")
	}
}

func TestCellTypePoints(t *testing.T) {
	if CellTypePoints(CellTriangle) != 3 || CellTypePoints(CellHexahedron) != 8 {
		t.Fatal("cell type sizes wrong")
	}
}

func TestByteSizes(t *testing.T) {
	g := NewImageData(NewExtent3D(2, 2, 2))
	g.Attributes(PointData).Add(array.New[float64]("d", 1, 8))
	if g.ByteSize() != 64 {
		t.Fatalf("bytes=%d", g.ByteSize())
	}
}

func TestUnstructuredValidation(t *testing.T) {
	pts2 := array.New[float64]("p", 2, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("2-component points accepted")
			}
		}()
		NewUnstructuredGrid(pts2, CellTetrahedron, []int64{0, 1, 2, 3})
	}()
	pts := array.New[float64]("p", 3, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ragged connectivity accepted")
			}
		}()
		NewUnstructuredGrid(pts, CellTetrahedron, []int64{0, 1, 2})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown cell type accepted")
			}
		}()
		CellTypePoints(99)
	}()
}

func TestUnstructuredEmptyBounds(t *testing.T) {
	pts := array.New[float64]("p", 3, 0)
	g := &UnstructuredGrid{Points: pts, Offsets: []int64{0}}
	if g.Bounds() != ([6]float64{}) {
		t.Fatal("empty grid bounds should be zero")
	}
}

func TestMultiBlockEmptyAndFieldData(t *testing.T) {
	mb := &MultiBlock{}
	if mb.Bounds() != ([6]float64{}) || mb.NumberOfPoints() != 0 || mb.NumberOfCells() != 0 {
		t.Fatal("empty multiblock aggregates wrong")
	}
	mb.Attributes(PointData).Add(array.New[float64]("meta", 1, 1))
	if mb.ByteSize() != 8 {
		t.Fatalf("bytes=%d", mb.ByteSize())
	}
	if mb.Attributes(CellData).Len() != 0 {
		t.Fatal("cell field data phantom")
	}
}

func TestAssociationAndKindStrings(t *testing.T) {
	if PointData.String() != "point" || CellData.String() != "cell" {
		t.Fatal("association strings")
	}
	for k, want := range map[Kind]string{
		ImageKind:        "image",
		UnstructuredKind: "unstructured", MultiBlockKind: "multiblock",
	} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
}

func TestFieldDataAtOrder(t *testing.T) {
	var f FieldData
	f.Add(array.New[float64]("first", 1, 1))
	f.Add(array.New[float64]("second", 1, 1))
	if f.At(0).Name() != "first" || f.At(1).Name() != "second" {
		t.Fatal("insertion order lost")
	}
}

func TestExtentValidAndString(t *testing.T) {
	if (Extent{1, 0, 0, 0, 0, 0}).Valid() {
		t.Fatal("inverted extent valid")
	}
	if s := NewExtent3D(2, 2, 2).String(); s == "" {
		t.Fatal("empty string")
	}
}
