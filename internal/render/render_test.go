package render

import (
	"bytes"
	"image/color"
	"image/png"
	"math"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/colormap"
	"gosensei/internal/grid"
)

func TestFramebufferSetDepthTest(t *testing.T) {
	fb := NewFramebuffer(4, 4)
	red := color.RGBA{255, 0, 0, 255}
	blue := color.RGBA{0, 0, 255, 255}
	fb.Set(1, 1, red, 5)
	fb.Set(1, 1, blue, 10) // farther: rejected
	if fb.At(1, 1) != red {
		t.Fatal("depth test failed to reject farther fragment")
	}
	fb.Set(1, 1, blue, 1) // nearer: accepted
	if fb.At(1, 1) != blue {
		t.Fatal("nearer fragment rejected")
	}
	// Out-of-bounds writes are ignored.
	fb.Set(-1, 0, red, 0)
	fb.Set(0, 4, red, 0)
}

func TestFramebufferFillBackground(t *testing.T) {
	fb := NewFramebuffer(2, 1)
	fb.Set(0, 0, color.RGBA{9, 9, 9, 255}, 1)
	fb.FillBackground(color.RGBA{10, 20, 30, 255})
	if fb.At(0, 0).R != 9 {
		t.Fatal("written pixel overwritten")
	}
	if fb.At(1, 0) != (color.RGBA{10, 20, 30, 255}) {
		t.Fatal("background not filled")
	}
	if fb.NonBackgroundPixels() != 1 {
		t.Fatalf("non-bg=%d", fb.NonBackgroundPixels())
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if a.Cross(b) != (Vec3{0, 0, 1}) {
		t.Fatal("cross wrong")
	}
	if a.Dot(b) != 0 || a.Add(b).Norm() != math.Sqrt(2) {
		t.Fatal("dot/norm wrong")
	}
	if (Vec3{3, 4, 0}).Normalized().Norm() != 1 {
		t.Fatal("normalize wrong")
	}
	var z Vec3
	if z.Normalized() != z {
		t.Fatal("zero normalize should be identity")
	}
}

func TestCameraProjection(t *testing.T) {
	cam, err := NewCamera(Vec3{0, 0, 10}, Vec3{0, 0, 0}, Vec3{0, 1, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The look-at point projects to the image center.
	px, py, d := cam.Project(Vec3{0, 0, 0}, 100, 100)
	if px != 50 || py != 50 {
		t.Fatalf("center projected to (%v, %v)", px, py)
	}
	if d != 10 {
		t.Fatalf("depth=%v", d)
	}
	// A point nearer the eye has smaller depth.
	_, _, d2 := cam.Project(Vec3{0, 0, 5}, 100, 100)
	if d2 >= d {
		t.Fatal("depth ordering wrong")
	}
	// +y in world is up: smaller pixel y.
	_, py2, _ := cam.Project(Vec3{0, 2, 0}, 100, 100)
	if py2 >= 50 {
		t.Fatalf("up direction wrong: py=%v", py2)
	}
}

func TestCameraErrors(t *testing.T) {
	if _, err := NewCamera(Vec3{0, 0, 0}, Vec3{0, 0, 0}, Vec3{0, 1, 0}, 1); err == nil {
		t.Fatal("eye == lookAt accepted")
	}
	if _, err := NewCamera(Vec3{0, 0, 1}, Vec3{0, 0, 0}, Vec3{0, 0, 1}, 1); err == nil {
		t.Fatal("parallel up accepted")
	}
	if _, err := NewCamera(Vec3{0, 0, 1}, Vec3{0, 0, 0}, Vec3{0, 1, 0}, 0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestDefaultCameraSeesBox(t *testing.T) {
	cam := DefaultCamera([6]float64{0, 1, 0, 1, 0, 1})
	px, py, d := cam.Project(Vec3{0.5, 0.5, 0.5}, 64, 64)
	if px < 0 || px > 64 || py < 0 || py > 64 {
		t.Fatalf("center out of frame: (%v, %v)", px, py)
	}
	if d <= 0 {
		t.Fatal("center behind camera")
	}
}

func TestRasterizeTriangleCoversInterior(t *testing.T) {
	fb := NewFramebuffer(20, 20)
	white := func(float64) color.RGBA { return color.RGBA{255, 255, 255, 255} }
	RasterizeTriangle(fb,
		Vertex{X: 2, Y: 2, Depth: 1},
		Vertex{X: 18, Y: 2, Depth: 1},
		Vertex{X: 2, Y: 18, Depth: 1}, white)
	if fb.At(5, 5).R != 255 {
		t.Fatal("interior pixel not filled")
	}
	if fb.At(17, 17).R != 0 {
		t.Fatal("exterior pixel filled")
	}
	// Degenerate triangle: no crash, nothing drawn.
	fb2 := NewFramebuffer(4, 4)
	RasterizeTriangle(fb2, Vertex{X: 1, Y: 1}, Vertex{X: 1, Y: 1}, Vertex{X: 1, Y: 1}, white)
	if fb2.NonBackgroundPixels() != 0 {
		t.Fatal("degenerate triangle drew pixels")
	}
}

func TestRasterizeTriangleInterpolatesScalar(t *testing.T) {
	fb := NewFramebuffer(10, 10)
	var seen []float64
	capture := func(s float64) color.RGBA {
		seen = append(seen, s)
		return color.RGBA{A: 255}
	}
	RasterizeTriangle(fb,
		Vertex{X: 0, Y: 0, Scalar: 0},
		Vertex{X: 10, Y: 0, Scalar: 1},
		Vertex{X: 0, Y: 10, Scalar: 1}, capture)
	lo, hi := 2.0, -1.0
	for _, s := range seen {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	if lo < -1e-9 || hi > 1+1e-9 || hi-lo < 0.3 {
		t.Fatalf("scalar interpolation range [%v, %v]", lo, hi)
	}
}

// sphereGrid builds a point-centered distance field on an n³-point grid
// centered at c with unit spacing.
func sphereGrid(n int, c Vec3) *grid.ImageData {
	img := grid.NewImageData(grid.NewExtent3D(n, n, n))
	vals := make([]float64, n*n*n)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				d := Vec3{float64(i), float64(j), float64(k)}.Sub(c).Norm()
				vals[idx] = d
				idx++
			}
		}
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("dist", 1, vals))
	return img
}

func TestIsosurfaceSphere(t *testing.T) {
	n := 21
	c := Vec3{10, 10, 10}
	r := 6.0
	img := sphereGrid(n, c)
	mesh, err := Isosurface(img, "dist", r, "")
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Triangles() == 0 {
		t.Fatal("no triangles extracted")
	}
	// Every vertex should lie near the sphere (linear interpolation error).
	for _, v := range mesh.V {
		d := v.Sub(c).Norm()
		if math.Abs(d-r) > 0.25 {
			t.Fatalf("vertex at distance %v from center, want ~%v", d, r)
		}
	}
	// Total area should approximate 4πr² within discretization error.
	want := 4 * math.Pi * r * r
	if got := mesh.Area(); math.Abs(got-want)/want > 0.15 {
		t.Fatalf("area=%v want ~%v", got, want)
	}
	// Scalars carry the iso value.
	for _, s := range mesh.S {
		if math.Abs(s-r) > 1e-9 {
			t.Fatalf("vertex scalar %v != iso %v", s, r)
		}
	}
}

func TestIsosurfaceColorBy(t *testing.T) {
	n := 11
	img := sphereGrid(n, Vec3{5, 5, 5})
	// Color by x coordinate.
	vals := make([]float64, n*n*n)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vals[idx] = float64(i)
				idx++
			}
		}
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("xcoord", 1, vals))
	mesh, err := Isosurface(img, "dist", 3, "xcoord")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mesh.V {
		if math.Abs(mesh.S[i]-v[0]) > 0.5 {
			t.Fatalf("color-by scalar %v != x %v", mesh.S[i], v[0])
		}
	}
}

func TestIsosurfaceMissingArray(t *testing.T) {
	img := grid.NewImageData(grid.NewExtent3D(3, 3, 3))
	if _, err := Isosurface(img, "absent", 0, ""); err == nil {
		t.Fatal("expected error")
	}
}

func TestIsosurfaceEmptyWhenOutOfRange(t *testing.T) {
	img := sphereGrid(9, Vec3{4, 4, 4})
	mesh, err := Isosurface(img, "dist", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Triangles() != 0 {
		t.Fatal("phantom triangles")
	}
}

func TestResampleImageSlice(t *testing.T) {
	// 8x8x8 cells with value = global i index of the cell.
	n := 8
	img := grid.NewImageData(grid.NewExtent3D(n+1, n+1, n+1))
	vals := make([]float64, n*n*n)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vals[idx] = float64(i)
				idx++
			}
		}
	}
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, vals))
	fb := NewFramebuffer(32, 32)
	spec := &SliceSpec{
		Plane:        AxisPlane(2, 4.0), // z = 4 plane
		ArrayName:    "data",
		Assoc:        grid.CellData,
		Lo:           0,
		Hi:           float64(n - 1),
		Map:          colormap.Gray(),
		DomainBounds: [6]float64{0, float64(n), 0, float64(n), 0, float64(n)},
	}
	if err := ResampleImageSlice(fb, img, spec); err != nil {
		t.Fatal(err)
	}
	if fb.NonBackgroundPixels() != 32*32 {
		t.Fatalf("slice should cover frame, got %d pixels", fb.NonBackgroundPixels())
	}
	// The data has a gradient along world-x; depending on the plane basis it
	// appears along one of the two image axes. It must appear on exactly one
	// and be constant along the other.
	dx := int(fb.At(31, 16).R) - int(fb.At(0, 16).R)
	dy := int(fb.At(16, 31).R) - int(fb.At(16, 0).R)
	if dx == 0 && dy == 0 {
		t.Fatal("slice shows no gradient")
	}
	if dx != 0 && dy != 0 {
		t.Fatalf("gradient on both axes: dx=%d dy=%d", dx, dy)
	}
}

func TestResampleImageSliceMissPlane(t *testing.T) {
	img := grid.NewImageData(grid.NewExtent3D(5, 5, 5))
	img.Attributes(grid.CellData).Add(array.New[float64]("data", 1, 64))
	fb := NewFramebuffer(16, 16)
	spec := &SliceSpec{
		Plane:        AxisPlane(2, 100), // far outside
		ArrayName:    "data",
		Assoc:        grid.CellData,
		Hi:           1,
		Map:          colormap.Gray(),
		DomainBounds: [6]float64{0, 4, 0, 4, 0, 4},
	}
	if err := ResampleImageSlice(fb, img, spec); err != nil {
		t.Fatal(err)
	}
	if fb.NonBackgroundPixels() != 0 {
		t.Fatal("rank not intersecting plane wrote pixels")
	}
}

func TestResampleImageSliceGhostsSkipped(t *testing.T) {
	img := grid.NewImageData(grid.NewExtent3D(3, 3, 3)) // 2x2x2 cells
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, make([]float64, 8)))
	gh := array.New[uint8](grid.GhostArrayName, 1, 8)
	for i := 0; i < 8; i++ {
		gh.Set(i, 0, 1) // everything ghost
	}
	img.Attributes(grid.CellData).Add(gh)
	fb := NewFramebuffer(8, 8)
	spec := &SliceSpec{
		Plane: AxisPlane(2, 1), ArrayName: "data", Assoc: grid.CellData,
		Hi: 1, Map: colormap.Gray(), DomainBounds: [6]float64{0, 2, 0, 2, 0, 2},
	}
	if err := ResampleImageSlice(fb, img, spec); err != nil {
		t.Fatal(err)
	}
	if fb.NonBackgroundPixels() != 0 {
		t.Fatal("ghost cells rendered")
	}
}

func TestSliceUnstructuredTet(t *testing.T) {
	pts := array.WrapAOS("points", 3, []float64{
		0, 0, 0,
		2, 0, 0,
		0, 2, 0,
		0, 0, 2,
	})
	g := grid.NewUnstructuredGrid(pts, grid.CellTetrahedron, []int64{0, 1, 2, 3})
	scal := array.WrapAOS("v", 1, []float64{0, 1, 2, 3})
	g.Attributes(grid.PointData).Add(scal)
	spec := &SliceSpec{
		Plane: AxisPlane(2, 0.5), ArrayName: "v", Assoc: grid.PointData,
		Lo: 0, Hi: 3, Map: colormap.CoolWarm(),
	}
	mesh, err := SliceUnstructured(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Triangles() == 0 {
		t.Fatal("no intersection triangles")
	}
	for _, v := range mesh.V {
		if math.Abs(v[2]-0.5) > 1e-9 {
			t.Fatalf("vertex off plane: %v", v)
		}
	}
}

func TestSliceUnstructuredVectorMagnitude(t *testing.T) {
	pts := array.WrapAOS("points", 3, []float64{
		0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1,
	})
	g := grid.NewUnstructuredGrid(pts, grid.CellTetrahedron, []int64{0, 1, 2, 3})
	vel := array.WrapAOS("velocity", 3, []float64{
		3, 4, 0, // |v| = 5
		3, 4, 0,
		3, 4, 0,
		3, 4, 0,
	})
	g.Attributes(grid.PointData).Add(vel)
	spec := &SliceSpec{
		Plane: AxisPlane(2, 0.25), ArrayName: "velocity", Assoc: grid.PointData,
		Lo: 0, Hi: 10, Map: colormap.CoolWarm(),
	}
	mesh, err := SliceUnstructured(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mesh.S {
		if math.Abs(s-5) > 1e-9 {
			t.Fatalf("magnitude=%v want 5", s)
		}
	}
}

func TestCellToPointScalars(t *testing.T) {
	img := grid.NewImageData(grid.NewExtent3D(3, 3, 3)) // 2x2x2 cells
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, vals))
	if err := CellToPointScalars(img, "data"); err != nil {
		t.Fatal(err)
	}
	pa := img.Attributes(grid.PointData).Get("data")
	if pa == nil {
		t.Fatal("point array missing")
	}
	// Center point (1,1,1) averages all 8 cells.
	center := pa.Value(1*9+1*3+1, 0)
	if math.Abs(center-4.5) > 1e-12 {
		t.Fatalf("center=%v", center)
	}
	// Corner point (0,0,0) sees only cell 0.
	if pa.Value(0, 0) != 1 {
		t.Fatalf("corner=%v", pa.Value(0, 0))
	}
	if err := CellToPointScalars(img, "absent"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRenderMeshProducesPixels(t *testing.T) {
	img := sphereGrid(15, Vec3{7, 7, 7})
	mesh, err := Isosurface(img, "dist", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFramebuffer(64, 64)
	cam := DefaultCamera([6]float64{0, 14, 0, 14, 0, 14})
	cm := colormap.CoolWarm()
	RenderMesh(fb, cam, mesh, func(s float64) color.RGBA { return cm.Pseudocolor(s, 0, 8) })
	if fb.NonBackgroundPixels() < 100 {
		t.Fatalf("sphere rendered only %d pixels", fb.NonBackgroundPixels())
	}
}

func TestWritePNGRoundTrip(t *testing.T) {
	fb := NewFramebuffer(16, 8)
	fb.Set(3, 2, color.RGBA{10, 20, 30, 255}, 0)
	fb.FillBackground(color.RGBA{0, 0, 0, 255})
	var buf bytes.Buffer
	d, err := WritePNG(&buf, fb, PNGOptions{})
	if err != nil || d < 0 {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 16 || img.Bounds().Dy() != 8 {
		t.Fatalf("bounds=%v", img.Bounds())
	}
	r, g, b, _ := img.At(3, 2).RGBA()
	if r>>8 != 10 || g>>8 != 20 || b>>8 != 30 {
		t.Fatalf("pixel=(%d,%d,%d)", r>>8, g>>8, b>>8)
	}
}

func TestWritePNGNoCompressionLarger(t *testing.T) {
	fb := NewFramebuffer(128, 128)
	// Content with structure so compression matters.
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			fb.Set(x, y, color.RGBA{uint8(x), uint8(y), 0, 255}, 0)
		}
	}
	var def, raw bytes.Buffer
	if _, err := WritePNG(&def, fb, PNGOptions{Compression: png.DefaultCompression}); err != nil {
		t.Fatal(err)
	}
	if _, err := WritePNG(&raw, fb, PNGOptions{Compression: png.NoCompression}); err != nil {
		t.Fatal(err)
	}
	if raw.Len() <= def.Len() {
		t.Fatalf("no-compression (%d) should exceed default (%d)", raw.Len(), def.Len())
	}
}

func TestPlaneBasisOrthonormal(t *testing.T) {
	for _, n := range []Vec3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {-0.3, 2, 0.5}} {
		p := Plane{Normal: n}
		u, v := p.Basis()
		nn := n.Normalized()
		if math.Abs(u.Dot(v)) > 1e-12 || math.Abs(u.Dot(nn)) > 1e-12 || math.Abs(v.Dot(nn)) > 1e-12 {
			t.Fatalf("basis not orthogonal for %v", n)
		}
		if math.Abs(u.Norm()-1) > 1e-12 || math.Abs(v.Norm()-1) > 1e-12 {
			t.Fatalf("basis not unit for %v", n)
		}
	}
}

func TestSignedDistance(t *testing.T) {
	p := AxisPlane(1, 3)
	if d := p.SignedDistance(Vec3{0, 5, 0}); d != 2 {
		t.Fatalf("d=%v", d)
	}
	if d := p.SignedDistance(Vec3{9, 3, -4}); d != 0 {
		t.Fatalf("d=%v", d)
	}
}

func TestResampleImageSlicePointData(t *testing.T) {
	// Point-centered data takes the trilinear path: a linear field must be
	// reproduced exactly at every sampled pixel.
	n := 5
	img := grid.NewImageData(grid.NewExtent3D(n, n, n))
	vals := make([]float64, n*n*n)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vals[idx] = 2*float64(i) + 3*float64(j) + 5*float64(k)
				idx++
			}
		}
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("f", 1, vals))
	fb := NewFramebuffer(24, 24)
	spec := &SliceSpec{
		Plane:        AxisPlane(2, 2.0),
		ArrayName:    "f",
		Assoc:        grid.PointData,
		Lo:           0,
		Hi:           2*4 + 3*4 + 5*4,
		Map:          colormap.Gray(),
		DomainBounds: [6]float64{0, 4, 0, 4, 0, 4},
	}
	if err := ResampleImageSlice(fb, img, spec); err != nil {
		t.Fatal(err)
	}
	if fb.NonBackgroundPixels() == 0 {
		t.Fatal("point-data slice wrote nothing")
	}
	// The image must show a strict gradient (linear field): corners differ.
	c00 := fb.At(1, 1).R
	c11 := fb.At(22, 22).R
	if c00 == c11 {
		t.Fatal("trilinear slice lost the gradient")
	}
}

func TestTrilinearExactOnLinearField(t *testing.T) {
	n := 4
	img := grid.NewImageData(grid.NewExtent3D(n, n, n))
	vals := make([]float64, n*n*n)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vals[idx] = float64(i) + 10*float64(j) + 100*float64(k)
				idx++
			}
		}
	}
	var a array.Reader
	a.Reset(array.WrapAOS("f", 1, vals), nil)
	for _, p := range [][3]float64{{0.5, 0.5, 0.5}, {1.25, 2.75, 0.1}, {2.9, 0.4, 2.2}} {
		got := trilinear(img, &a, p[0], p[1], p[2])
		want := p[0] + 10*p[1] + 100*p[2]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trilinear(%v)=%v want %v", p, got, want)
		}
	}
	// Clamping beyond the grid must not panic and stays finite.
	if v := trilinear(img, &a, -1, 5, 2); math.IsNaN(v) {
		t.Fatal("clamped sample is NaN")
	}
}

func TestIsosurfaceWatertightArea(t *testing.T) {
	// A plane isosurface of a linear field: area must equal the domain
	// cross-section (marching tetrahedra reproduce linear fields exactly).
	n := 9
	img := grid.NewImageData(grid.NewExtent3D(n, n, n))
	vals := make([]float64, n*n*n)
	idx := 0
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vals[idx] = float64(i)
				idx++
			}
		}
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("x", 1, vals))
	mesh, err := Isosurface(img, "x", 3.5, "")
	if err != nil {
		t.Fatal(err)
	}
	want := float64((n - 1) * (n - 1)) // the x = 3.5 plane spans (n-1)^2
	if got := mesh.Area(); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("plane isosurface area=%v want %v", got, want)
	}
	for _, v := range mesh.V {
		if math.Abs(v[0]-3.5) > 1e-12 {
			t.Fatalf("vertex off the x=3.5 plane: %v", v)
		}
	}
}

// At returns the pixel color at (x, y).
func (fb *Framebuffer) At(x, y int) color.RGBA {
	i := (y*fb.W + x) * 4
	return color.RGBA{fb.Color[i], fb.Color[i+1], fb.Color[i+2], fb.Color[i+3]}
}

// Area returns the total surface area of the mesh.
func (m *TriMesh) Area() float64 {
	total := 0.0
	for i := 0; i+2 < len(m.V); i += 3 {
		e1 := m.V[i+1].Sub(m.V[i])
		e2 := m.V[i+2].Sub(m.V[i])
		total += 0.5 * e1.Cross(e2).Norm()
	}
	return total
}
