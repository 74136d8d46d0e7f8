package render

import (
	"math"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/colormap"
	"gosensei/internal/grid"
)

func volumeBrick(ext grid.Extent, value float64) *grid.ImageData {
	img := grid.NewImageData(ext)
	n := img.NumberOfCells()
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = value
	}
	img.Attributes(grid.CellData).Add(array.WrapAOS("rho", 1, vals))
	return img
}

func TestAlphaImageOverAssociativity(t *testing.T) {
	mk := func(r, a float32) *AlphaImage {
		im := NewAlphaImage(2, 1)
		for i := 0; i < 2; i++ {
			im.Pix[i*4+0] = r * a
			im.Pix[i*4+3] = a
		}
		return im
	}
	// (A over B) over C == A over (B over C)
	a1, b1, c1 := mk(1, 0.5), mk(0.5, 0.5), mk(0.25, 0.5)
	if err := a1.Over(b1); err != nil {
		t.Fatal(err)
	}
	if err := a1.Over(c1); err != nil {
		t.Fatal(err)
	}
	a2, b2, c2 := mk(1, 0.5), mk(0.5, 0.5), mk(0.25, 0.5)
	if err := b2.Over(c2); err != nil {
		t.Fatal(err)
	}
	if err := a2.Over(b2); err != nil {
		t.Fatal(err)
	}
	for i := range a1.Pix {
		if math.Abs(float64(a1.Pix[i]-a2.Pix[i])) > 1e-6 {
			t.Fatalf("over not associative at %d: %v vs %v", i, a1.Pix[i], a2.Pix[i])
		}
	}
}

func TestOverOpaqueFrontOccludes(t *testing.T) {
	front := NewAlphaImage(1, 1)
	front.Pix[0], front.Pix[3] = 1, 1 // opaque red
	back := NewAlphaImage(1, 1)
	back.Pix[1], back.Pix[3] = 1, 1 // opaque green
	if err := front.Over(back); err != nil {
		t.Fatal(err)
	}
	if front.Pix[0] != 1 || front.Pix[1] != 0 {
		t.Fatalf("opaque front should occlude: %v", front.Pix[:4])
	}
	if err := front.Over(NewAlphaImage(2, 2)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRayMarchUniformSlabTransmittance(t *testing.T) {
	// A uniform slab of thickness L and extinction k has opacity
	// 1 - exp(-kL): the discrete march must converge to that.
	ext := grid.NewExtent3D(9, 9, 17) // 8x8x16 cells
	img := volumeBrick(ext, 1.0)      // normalized value 1 everywhere
	spec := &VolumeSpec{
		ArrayName: "rho", Axis: 2, Lo: 0, Hi: 1,
		Map: colormap.Gray(), OpacityScale: 0.2,
		DomainBounds: [6]float64{0, 8, 0, 8, 0, 16},
	}
	out, orderKey, err := RayMarchLocalSized(img, spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if orderKey != 0 {
		t.Fatalf("orderKey=%d", orderKey)
	}
	if out.W != 8 || out.H != 8 {
		t.Fatalf("image %dx%d", out.W, out.H)
	}
	want := 1 - math.Exp(-0.2*16)
	got := float64(out.Pix[3])
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("slab opacity %v want %v", got, want)
	}
}

func TestRayMarchEmptyValueTransparent(t *testing.T) {
	img := volumeBrick(grid.NewExtent3D(5, 5, 5), 0) // at the range floor
	spec := &VolumeSpec{
		ArrayName: "rho", Axis: 2, Lo: 0, Hi: 1,
		Map: colormap.Gray(), OpacityScale: 1,
		DomainBounds: [6]float64{0, 4, 0, 4, 0, 4},
	}
	out, _, err := RayMarchLocalSized(img, spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.MeanAlpha() != 0 {
		t.Fatalf("floor-valued volume not transparent: %v", out.MeanAlpha())
	}
}

func TestRayMarchGhostsSkipped(t *testing.T) {
	img := volumeBrick(grid.NewExtent3D(3, 3, 3), 1)
	gh := array.New[uint8](grid.GhostArrayName, 1, img.NumberOfCells())
	for i := 0; i < img.NumberOfCells(); i++ {
		gh.Set(i, 0, 1)
	}
	img.Attributes(grid.CellData).Add(gh)
	spec := &VolumeSpec{
		ArrayName: "rho", Axis: 2, Lo: 0, Hi: 1,
		Map: colormap.Gray(), OpacityScale: 1,
		DomainBounds: [6]float64{0, 2, 0, 2, 0, 2},
	}
	out, _, err := RayMarchLocalSized(img, spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.MeanAlpha() != 0 {
		t.Fatal("ghost cells contributed opacity")
	}
}

func TestRayMarchErrors(t *testing.T) {
	img := volumeBrick(grid.NewExtent3D(3, 3, 3), 1)
	base := VolumeSpec{ArrayName: "rho", Axis: 2, Lo: 0, Hi: 1, Map: colormap.Gray(), OpacityScale: 1,
		DomainBounds: [6]float64{0, 2, 0, 2, 0, 2}}
	bad := base
	bad.ArrayName = "absent"
	if _, _, err := RayMarchLocalSized(img, &bad, 0, 0); err == nil {
		t.Fatal("missing array accepted")
	}
	bad = base
	bad.Map = nil
	if _, _, err := RayMarchLocalSized(img, &bad, 0, 0); err == nil {
		t.Fatal("nil colormap accepted")
	}
	bad = base
	bad.Axis = 7
	if _, _, err := RayMarchLocalSized(img, &bad, 0, 0); err == nil {
		t.Fatal("bad axis accepted")
	}
}

func TestAlphaToFramebuffer(t *testing.T) {
	im := NewAlphaImage(1, 1)
	im.Pix[0], im.Pix[3] = 0.5, 0.5 // half-opaque red (premultiplied)
	fb := im.ToFramebuffer(0, 0, 1) // blue background
	c := fb.At(0, 0)
	if c.R != 128 || c.B != 128 {
		t.Fatalf("blend wrong: %+v", c)
	}
}

// MeanAlpha returns the average opacity — a cheap scalar for tests.
func (a *AlphaImage) MeanAlpha() float64 {
	s := 0.0
	for i := 0; i < a.W*a.H; i++ {
		s += float64(a.Pix[i*4+3])
	}
	return s / float64(a.W*a.H)
}
