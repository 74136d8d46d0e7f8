package render

import (
	"fmt"
	"image/color"
	"math"
	"math/rand"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/colormap"
	"gosensei/internal/grid"
	"gosensei/internal/parallel"
)

// resampleReference is ResampleImageSlice as it stood before the resampler
// hoisted the per-row and per-column terms, read typed arrays directly and
// reused a cell's colour: every pixel rebuilds its world point from Vec3
// temporaries, reads through array.Array.Value and runs Pseudocolor. The
// production loop must write the same bytes.
func resampleReference(fb *Framebuffer, img *grid.ImageData, spec *SliceSpec) error {
	a := img.Attributes(spec.Assoc).Get(spec.ArrayName)
	if a == nil {
		return fmt.Errorf("render: slice: mesh has no %s array %q", spec.Assoc, spec.ArrayName)
	}
	if spec.Map == nil {
		return fmt.Errorf("render: slice: nil colormap")
	}
	ghost := img.Attributes(spec.Assoc).Get(grid.GhostArrayName)

	// Quick rejection: does the plane intersect the local block at all?
	lb := img.Bounds()
	if !planeIntersectsBox(spec.Plane, lb) {
		return nil
	}
	u, v, umin, umax, vmin, vmax := spec.PlaneWindow()
	du := (umax - umin) / float64(fb.W)
	dv := (vmax - vmin) / float64(fb.H)

	ext := img.Extent
	cx, cy, cz := ext.CellDims()
	parallel.For(spec.Workers, fb.H, rasterStripeRows, func(yLo, yHi int) {
		for py := yLo; py < yHi; py++ {
			pv := vmin + (float64(py)+0.5)*dv
			for px := 0; px < fb.W; px++ {
				pu := umin + (float64(px)+0.5)*du
				w := spec.Plane.Origin.Add(u.Scale(pu)).Add(v.Scale(pv))
				// World to cell index.
				fi := (w[0] - img.Origin[0]) / img.Spacing[0]
				fj := (w[1] - img.Origin[1]) / img.Spacing[1]
				fk := (w[2] - img.Origin[2]) / img.Spacing[2]
				ci := int(math.Floor(fi)) - ext[0]
				cj := int(math.Floor(fj)) - ext[2]
				ck := int(math.Floor(fk)) - ext[4]
				if ci < 0 || ci >= cx || cj < 0 || cj >= cy || ck < 0 || ck >= cz {
					continue
				}
				var val float64
				if spec.Assoc == grid.CellData {
					idx := ck*cx*cy + cj*cx + ci
					if ghost != nil && ghost.Value(idx, 0) != 0 {
						continue
					}
					val = a.Value(idx, 0)
				} else {
					val = trilinearReference(img, a, fi-float64(ext[0]), fj-float64(ext[2]), fk-float64(ext[4]))
				}
				fb.Set(px, py, spec.Map.Pseudocolor(val, spec.Lo, spec.Hi), 0)
			}
		}
	})
	return nil
}

// trilinearReference is trilinear as it stood before the resampler read
// through array.Reader: every corner through array.Array.Value.
func trilinearReference(img *grid.ImageData, a array.Array, fi, fj, fk float64) float64 {
	nx, ny, nz := img.Extent.Dims()
	clampf := func(f float64, n int) (int, float64) {
		i := int(math.Floor(f))
		t := f - float64(i)
		if i < 0 {
			return 0, 0
		}
		if i >= n-1 {
			return n - 2, 1
		}
		return i, t
	}
	if nx < 2 || ny < 2 || nz < 2 {
		return a.Value(0, 0)
	}
	i, tx := clampf(fi, nx)
	j, ty := clampf(fj, ny)
	k, tz := clampf(fk, nz)
	at := func(ii, jj, kk int) float64 {
		return a.Value(kk*nx*ny+jj*nx+ii, 0)
	}
	lerp := func(x, y, t float64) float64 { return x + (y-x)*t }
	c00 := lerp(at(i, j, k), at(i+1, j, k), tx)
	c10 := lerp(at(i, j+1, k), at(i+1, j+1, k), tx)
	c01 := lerp(at(i, j, k+1), at(i+1, j, k+1), tx)
	c11 := lerp(at(i, j+1, k+1), at(i+1, j+1, k+1), tx)
	return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
}

// refGrid is one rank's block of a 10×8×6-cell domain: a point extent that
// does not start at zero, on a grid whose origin and spacing are not 0 and 1,
// so that the window the slice maps covers more than the block. It sits at
// the domain's max corner.
func refGrid() *grid.ImageData {
	return refBlock(grid.Extent{4, 10, 1, 8, 2, 6})
}

// refBlock is the block of refDomain's grid with the given point extent.
func refBlock(ext grid.Extent) *grid.ImageData {
	img := grid.NewImageData(ext)
	img.Origin = [3]float64{-1.5, 0.25, 2}
	img.Spacing = [3]float64{0.5, 1, 0.75}
	return img
}

var refDomain = [6]float64{-1.5, 3.5, 0.25, 8.25, 2, 6.5}

// wrapLayout wraps one component in the given layout.
func wrapLayout[T array.Element](name string, layout array.Layout, d []T) array.Array {
	if layout == array.SOA {
		return array.WrapSOA(name, d)
	}
	return array.WrapAOS(name, 1, d)
}

// refArray is n seeded values of the named element type; the floating-point
// ones carry a NaN and values outside [0, 1].
func refArray(name, dtype string, layout array.Layout, n int, seed int64) array.Array {
	rng := rand.New(rand.NewSource(seed))
	switch dtype {
	case "float64":
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.Float64()*1.2 - 0.1
		}
		d[n/3] = math.NaN()
		return wrapLayout(name, layout, d)
	case "float32":
		d := make([]float32, n)
		for i := range d {
			d[i] = rng.Float32()*1.2 - 0.1
		}
		d[n/3] = float32(math.NaN())
		return wrapLayout(name, layout, d)
	case "int32":
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(rng.Intn(5)) - 1
		}
		return wrapLayout(name, layout, d)
	}
	panic("unknown dtype " + dtype)
}

// refGhosts marks a seeded fifth of the cells as ghosts.
func refGhosts(layout array.Layout, n int, seed int64) array.Array {
	rng := rand.New(rand.NewSource(seed))
	d := make([]uint8, n)
	for i := range d {
		if rng.Intn(5) == 0 {
			d[i] = uint8(1 + rng.Intn(2))
		}
	}
	return wrapLayout(grid.GhostArrayName, layout, d)
}

// refFramebuffer is a framebuffer something was drawn on before the slice:
// a stripe nearer than the slice, one at its depth and one behind it.
func refFramebuffer(w, h int) *Framebuffer {
	fb := NewFramebuffer(w, h)
	for x := 0; x < w; x++ {
		for y, depth := range []float32{-1, 0, 3} {
			fb.Set(x, y*(h/3), color.RGBA{R: 9, G: uint8(y), A: 255}, depth)
		}
	}
	return fb
}

// TestResampleMatchesReference holds the resampler to the bytes the
// per-pixel loop writes: Color and Depth, on every kind of plane, array and
// image size the fast paths and their fallbacks see, and on blocks placed so
// that the pixel window the resampler clips itself to matters.
func TestResampleMatchesReference(t *testing.T) {
	planes := []struct {
		name  string
		plane Plane
	}{
		{"x", AxisPlane(0, 1.3)},
		{"y", AxisPlane(1, 4.6)},
		{"z", AxisPlane(2, 4.1)},
		{"oblique", Plane{Origin: Vec3{1.5, 4, 4}, Normal: Vec3{1, 2, 3}}},
		// z = 2 + 3·0.75: exactly the face between two cell layers.
		{"cell face", AxisPlane(2, 4.25)},
	}
	sizes := [][2]int{{1, 1}, {7, 5}, {800, 450}}
	dtypes := []string{"float64", "float32", "int32"}
	layouts := []array.Layout{array.AOS, array.SOA}
	n := 0
	for _, pl := range planes {
		for _, assoc := range []grid.Association{grid.CellData, grid.PointData} {
			for _, ghosts := range []bool{false, true} {
				for _, layout := range layouts {
					for _, dtype := range dtypes {
						img := refGrid()
						tuples := img.NumberOfCells()
						if assoc == grid.PointData {
							tuples = img.NumberOfPoints()
						}
						img.Attributes(assoc).Add(refArray("data", dtype, layout, tuples, int64(n)))
						if ghosts {
							// The ghost array is laid out the other way round.
							img.Attributes(assoc).Add(refGhosts(1-layout, tuples, int64(n)+1000))
						}
						for si, size := range sizes {
							// The large image — the one with runs of pixels
							// per cell — is nearly all of the time: one
							// case in four takes it, at one worker count,
							// both in rotation over every plane, association,
							// element type, layout and ghost setting.
							workers := workerCounts
							if si == 2 {
								if n%4 != 0 {
									continue
								}
								workers = workerCounts[n/4%3:][:1]
							}
							for _, nw := range workers {
								spec := &SliceSpec{
									Plane: pl.plane, ArrayName: "data", Assoc: assoc,
									Lo: 0, Hi: 1, Map: colormap.Viridis(),
									DomainBounds: refDomain, Workers: nw,
								}
								want, got := refFramebuffer(size[0], size[1]), refFramebuffer(size[0], size[1])
								if err := resampleReference(want, img, spec); err != nil {
									t.Fatal(err)
								}
								if err := ResampleImageSlice(got, img, spec); err != nil {
									t.Fatal(err)
								}
								if !framebuffersEqual(got, want) {
									t.Errorf("%s plane, %v %s %v, ghosts %v, %dx%d, %d workers: differs from the per-pixel loop",
										pl.name, assoc, dtype, layout, ghosts, size[0], size[1], nw)
								}
								if si == 2 && want.NonBackgroundPixels() == 3*size[0] {
									t.Errorf("%s plane: the slice drew nothing", pl.name)
								}
							}
						}
						n++
					}
				}
			}
		}
	}

	// Blocks whose projected window is a small part of the image, each cut
	// by the three axis planes and an oblique one through a point inside
	// it, and one whose box two planes touch only along an edge and only at
	// a corner.
	blocks := []struct {
		name string
		ext  grid.Extent
		edge bool
	}{
		{"min corner", grid.Extent{0, 4, 0, 3, 0, 2}, false},
		{"interior", grid.Extent{3, 7, 2, 6, 1, 4}, false},
		{"one cell thick", grid.Extent{2, 8, 3, 4, 0, 6}, false},
		// The edge x = 0, y = 2.25 and the corner below it are the box's
		// low ones: the cell test keeps a point on them, so a pixel that
		// lands there is drawn.
		{"edge", grid.Extent{3, 7, 2, 6, 1, 4}, true},
	}
	for bi, blk := range blocks {
		b := refBlock(blk.ext).Bounds()
		c := Vec3{(b[0]+b[1])/2 + 0.05, (b[2]+b[3])/2 + 0.1, (b[4]+b[5])/2 + 0.075}
		planes := []Plane{AxisPlane(0, c[0]), AxisPlane(1, c[1]), AxisPlane(2, c[2]),
			{Origin: c, Normal: Vec3{1, 2, 3}}}
		if blk.edge {
			planes = []Plane{{Origin: Vec3{b[0], b[2], c[2]}, Normal: Vec3{1, 1, 0}},
				{Origin: Vec3{b[0], b[2], b[4]}, Normal: Vec3{1, 1, 1}}}
		}
		for pi, pl := range planes {
			for _, assoc := range []grid.Association{grid.CellData, grid.PointData} {
				img := refBlock(blk.ext)
				tuples := img.NumberOfCells()
				if assoc == grid.PointData {
					tuples = img.NumberOfPoints()
				}
				img.Attributes(assoc).Add(refArray("data", "float64", array.AOS, tuples, int64(bi)))
				img.Attributes(assoc).Add(refGhosts(array.AOS, tuples, int64(bi)+1000))
				for si, size := range [][2]int{{7, 5}, {160, 90}, {800, 450}} {
					// The large image at one worker count, in rotation.
					workers := workerCounts
					if si == 2 {
						workers = workerCounts[(bi+pi)%3:][:1]
					}
					for _, nw := range workers {
						spec := &SliceSpec{
							Plane: pl, ArrayName: "data", Assoc: assoc,
							Lo: 0, Hi: 1, Map: colormap.Viridis(),
							DomainBounds: refDomain, Workers: nw,
						}
						want, got := refFramebuffer(size[0], size[1]), refFramebuffer(size[0], size[1])
						if err := resampleReference(want, img, spec); err != nil {
							t.Fatal(err)
						}
						if err := ResampleImageSlice(got, img, spec); err != nil {
							t.Fatal(err)
						}
						if !framebuffersEqual(got, want) {
							t.Errorf("%s block, plane %d, %v, %dx%d, %d workers: differs from the per-pixel loop",
								blk.name, pi, assoc, size[0], size[1], nw)
						}
						if size[0] == 800 && !blk.edge && want.NonBackgroundPixels() == 3*size[0] {
							t.Errorf("%s block, plane %d: the slice drew nothing", blk.name, pi)
						}
					}
				}
			}
		}
	}
}
