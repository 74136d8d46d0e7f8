package render

import (
	"fmt"
	"image/color"
	"math"
	"sync"

	"gosensei/internal/array"
	"gosensei/internal/colormap"
	"gosensei/internal/grid"
	"gosensei/internal/parallel"
)

// Plane is an oriented slicing plane.
type Plane struct {
	Origin Vec3
	Normal Vec3
}

// AxisPlane returns a plane orthogonal to the given axis (0=x, 1=y, 2=z) at
// the given coordinate.
func AxisPlane(axis int, coord float64) Plane {
	var n Vec3
	n[axis] = 1
	var o Vec3
	o[axis] = coord
	return Plane{Origin: o, Normal: n}
}

// Basis returns two unit vectors spanning the plane.
func (p Plane) Basis() (u, v Vec3) {
	n := p.Normal.Normalized()
	ref := Vec3{1, 0, 0}
	if math.Abs(n[0]) > 0.9 {
		ref = Vec3{0, 1, 0}
	}
	u = n.Cross(ref).Normalized()
	v = n.Cross(u).Normalized()
	return u, v
}

// SignedDistance returns the signed distance of q from the plane.
func (p Plane) SignedDistance(q Vec3) float64 {
	return p.Normal.Normalized().Dot(q.Sub(p.Origin))
}

// SliceSpec describes one slice-and-pseudocolor rendering, the workload of
// the paper's Catalyst-slice and Libsim-slice configurations.
type SliceSpec struct {
	Plane     Plane
	ArrayName string
	Assoc     grid.Association
	// Lo, Hi is the global scalar range the colors map; the caller computes
	// it (usually with two allreduces) so all ranks agree.
	Lo, Hi float64
	Map    *colormap.Map
	// DomainBounds is the global domain bounding box; it fixes the
	// pixel-to-world mapping identically on every rank.
	DomainBounds [6]float64
	// Workers bounds the intra-rank parallelism of the resample loop; 0 or 1
	// runs serially. Output is bit-identical at any worker count (each
	// worker owns disjoint framebuffer rows).
	Workers int
}

// PlaneWindow computes the plane's basis and the in-plane bounding rectangle
// of the domain corners: the window every rank maps its pixels or sample
// quads onto.
func (s *SliceSpec) PlaneWindow() (u, v Vec3, umin, umax, vmin, vmax float64) {
	u, v = s.Plane.Basis()
	umin, umax, vmin, vmax = boxInPlane(s.Plane, u, v, s.DomainBounds)
	return u, v, umin, umax, vmin, vmax
}

// boxInPlane returns the bounding rectangle, in p's (u, v) coordinates, of
// the eight corners of box b.
func boxInPlane(p Plane, u, v Vec3, b [6]float64) (umin, umax, vmin, vmax float64) {
	umin, vmin = math.Inf(1), math.Inf(1)
	umax, vmax = math.Inf(-1), math.Inf(-1)
	for ci := 0; ci < 8; ci++ {
		q := Vec3{b[ci&1], b[2+(ci>>1)&1], b[4+(ci>>2)&1]}
		rel := q.Sub(p.Origin)
		pu, pv := rel.Dot(u), rel.Dot(v)
		umin = math.Min(umin, pu)
		umax = math.Max(umax, pu)
		vmin = math.Min(vmin, pv)
		vmax = math.Max(vmax, pv)
	}
	return umin, umax, vmin, vmax
}

// ResampleImageSlice renders this rank's portion of the slice into fb by
// sampling the plane at every pixel the local block can cover: pixels whose
// world point falls in a local (non-ghost) cell are pseudocolored, and rows
// and columns outside the block's projected rectangle are not visited.
// Ranks not intersecting the plane write nothing — the paper's "only those
// ranks whose domains intersect the slice plane will extract and render"
// stage. The composited result across ranks is the full slice image.
//
// A pixel's world point is (Origin + u·pu) + v·pv, component by component,
// and its cell the floor of (point − grid origin) / spacing. Those operations
// and their order are frozen: a pixel centre that lands within an ulp of a
// cell face must floor to the same side on every rank and in every version,
// or composited images change. What the loop may do, and does, is not repeat
// them: the column term is computed once per column and the row term once
// per row, cell scalars and ghost levels are read through an array.Reader
// (the simulation's memory itself for float64 data), and a cell is ghost-tested and coloured once per run of
// pixels that fall in it, not once per pixel.
func ResampleImageSlice(fb *Framebuffer, img *grid.ImageData, spec *SliceSpec) error {
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
	// Only pixels in the rectangle the block's corners span can fall in it.
	bumin, bumax, bvmin, bvmax := boxInPlane(spec.Plane, u, v, lb)
	x0, x1 := pixelSpan(bumin, bumax, umin, du, fb.W)
	y0, y1 := pixelSpan(bvmin, bvmax, vmin, dv, fb.H)

	// Origin + u·pu, three components per column, shared by every stripe.
	colp := columnPool.Get().(*[]float64)
	defer columnPool.Put(colp)
	if cap(*colp) < 3*fb.W {
		*colp = make([]float64, 3*fb.W)
	}
	cols := (*colp)[:3*fb.W]
	for px := x0; px < x1; px++ {
		pu := umin + (float64(px)+0.5)*du
		cols[3*px+0] = spec.Plane.Origin[0] + u[0]*pu
		cols[3*px+1] = spec.Plane.Origin[1] + u[1]*pu
		cols[3*px+2] = spec.Plane.Origin[2] + u[2]*pu
	}

	ext := img.Extent
	cx, cy, cz := ext.CellDims()
	o0, o1, o2 := img.Origin[0], img.Origin[1], img.Origin[2]
	s0, s1, s2 := img.Spacing[0], img.Spacing[1], img.Spacing[2]
	cells := spec.Assoc == grid.CellData
	parallel.For(spec.Workers, y1-y0, rasterStripeRows, func(yLo, yHi int) {
		var rd array.Reader
		rd.Reset(a, ghost)
		for py := y0 + yLo; py < y0+yHi; py++ {
			pv := vmin + (float64(py)+0.5)*dv
			v0, v1, v2 := v[0]*pv, v[1]*pv, v[2]*pv
			depth := fb.Depth[py*fb.W : (py+1)*fb.W]
			rgba := fb.Color[py*fb.W*4 : (py+1)*fb.W*4]
			// The cell the previous pixel fell in, whether it is drawn (a
			// point-data sample always is), and its colour.
			last, drawn := -1, !cells
			var c color.RGBA
			for px := x0; px < x1; px++ {
				// World to cell index.
				fi := (cols[3*px+0] + v0 - o0) / s0
				fj := (cols[3*px+1] + v1 - o1) / s1
				fk := (cols[3*px+2] + v2 - o2) / s2
				ci := int(math.Floor(fi)) - ext[0]
				cj := int(math.Floor(fj)) - ext[2]
				ck := int(math.Floor(fk)) - ext[4]
				if ci < 0 || ci >= cx || cj < 0 || cj >= cy || ck < 0 || ck >= cz {
					continue
				}
				if !cells {
					val := trilinear(img, &rd, fi-float64(ext[0]), fj-float64(ext[2]), fk-float64(ext[4]))
					c = spec.Map.Pseudocolor(val, spec.Lo, spec.Hi)
				} else if idx := ck*cx*cy + cj*cx + ci; idx != last {
					last = idx
					if drawn = rd.GhostAt(idx) == 0; drawn {
						c = spec.Map.Pseudocolor(rd.At(idx), spec.Lo, spec.Hi)
					}
				}
				// Framebuffer.Set at depth 0, on a pixel known to be inside.
				if !drawn || 0 >= depth[px] {
					continue
				}
				depth[px] = 0
				rgba[4*px+0], rgba[4*px+1], rgba[4*px+2], rgba[4*px+3] = c.R, c.G, c.B, c.A
			}
		}
	})
	return nil
}

// pixelSpan returns the pixels [p0, p1) of n, pixel p centred at
// start + (p+0.5)·d, whose centres lie in [lo, hi], widened by one pixel on
// each side so that a point the cell test rounds into the block is never
// clipped away. A window of no width, or one that does not compute, clips
// nothing.
func pixelSpan(lo, hi, start, d float64, n int) (p0, p1 int) {
	if !(d > 0) {
		return 0, n
	}
	first := math.Ceil((lo-start)/d-0.5) - 1
	end := math.Floor((hi-start)/d-0.5) + 2
	if !(first > 0) {
		first = 0
	}
	if !(end < float64(n)) {
		end = float64(n)
	}
	if first >= end {
		return 0, 0
	}
	return int(first), int(end)
}

// columnPool recycles ResampleImageSlice's per-column table.
var columnPool = sync.Pool{New: func() any { return new([]float64) }}

func planeIntersectsBox(p Plane, b [6]float64) bool {
	neg, pos := false, false
	for ci := 0; ci < 8; ci++ {
		q := Vec3{b[ci&1], b[2+(ci>>1)&1], b[4+(ci>>2)&1]}
		d := p.SignedDistance(q)
		if d <= 0 {
			neg = true
		}
		if d >= 0 {
			pos = true
		}
	}
	return neg && pos
}

// trilinear samples a point-centered scalar at fractional point coordinates
// (relative to the local extent origin), clamping to the local grid.
func trilinear(img *grid.ImageData, a *array.Reader, fi, fj, fk float64) float64 {
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
		return a.At(0)
	}
	i, tx := clampf(fi, nx)
	j, ty := clampf(fj, ny)
	k, tz := clampf(fk, nz)
	at := func(ii, jj, kk int) float64 {
		return a.At(kk*nx*ny + jj*nx + ii)
	}
	lerp := func(x, y, t float64) float64 { return x + (y-x)*t }
	c00 := lerp(at(i, j, k), at(i+1, j, k), tx)
	c10 := lerp(at(i, j+1, k), at(i+1, j+1, k), tx)
	c01 := lerp(at(i, j, k+1), at(i+1, j, k+1), tx)
	c11 := lerp(at(i, j+1, k+1), at(i+1, j+1, k+1), tx)
	return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
}

// sliceCellGrain is the cell-chunk size of the parallel unstructured slice;
// fixed so chunk boundaries (and the merged triangle order) are independent
// of the worker count.
const sliceCellGrain = 512

// SliceUnstructured extracts the plane intersection of a tetrahedral mesh as
// triangles with interpolated point scalars, in world space. Rasterize the
// result with RenderMesh using a camera looking down the plane normal. Cells
// other than tetrahedra are skipped. When spec.Workers > 1 the cell loop is
// chunk-partitioned: each chunk extracts into its own TriMesh and the chunks
// are merged in cell order, reproducing the serial triangle order exactly.
func SliceUnstructured(g *grid.UnstructuredGrid, spec *SliceSpec) (*TriMesh, error) {
	a := g.Attributes(spec.Assoc).Get(spec.ArrayName)
	if a == nil {
		return nil, fmt.Errorf("render: slice: mesh has no %s array %q", spec.Assoc, spec.ArrayName)
	}
	if spec.Assoc != grid.PointData {
		return nil, fmt.Errorf("render: unstructured slice needs point data")
	}
	pt := func(id int64) Vec3 {
		return Vec3{g.Points.Value(int(id), 0), g.Points.Value(int(id), 1), g.Points.Value(int(id), 2)}
	}
	scalar := func(id int64) float64 {
		if a.Components() == 1 {
			return a.Value(int(id), 0)
		}
		// Multi-component arrays are sliced by magnitude (velocity magnitude
		// pseudocoloring, as the PHASTA runs do).
		s := 0.0
		for c := 0; c < a.Components(); c++ {
			v := a.Value(int(id), c)
			s += v * v
		}
		return math.Sqrt(s)
	}
	parts := parallel.MapChunks(spec.Workers, g.NumberOfCells(), sliceCellGrain, func(_, lo, hi int) *TriMesh {
		part := &TriMesh{}
		for ci := lo; ci < hi; ci++ {
			if g.CellTypes[ci] != grid.CellTetrahedron {
				continue
			}
			ids := g.CellPoints(ci)
			var p [4]Vec3
			var d [4]float64
			var s [4]float64
			for i := 0; i < 4; i++ {
				p[i] = pt(ids[i])
				d[i] = spec.Plane.SignedDistance(p[i])
				s[i] = scalar(ids[i])
			}
			clipTetAgainstPlane(part, p, d, s)
		}
		return part
	})
	out := &TriMesh{}
	for _, part := range parts {
		out.Merge(part)
	}
	return out, nil
}

// clipTetAgainstPlane appends the polygon where the plane cuts the tet
// (0, 1, or 2 triangles).
func clipTetAgainstPlane(out *TriMesh, p [4]Vec3, d [4]float64, s [4]float64) {
	type cut struct {
		pos Vec3
		sc  float64
	}
	var cuts []cut
	edges := [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, e := range edges {
		a, b := e[0], e[1]
		if (d[a] < 0) == (d[b] < 0) {
			continue
		}
		t := d[a] / (d[a] - d[b])
		pos := p[a].Add(p[b].Sub(p[a]).Scale(t))
		sc := s[a] + (s[b]-s[a])*t
		cuts = append(cuts, cut{pos, sc})
	}
	switch len(cuts) {
	case 3:
		out.Append(cuts[0].pos, cuts[1].pos, cuts[2].pos, cuts[0].sc, cuts[1].sc, cuts[2].sc)
	case 4:
		// Order the quad by angle around its centroid to avoid a bowtie.
		var c Vec3
		for _, q := range cuts {
			c = c.Add(q.pos)
		}
		c = c.Scale(0.25)
		n := cuts[1].pos.Sub(cuts[0].pos).Cross(cuts[2].pos.Sub(cuts[0].pos)).Normalized()
		u := cuts[0].pos.Sub(c).Normalized()
		v := n.Cross(u)
		type ang struct {
			a float64
			c cut
		}
		angs := make([]ang, 4)
		for i, q := range cuts {
			rel := q.pos.Sub(c)
			angs[i] = ang{math.Atan2(rel.Dot(v), rel.Dot(u)), q}
		}
		for i := 1; i < 4; i++ {
			for j := i; j > 0 && angs[j].a < angs[j-1].a; j-- {
				angs[j], angs[j-1] = angs[j-1], angs[j]
			}
		}
		out.Append(angs[0].c.pos, angs[1].c.pos, angs[2].c.pos, angs[0].c.sc, angs[1].c.sc, angs[2].c.sc)
		out.Append(angs[0].c.pos, angs[2].c.pos, angs[3].c.pos, angs[0].c.sc, angs[2].c.sc, angs[3].c.sc)
	}
}
