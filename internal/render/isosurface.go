package render

import (
	"fmt"

	"gosensei/internal/array"
	"gosensei/internal/grid"
	"gosensei/internal/parallel"
)

// tets6 is the canonical 6-tetrahedra decomposition of a hexahedral cell;
// every tet shares the main diagonal (corner 0 to corner 6). Corner
// numbering: bit 0 = +x, bit 1 = +y, bit 2 = +z.
var tets6 = [6][4]int{
	{0, 1, 3, 7},
	{0, 1, 7, 5},
	{0, 5, 7, 4},
	{1, 2, 3, 7},
	{1, 6, 2, 7},
	{1, 5, 6, 7},
}

// Isosurface extracts the iso-contour of a point-centered scalar on an image
// grid using marching tetrahedra. Triangle vertices lie exactly on the
// linearly-interpolated isosurface; the per-vertex scalar carries a second
// array's interpolated value when colorBy is non-empty (otherwise the iso
// scalar itself).
func Isosurface(img *grid.ImageData, name string, iso float64, colorBy string) (*TriMesh, error) {
	return IsosurfaceWorkers(img, name, iso, colorBy, 1)
}

// isoSlabGrain is the k-slab chunk size of the parallel isosurface; fixed so
// chunk boundaries never depend on the worker count.
const isoSlabGrain = 4

// IsosurfaceWorkers is Isosurface with an explicit intra-rank worker count:
// the k-slab loop is chunk-partitioned, each chunk extracts into its own
// TriMesh, and the chunks are merged in k order — reproducing the serial
// triangle order (and therefore the rendered image) exactly at any worker
// count.
func IsosurfaceWorkers(img *grid.ImageData, name string, iso float64, colorBy string, workers int) (*TriMesh, error) {
	a := img.Attributes(grid.PointData).Get(name)
	if a == nil {
		return nil, fmt.Errorf("render: isosurface: mesh has no point array %q", name)
	}
	cb := a
	if colorBy != "" {
		cb = img.Attributes(grid.PointData).Get(colorBy)
		if cb == nil {
			return nil, fmt.Errorf("render: isosurface: mesh has no point array %q to color by", colorBy)
		}
	}
	nx, ny, nz := img.Extent.Dims()
	if nx < 2 || ny < 2 || nz < 2 {
		return &TriMesh{}, nil
	}
	parts := parallel.MapChunks(workers, nz-1, isoSlabGrain, func(_, klo, khi int) *TriMesh {
		part := &TriMesh{}
		var (
			pos        [8]Vec3
			val        [8]float64
			col        [8]float64
			vals, cols array.Reader
		)
		vals.Reset(a, nil)
		cols.Reset(cb, nil)
		for k := klo; k < khi; k++ {
			for j := 0; j < ny-1; j++ {
				for i := 0; i < nx-1; i++ {
					for c := 0; c < 8; c++ {
						di, dj, dk := c&1, (c>>1)&1, (c>>2)&1
						gi, gj, gk := i+di+img.Extent[0], j+dj+img.Extent[2], k+dk+img.Extent[4]
						x, y, z := img.PointPosition(gi, gj, gk)
						pos[c] = Vec3{x, y, z}
						idx := (k+dk)*nx*ny + (j+dj)*nx + (i + di)
						val[c] = vals.At(idx)
						col[c] = cols.At(idx)
					}
					for _, tet := range tets6 {
						marchTet(part, tet, &pos, &val, &col, iso)
					}
				}
			}
		}
		return part
	})
	out := &TriMesh{}
	for _, part := range parts {
		out.Merge(part)
	}
	return out, nil
}

// marchTet emits the iso-triangles of one tetrahedron.
func marchTet(out *TriMesh, tet [4]int, pos *[8]Vec3, val *[8]float64, col *[8]float64, iso float64) {
	inside := 0
	for i, c := range tet {
		if val[c] > iso {
			inside |= 1 << i
		}
	}
	if inside == 0 || inside == 0xF {
		return
	}
	type hit struct {
		p Vec3
		s float64
	}
	interp := func(a, b int) hit {
		ca, vb := tet[a], tet[b]
		va := val[ca]
		t := (iso - va) / (val[vb] - va)
		p := pos[ca].Add(pos[vb].Sub(pos[ca]).Scale(t))
		s := col[ca] + (col[vb]-col[ca])*t
		return hit{p, s}
	}
	// Edge list in tet-local indices.
	edges := [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	var hits []hit
	for _, e := range edges {
		a, b := e[0], e[1]
		ina := inside&(1<<a) != 0
		inb := inside&(1<<b) != 0
		if ina != inb {
			hits = append(hits, interp(a, b))
		}
	}
	switch len(hits) {
	case 3:
		out.Append(hits[0].p, hits[1].p, hits[2].p, hits[0].s, hits[1].s, hits[2].s)
	case 4:
		// Two-inside case: the four crossing points form a quad. With the
		// edge enumeration above, the crossings arrive in an order that can
		// bowtie, so order them around the centroid like the slice clipper.
		var c Vec3
		for _, h := range hits {
			c = c.Add(h.p)
		}
		c = c.Scale(0.25)
		n := hits[1].p.Sub(hits[0].p).Cross(hits[2].p.Sub(hits[0].p)).Normalized()
		u := hits[0].p.Sub(c).Normalized()
		v := n.Cross(u)
		type ang struct {
			a float64
			h hit
		}
		angs := make([]ang, 4)
		for i, h := range hits {
			rel := h.p.Sub(c)
			angs[i] = ang{atan2(rel.Dot(v), rel.Dot(u)), h}
		}
		for i := 1; i < 4; i++ {
			for j := i; j > 0 && angs[j].a < angs[j-1].a; j-- {
				angs[j], angs[j-1] = angs[j-1], angs[j]
			}
		}
		out.Append(angs[0].h.p, angs[1].h.p, angs[2].h.p, angs[0].h.s, angs[1].h.s, angs[2].h.s)
		out.Append(angs[0].h.p, angs[2].h.p, angs[3].h.p, angs[0].h.s, angs[2].h.s, angs[3].h.s)
	}
}

// CellToPointScalars averages a cell-centered scalar onto grid points,
// returning a new point array named like the source. Analyses that need
// point data (isosurfacing) use this when the simulation is cell-centered.
func CellToPointScalars(img *grid.ImageData, name string) error {
	ca := img.Attributes(grid.CellData).Get(name)
	if ca == nil {
		return fmt.Errorf("render: cell-to-point: no cell array %q", name)
	}
	nx, ny, nz := img.Extent.Dims()
	cx, cy, cz := img.Extent.CellDims()
	vals := make([]float64, nx*ny*nz)
	var rd array.Reader
	rd.Reset(ca, nil)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				sum, n := 0.0, 0
				for dk := -1; dk <= 0; dk++ {
					for dj := -1; dj <= 0; dj++ {
						for di := -1; di <= 0; di++ {
							ci, cj, ck := i+di, j+dj, k+dk
							if ci < 0 || ci >= cx || cj < 0 || cj >= cy || ck < 0 || ck >= cz {
								continue
							}
							sum += rd.At(ck*cx*cy + cj*cx + ci)
							n++
						}
					}
				}
				if n > 0 {
					vals[k*nx*ny+j*nx+i] = sum / float64(n)
				}
			}
		}
	}
	pa := wrapNamed(name, vals)
	img.Attributes(grid.PointData).Add(pa)
	return nil
}
