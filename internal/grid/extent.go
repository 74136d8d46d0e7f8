package grid

import "fmt"

// Extent is a VTK-style inclusive point extent:
// [imin imax jmin jmax kmin kmax]. A degenerate axis (imin == imax) has one
// point and zero cells along that axis unless the whole extent is 2D, in
// which case cell counts treat it as thickness one.
type Extent [6]int

// NewExtent3D returns the extent of an nx x ny x nz point grid at the origin.
func NewExtent3D(nx, ny, nz int) Extent {
	return Extent{0, nx - 1, 0, ny - 1, 0, nz - 1}
}

// Dims returns the number of points along each axis.
func (e Extent) Dims() (nx, ny, nz int) {
	return e[1] - e[0] + 1, e[3] - e[2] + 1, e[5] - e[4] + 1
}

// CellDims returns the number of cells along each axis (minimum 1 per axis so
// planar extents still describe one cell layer).
func (e Extent) CellDims() (cx, cy, cz int) {
	nx, ny, nz := e.Dims()
	cx, cy, cz = nx-1, ny-1, nz-1
	if cx < 1 {
		cx = 1
	}
	if cy < 1 {
		cy = 1
	}
	if cz < 1 {
		cz = 1
	}
	return cx, cy, cz
}

// NumPoints returns the total number of points.
func (e Extent) NumPoints() int {
	nx, ny, nz := e.Dims()
	return nx * ny * nz
}

// NumCells returns the total number of cells.
func (e Extent) NumCells() int {
	cx, cy, cz := e.CellDims()
	return cx * cy * cz
}

// Valid reports whether the extent is non-empty.
func (e Extent) Valid() bool {
	return e[0] <= e[1] && e[2] <= e[3] && e[4] <= e[5]
}

func (e Extent) String() string {
	return fmt.Sprintf("[%d..%d, %d..%d, %d..%d]", e[0], e[1], e[2], e[3], e[4], e[5])
}

// Dims3 factorizes n ranks into a near-cubic (px, py, pz) process grid, in
// the spirit of MPI_Dims_create: the factors are as balanced as possible with
// px >= py >= pz.
func Dims3(n int) (px, py, pz int) {
	if n <= 0 {
		panic(fmt.Sprintf("grid: Dims3 requires positive n, got %d", n))
	}
	best := [3]int{n, 1, 1}
	bestSpread := n - 1
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			// a <= b <= c; spread = c - a.
			if spread := c - a; spread < bestSpread {
				bestSpread = spread
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// DecomposeRegular splits a global point extent over n ranks using a regular
// 3D block decomposition (the miniapp's partitioning). Adjacent blocks share
// their boundary points, matching VTK's structured-extent convention. The
// returned slice has one local extent per rank.
func DecomposeRegular(global Extent, n int) []Extent {
	px, py, pz := Dims3(n)
	cx, cy, cz := global.CellDims()
	// Orient the largest process count along the largest cell axis for
	// balance: sort axes by cell count.
	type axis struct{ cells, procs, id int }
	axes := []axis{{cx, 0, 0}, {cy, 0, 1}, {cz, 0, 2}}
	// Stable selection sort descending by cells.
	for i := 0; i < 3; i++ {
		max := i
		for j := i + 1; j < 3; j++ {
			if axes[j].cells > axes[max].cells {
				max = j
			}
		}
		axes[i], axes[max] = axes[max], axes[i]
	}
	axes[0].procs, axes[1].procs, axes[2].procs = px, py, pz
	var p [3]int
	for _, a := range axes {
		p[a.id] = a.procs
	}

	split := func(lo, hi, parts, idx int) (int, int) {
		cells := hi - lo // cell count along the axis
		base := cells / parts
		rem := cells % parts
		start := lo + idx*base + min(idx, rem)
		count := base
		if idx < rem {
			count++
		}
		return start, start + count
	}
	out := make([]Extent, 0, n)
	for r := 0; r < n; r++ {
		ri := r % p[0]
		rj := (r / p[0]) % p[1]
		rk := r / (p[0] * p[1])
		var e Extent
		e[0], e[1] = split(global[0], global[1], p[0], ri)
		e[2], e[3] = split(global[2], global[3], p[1], rj)
		e[4], e[5] = split(global[4], global[5], p[2], rk)
		out = append(out, e)
	}
	return out
}
