package leslie

import (
	"fmt"
	"math"

	"gosensei/internal/mpi"
)

// periodicAxis reports whether an axis has periodic boundaries: x and z are
// periodic, y has slip walls.
func periodicAxis(ax int) bool { return ax != 1 }

// neighbor returns the rank adjacent along ax in direction dir (-1 or +1),
// or -1 when the face is a physical wall.
func (s *Solver) neighbor(ax, dir int) int {
	c := s.pcoord
	c[ax] += dir
	if c[ax] < 0 || c[ax] >= s.pdims[ax] {
		if !periodicAxis(ax) {
			return -1
		}
		c[ax] = (c[ax] + s.pdims[ax]) % s.pdims[ax]
	}
	return c[0] + s.pdims[0]*(c[1]+s.pdims[1]*c[2])
}

const tagGhostBase = 200

// ExchangeGhosts fills the one-cell ghost layer on every face: periodic or
// inter-rank faces exchange owned boundary layers; y walls mirror the
// interior with the normal momentum flipped (slip condition).
func (s *Solver) ExchangeGhosts() error {
	for ax := 0; ax < 3; ax++ {
		lo := s.neighbor(ax, -1)
		hi := s.neighbor(ax, +1)
		// Pack owned boundary layers.
		loFace := s.packFace(ax, 0)
		hiFace := s.packFace(ax, s.n[ax]-1)
		// Self-neighbor (single rank along a periodic axis): copy directly.
		if lo == s.Comm.Rank() && hi == s.Comm.Rank() {
			s.unpackGhost(ax, -1, hiFace)
			s.unpackGhost(ax, +1, loFace)
			continue
		}
		tagUp := tagGhostBase + ax*2 // messages traveling toward +ax
		tagDown := tagGhostBase + ax*2 + 1
		if hi >= 0 {
			mpi.Send(s.Comm, hi, tagUp, hiFace)
		}
		if lo >= 0 {
			mpi.Send(s.Comm, lo, tagDown, loFace)
		}
		if lo >= 0 {
			data, _, err := mpi.Recv[float64](s.Comm, lo, tagUp)
			if err != nil {
				return fmt.Errorf("leslie: ghost exchange ax %d lo: %w", ax, err)
			}
			s.unpackGhost(ax, -1, data)
		} else {
			s.applyWall(ax, -1)
		}
		if hi >= 0 {
			data, _, err := mpi.Recv[float64](s.Comm, hi, tagDown)
			if err != nil {
				return fmt.Errorf("leslie: ghost exchange ax %d hi: %w", ax, err)
			}
			s.unpackGhost(ax, +1, data)
		} else {
			s.applyWall(ax, +1)
		}
	}
	return nil
}

// faceSize returns the cell count of a face orthogonal to ax.
func (s *Solver) faceSize(ax int) int {
	switch ax {
	case 0:
		return s.n[1] * s.n[2]
	case 1:
		return s.n[0] * s.n[2]
	default:
		return s.n[0] * s.n[1]
	}
}

// packFace serializes the owned layer at local index `layer` along ax for
// all conserved variables.
func (s *Solver) packFace(ax, layer int) []float64 {
	fs := s.faceSize(ax)
	out := make([]float64, fs*nvar)
	pos := 0
	s.forFace(ax, func(a, b int) {
		var id int
		switch ax {
		case 0:
			id = s.idx(layer, a, b)
		case 1:
			id = s.idx(a, layer, b)
		default:
			id = s.idx(a, b, layer)
		}
		for v := 0; v < nvar; v++ {
			out[pos] = s.U[v][id]
			pos++
		}
	})
	return out
}

// unpackGhost writes a received face into the ghost layer on side dir.
func (s *Solver) unpackGhost(ax, dir int, data []float64) {
	layer := -1
	if dir > 0 {
		layer = s.n[ax]
	}
	pos := 0
	s.forFace(ax, func(a, b int) {
		var id int
		switch ax {
		case 0:
			id = s.idx(layer, a, b)
		case 1:
			id = s.idx(a, layer, b)
		default:
			id = s.idx(a, b, layer)
		}
		for v := 0; v < nvar; v++ {
			s.U[v][id] = data[pos]
			pos++
		}
	})
}

// applyWall fills a wall-side ghost layer with the slip condition: mirror
// the adjacent interior cell and flip the wall-normal momentum.
func (s *Solver) applyWall(ax, dir int) {
	ghost := -1
	inner := 0
	if dir > 0 {
		ghost = s.n[ax]
		inner = s.n[ax] - 1
	}
	normal := ax + 1 // conserved index of the normal momentum
	s.forFace(ax, func(a, b int) {
		var gid, iid int
		switch ax {
		case 0:
			gid, iid = s.idx(ghost, a, b), s.idx(inner, a, b)
		case 1:
			gid, iid = s.idx(a, ghost, b), s.idx(a, inner, b)
		default:
			gid, iid = s.idx(a, b, ghost), s.idx(a, b, inner)
		}
		for v := 0; v < nvar; v++ {
			s.U[v][gid] = s.U[v][iid]
		}
		s.U[normal][gid] = -s.U[normal][gid]
	})
}

// forFace iterates the two in-face axes of a face orthogonal to ax.
func (s *Solver) forFace(ax int, f func(a, b int)) {
	var na, nb int
	switch ax {
	case 0:
		na, nb = s.n[1], s.n[2]
	case 1:
		na, nb = s.n[0], s.n[2]
	default:
		na, nb = s.n[0], s.n[1]
	}
	for b := 0; b < nb; b++ {
		for a := 0; a < na; a++ {
			f(a, b)
		}
	}
}

// TotalMass integrates rho over the global domain — conserved exactly by
// the scheme (periodic x/z, slip y), which the tests verify.
//
//lint:ignore unreferenced TestMassConservation checks the conservative update against this global sum
func (s *Solver) TotalMass() (float64, error) {
	cellVol := s.dx[0] * s.dx[1] * s.dx[2]
	local := 0.0
	for k := 0; k < s.n[2]; k++ {
		for j := 0; j < s.n[1]; j++ {
			for i := 0; i < s.n[0]; i++ {
				local += s.U[0][s.idx(i, j, k)]
			}
		}
	}
	local *= cellVol
	out := make([]float64, 1)
	if err := mpi.Allreduce(s.Comm, []float64{local}, out, mpi.OpSum); err != nil {
		return 0, err
	}
	return out[0], nil
}

// VorticityMagnitude computes |curl u| at every owned cell using central
// differences over the (already exchanged) ghosted velocity field. This is
// the derived quantity the AVF-LESLIE SENSEI adaptor exposes.
func (s *Solver) VorticityMagnitude() []float64 {
	out := make([]float64, s.LocalCells())
	vel := func(id, comp int) float64 { return s.U[comp+1][id] / s.U[0][id] }
	strides := [3]int{1, s.n[0] + 2, (s.n[0] + 2) * (s.n[1] + 2)}
	pos := 0
	for k := 0; k < s.n[2]; k++ {
		for j := 0; j < s.n[1]; j++ {
			for i := 0; i < s.n[0]; i++ {
				id := s.idx(i, j, k)
				d := func(comp, ax int) float64 {
					return (vel(id+strides[ax], comp) - vel(id-strides[ax], comp)) / (2 * s.dx[ax])
				}
				ox := d(2, 1) - d(1, 2) // dw/dy - dv/dz
				oy := d(0, 2) - d(2, 0) // du/dz - dw/dx
				oz := d(1, 0) - d(0, 1) // dv/dx - du/dy
				out[pos] = sqrt3(ox, oy, oz)
				pos++
			}
		}
	}
	return out
}

func sqrt3(a, b, c float64) float64 {
	return math.Sqrt(a*a + b*b + c*c)
}
