package render

import (
	"image/color"
	"math"

	"gosensei/internal/parallel"
)

// Vertex is a rasterizer input: a pixel-space position, a depth, and a
// scalar attribute interpolated across the triangle.
type Vertex struct {
	X, Y   float64
	Depth  float32
	Scalar float64
}

// Shader converts an interpolated scalar to a color.
type Shader func(scalar float64) color.RGBA

// RasterizeTriangle fills a triangle with perspective-less barycentric
// interpolation of depth and scalar, honoring the framebuffer's depth test.
func RasterizeTriangle(fb *Framebuffer, v0, v1, v2 Vertex, shade Shader) {
	rasterizeTriangleRows(fb, v0, v1, v2, shade, 0, fb.H)
}

// rasterizeTriangleRows is RasterizeTriangle restricted to pixel rows
// [yLo, yHi). Workers that own disjoint row stripes can therefore rasterize
// the same triangle list concurrently with race-free z-buffer writes, and —
// because every pixel sees the triangles in the same order as the serial
// path — bit-identical output.
func rasterizeTriangleRows(fb *Framebuffer, v0, v1, v2 Vertex, shade Shader, yLo, yHi int) {
	minX := int(math.Floor(min3(v0.X, v1.X, v2.X)))
	maxX := int(math.Ceil(max3(v0.X, v1.X, v2.X)))
	minY := int(math.Floor(min3(v0.Y, v1.Y, v2.Y)))
	maxY := int(math.Ceil(max3(v0.Y, v1.Y, v2.Y)))
	if minX < 0 {
		minX = 0
	}
	if minY < yLo {
		minY = yLo
	}
	if maxX >= fb.W {
		maxX = fb.W - 1
	}
	if maxY >= yHi {
		maxY = yHi - 1
	}
	area := edge(v0, v1, v2.X, v2.Y)
	if area == 0 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			cx, cy := float64(x)+0.5, float64(y)+0.5
			w0 := edge(v1, v2, cx, cy) * inv
			w1 := edge(v2, v0, cx, cy) * inv
			w2 := edge(v0, v1, cx, cy) * inv
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			depth := float32(w0)*v0.Depth + float32(w1)*v1.Depth + float32(w2)*v2.Depth
			s := w0*v0.Scalar + w1*v1.Scalar + w2*v2.Scalar
			fb.Set(x, y, shade(s), depth)
		}
	}
}

// edge is the signed doubled area of triangle (a, b, (px, py)); the sign
// tells which side of edge a->b the point lies on.
func edge(a, b Vertex, px, py float64) float64 {
	return (b.X-a.X)*(py-a.Y) - (b.Y-a.Y)*(px-a.X)
}

func min3(a, b, c float64) float64 { return math.Min(a, math.Min(b, c)) }
func max3(a, b, c float64) float64 { return math.Max(a, math.Max(b, c)) }

// TriMesh is triangle soup with a per-vertex scalar: vertices come in
// consecutive triples.
type TriMesh struct {
	V []Vec3
	S []float64
}

// Triangles returns the triangle count.
func (m *TriMesh) Triangles() int { return len(m.V) / 3 }

// Append adds one triangle.
func (m *TriMesh) Append(a, b, c Vec3, sa, sb, sc float64) {
	m.V = append(m.V, a, b, c)
	m.S = append(m.S, sa, sb, sc)
}

// Merge appends all triangles of o.
func (m *TriMesh) Merge(o *TriMesh) {
	m.V = append(m.V, o.V...)
	m.S = append(m.S, o.S...)
}

// rasterStripeRows is the framebuffer stripe height of the parallel
// rasterizer. It is a fixed constant (not derived from the worker count) so
// stripe boundaries — and therefore all floating-point work — are identical
// at any parallelism level.
const rasterStripeRows = 16

// shadedTri is a projected, pre-shaded triangle ready for rasterization.
type shadedTri struct {
	v          [3]Vertex
	f          float64 // Lambertian shading factor
	minY, maxY int     // clamped pixel-row bounds
}

// RenderMesh rasterizes a TriMesh through the camera with flat Lambertian
// shading: each triangle's base color comes from shade applied to the mean
// vertex scalar, scaled by |n·l| against the view direction plus ambient.
func RenderMesh(fb *Framebuffer, cam *Camera, mesh *TriMesh, shade Shader) {
	RenderMeshWorkers(fb, cam, mesh, shade, 1)
}

// RenderMeshWorkers is RenderMesh with an explicit intra-rank worker count.
// Projection and shading-factor setup parallelize over triangles (disjoint
// writes into a per-triangle slice); rasterization parallelizes over
// horizontal framebuffer stripes, each worker owning disjoint rows so
// z-buffer writes are race-free. Within a stripe triangles are visited in
// mesh order, so every pixel resolves depth ties exactly as the serial path
// does and the output is bit-identical at any worker count.
func RenderMeshWorkers(fb *Framebuffer, cam *Camera, mesh *TriMesh, shade Shader, workers int) {
	light := cam.ViewDir().Scale(-1)
	const ambient = 0.25
	nt := mesh.Triangles()
	if nt == 0 {
		return
	}
	tris := make([]shadedTri, nt)
	parallel.For(workers, nt, 64, func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			i := ti * 3
			a, b, c := mesh.V[i], mesh.V[i+1], mesh.V[i+2]
			n := b.Sub(a).Cross(c.Sub(a)).Normalized()
			lambert := math.Abs(n.Dot(light))
			st := shadedTri{f: ambient + (1-ambient)*lambert}
			for j, p := range []Vec3{a, b, c} {
				px, py, d := cam.Project(p, fb.W, fb.H)
				st.v[j] = Vertex{X: px, Y: py, Depth: d, Scalar: mesh.S[i+j]}
			}
			st.minY = int(math.Floor(min3(st.v[0].Y, st.v[1].Y, st.v[2].Y)))
			st.maxY = int(math.Ceil(max3(st.v[0].Y, st.v[1].Y, st.v[2].Y)))
			tris[ti] = st
		}
	})
	parallel.For(workers, fb.H, rasterStripeRows, func(yLo, yHi int) {
		for ti := range tris {
			st := &tris[ti]
			if st.maxY < yLo || st.minY >= yHi {
				continue
			}
			f := st.f
			rasterizeTriangleRows(fb, st.v[0], st.v[1], st.v[2], func(s float64) color.RGBA {
				base := shade(s)
				return color.RGBA{
					R: uint8(float64(base.R) * f),
					G: uint8(float64(base.G) * f),
					B: uint8(float64(base.B) * f),
					A: base.A,
				}
			}, yLo, yHi)
		}
	})
}
