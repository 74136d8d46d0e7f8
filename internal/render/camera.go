package render

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector.
type Vec3 [3]float64

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a[0] * s, a[1] * s, a[2] * s} }

// Dot returns the dot product.
func (a Vec3) Dot(b Vec3) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// Cross returns the cross product.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// Norm returns the Euclidean length.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalized returns a unit vector in a's direction (zero vector unchanged).
func (a Vec3) Normalized() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Camera is an orthographic look-at camera. World points project onto the
// image plane spanned by (right, up) through the view center; depth is the
// signed distance along the view direction (smaller = closer).
type Camera struct {
	Eye    Vec3
	LookAt Vec3
	Up     Vec3
	// Width is the world-space width of the view window; height follows the
	// framebuffer aspect ratio.
	Width float64

	right, up, dir Vec3
	ready          bool
}

// NewCamera builds a camera; width must be positive and Eye must differ from
// LookAt.
func NewCamera(eye, lookAt, up Vec3, width float64) (*Camera, error) {
	c := &Camera{Eye: eye, LookAt: lookAt, Up: up, Width: width}
	if err := c.prepare(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Camera) prepare() error {
	if c.Width <= 0 {
		return fmt.Errorf("render: camera width must be positive, got %v", c.Width)
	}
	c.dir = c.LookAt.Sub(c.Eye)
	if c.dir.Norm() == 0 {
		return fmt.Errorf("render: camera eye and look-at coincide")
	}
	c.dir = c.dir.Normalized()
	c.right = c.dir.Cross(c.Up)
	if c.right.Norm() == 0 {
		return fmt.Errorf("render: camera up is parallel to the view direction")
	}
	c.right = c.right.Normalized()
	c.up = c.right.Cross(c.dir).Normalized()
	c.ready = true
	return nil
}

// Project maps a world point to pixel coordinates and depth for a w x h
// framebuffer. Pixels outside the buffer are returned as-is; the caller
// clips.
func (c *Camera) Project(p Vec3, w, h int) (px, py float64, depth float32) {
	if !c.ready {
		if err := c.prepare(); err != nil {
			panic(err)
		}
	}
	rel := p.Sub(c.Eye)
	u := rel.Dot(c.right)
	v := rel.Dot(c.up)
	d := rel.Dot(c.dir)
	height := c.Width * float64(h) / float64(w)
	px = (u/c.Width + 0.5) * float64(w)
	py = (0.5 - v/height) * float64(h)
	return px, py, float32(d)
}

// ViewDir returns the unit view direction.
func (c *Camera) ViewDir() Vec3 {
	if !c.ready {
		if err := c.prepare(); err != nil {
			panic(err)
		}
	}
	return c.dir
}

// BoxFrame returns what a camera needs to frame an axis-aligned bounding
// box: its center and the length of its diagonal (1 for a degenerate box, so
// a view width derived from it stays positive).
func BoxFrame(bounds [6]float64) (center Vec3, diag float64) {
	center = Vec3{(bounds[0] + bounds[1]) / 2, (bounds[2] + bounds[3]) / 2, (bounds[4] + bounds[5]) / 2}
	diag = Vec3{bounds[1] - bounds[0], bounds[3] - bounds[2], bounds[5] - bounds[4]}.Norm()
	if diag == 0 {
		diag = 1
	}
	return center, diag
}

// DefaultCamera frames an axis-aligned bounding box from a diagonal
// three-quarter view with ~10% margin, the conventional "show me the domain"
// view the session files use when unset.
func DefaultCamera(bounds [6]float64) *Camera {
	center, diag := BoxFrame(bounds)
	eye := center.Add(Vec3{1, 0.6, 0.8}.Normalized().Scale(diag * 2))
	cam, err := NewCamera(eye, center, Vec3{0, 1, 0}, diag*1.2)
	if err != nil {
		panic(err) // unreachable: constructed inputs are valid
	}
	return cam
}
