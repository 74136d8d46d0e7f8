// Package render implements the software visualization pipeline the in situ
// infrastructures of this reproduction share: per-rank framebuffers with
// depth, an orthographic camera, plane-slice resampling with pseudocoloring,
// marching-tetrahedra isosurface extraction, a z-buffered triangle
// rasterizer, and PNG output with a controllable compression level.
//
// Substitution note (see DESIGN.md): the paper renders through ParaView and
// VisIt (OpenGL/OSMesa, marching cubes). This package provides the same
// pipeline stages in pure Go — resample/extract geometry per rank, rasterize
// locally, composite across ranks (package compositing), serialize a PNG on
// rank 0. Marching tetrahedra replaces marching cubes: it produces the same
// class of iso-geometry from a case analysis that is correct by construction
// rather than a 256-entry table. The serial zlib PNG encode on rank 0 is the
// bottleneck the paper's PHASTA study diagnoses; it is reproduced literally
// via image/png's compression levels.
package render

import (
	"fmt"
	"image/color"
	"math"
	"sync"
	"sync/atomic"
)

// Framebuffer is an RGBA image with a depth buffer. Depth follows the
// convention "smaller is closer"; pixels start at depth +Inf.
type Framebuffer struct {
	W, H  int
	Color []uint8   // RGBA, 4 bytes per pixel, row-major
	Depth []float32 // one per pixel
}

// NewFramebuffer returns a cleared framebuffer of the given size.
func NewFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid framebuffer size %dx%d", w, h))
	}
	fb := &Framebuffer{W: w, H: h, Color: make([]uint8, w*h*4), Depth: make([]float32, w*h)}
	fb.Clear(color.RGBA{})
	return fb
}

// fbPool recycles framebuffers across per-step pipeline invocations. An
// image-sized color+depth pair is the single largest transient allocation of
// a render step (the paper's image-size-proportional memory cost), so the
// catalyst and libsim adaptors acquire and release instead of allocating.
var fbPool sync.Pool // *Framebuffer

// fbInUse counts framebuffers acquired and not yet released.
var fbInUse atomic.Int64

// FramebuffersInUse reports how many acquired framebuffers have not been
// released. A pipeline that releases every buffer exactly once leaves the
// count where it found it, on error paths too; tests hold it to that.
//
//lint:ignore unreferenced TestImageReleasesEveryBufferOnce, TestVolumeReusesFramebuffers and TestCinemaWriteFailureIsNotIndexed assert this leak gauge returns to its baseline
func FramebuffersInUse() int64 { return fbInUse.Load() }

// AcquireFramebuffer returns a cleared framebuffer of the given size, reusing
// pooled storage when a previously released buffer is large enough. It is
// interchangeable with NewFramebuffer; pair it with Release.
func AcquireFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid framebuffer size %dx%d", w, h))
	}
	fbInUse.Add(1)
	v := fbPool.Get()
	if v == nil {
		return NewFramebuffer(w, h)
	}
	fb := v.(*Framebuffer)
	n := w * h
	if cap(fb.Color) < n*4 || cap(fb.Depth) < n {
		return NewFramebuffer(w, h)
	}
	fb.W, fb.H = w, h
	fb.Color = fb.Color[:n*4]
	fb.Depth = fb.Depth[:n]
	fb.Clear(color.RGBA{})
	return fb
}

// Release returns the framebuffer's storage to the pool. The caller must not
// touch fb afterwards.
func (fb *Framebuffer) Release() {
	if fb == nil {
		return
	}
	fbInUse.Add(-1)
	fbPool.Put(fb)
}

// Clear resets every pixel to bg at infinite depth. Each plane is its first
// pixel copied over the rest in doubling runs: every acquired framebuffer is
// cleared, so this is paid once per rank per composited image, at memmove
// speed instead of a store per byte.
func (fb *Framebuffer) Clear(bg color.RGBA) {
	n := fb.W * fb.H
	rgba, depth := fb.Color[:n*4], fb.Depth[:n]
	rgba[0], rgba[1], rgba[2], rgba[3] = bg.R, bg.G, bg.B, bg.A
	for i := 4; i < len(rgba); i *= 2 {
		copy(rgba[i:], rgba[:i])
	}
	depth[0] = float32(math.Inf(1))
	for i := 1; i < len(depth); i *= 2 {
		copy(depth[i:], depth[:i])
	}
}

// Set writes a pixel if it passes the depth test.
func (fb *Framebuffer) Set(x, y int, c color.RGBA, depth float32) {
	if x < 0 || x >= fb.W || y < 0 || y >= fb.H {
		return
	}
	i := y*fb.W + x
	if depth >= fb.Depth[i] {
		return
	}
	fb.Depth[i] = depth
	fb.Color[i*4+0] = c.R
	fb.Color[i*4+1] = c.G
	fb.Color[i*4+2] = c.B
	fb.Color[i*4+3] = c.A
}

// FillBackground colors every pixel that was never written (depth still
// infinite) without touching depth. Compositors return images whose
// untouched pixels are transparent black; the root calls this before
// serializing.
func (fb *Framebuffer) FillBackground(bg color.RGBA) {
	inf := float32(math.Inf(1))
	for i := 0; i < fb.W*fb.H; i++ {
		if fb.Depth[i] == inf {
			fb.Color[i*4+0] = bg.R
			fb.Color[i*4+1] = bg.G
			fb.Color[i*4+2] = bg.B
			fb.Color[i*4+3] = bg.A
		}
	}
}

// Pixels returns the number of pixels.
func (fb *Framebuffer) Pixels() int { return fb.W * fb.H }

// NonBackgroundPixels counts pixels whose depth was ever written; useful in
// tests and for verifying a slice actually intersected a domain.
//
//lint:ignore unreferenced TestResampleImageSlice, TestRenderMeshProducesPixels and the compositing tests count drawn pixels with it
func (fb *Framebuffer) NonBackgroundPixels() int {
	n := 0
	inf := float32(math.Inf(1))
	for _, d := range fb.Depth {
		if d < inf {
			n++
		}
	}
	return n
}
