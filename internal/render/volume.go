package render

import (
	"fmt"
	"image/color"
	"math"

	"gosensei/internal/array"
	"gosensei/internal/colormap"
	"gosensei/internal/grid"
	"gosensei/internal/parallel"
)

// AlphaImage is a premultiplied-alpha float accumulation buffer — the
// fragment format of volume rendering, where cross-rank merging needs the
// associative *over* operator rather than a depth test. (The paper's
// compositing discussion points at large-scale volume rendering, its
// reference [32], as the demanding case.)
type AlphaImage struct {
	W, H int
	// Pix holds RGBA, premultiplied, 4 float32 per pixel.
	Pix []float32
}

// NewAlphaImage returns a fully transparent buffer.
func NewAlphaImage(w, h int) *AlphaImage {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid alpha image size %dx%d", w, h))
	}
	return &AlphaImage{W: w, H: h, Pix: make([]float32, w*h*4)}
}

// OverPixel composites back behind front in place: front = front OVER back.
func (a *AlphaImage) OverPixel(i int, back [4]float32) {
	t := 1 - a.Pix[i*4+3]
	a.Pix[i*4+0] += t * back[0]
	a.Pix[i*4+1] += t * back[1]
	a.Pix[i*4+2] += t * back[2]
	a.Pix[i*4+3] += t * back[3]
}

// Over merges a back image behind this (front) image. Both must match in
// size. The over operator is associative, which is what lets ordered
// compositing run as a reduction tree.
func (a *AlphaImage) Over(back *AlphaImage) error {
	if back.W != a.W || back.H != a.H {
		return fmt.Errorf("render: over size mismatch %dx%d vs %dx%d", back.W, back.H, a.W, a.H)
	}
	for i := 0; i < a.W*a.H; i++ {
		a.OverPixel(i, [4]float32{back.Pix[i*4], back.Pix[i*4+1], back.Pix[i*4+2], back.Pix[i*4+3]})
	}
	return nil
}

// ToFramebuffer converts the accumulation buffer to a display framebuffer
// over the given background color (given as [0,1] RGB). The framebuffer
// comes from the pool; the caller releases it.
func (a *AlphaImage) ToFramebuffer(bgR, bgG, bgB float64) *Framebuffer {
	fb := AcquireFramebuffer(a.W, a.H)
	for i := 0; i < a.W*a.H; i++ {
		alpha := float64(a.Pix[i*4+3])
		r := float64(a.Pix[i*4+0]) + (1-alpha)*bgR
		g := float64(a.Pix[i*4+1]) + (1-alpha)*bgG
		b := float64(a.Pix[i*4+2]) + (1-alpha)*bgB
		fb.Set(i%a.W, i/a.W, rgba8(r, g, b), 0)
	}
	return fb
}

func rgba8(r, g, b float64) color.RGBA {
	clamp := func(x float64) uint8 {
		if x <= 0 {
			return 0
		}
		if x >= 1 {
			return 255
		}
		return uint8(x*255 + 0.5)
	}
	return color.RGBA{R: clamp(r), G: clamp(g), B: clamp(b), A: 255}
}

// VolumeSpec describes one direct volume rendering of a cell scalar.
type VolumeSpec struct {
	ArrayName string
	// Axis is the (axis-aligned orthographic) view axis: rays travel +axis.
	Axis int
	// Lo, Hi is the global scalar range for the transfer function.
	Lo, Hi float64
	// Map colors samples; Opacity scales per-unit-length extinction of the
	// normalized scalar (0 disables a sample entirely at the range floor).
	Map *colormap.Map
	// OpacityScale is the maximum opacity per world unit of ray length.
	OpacityScale float64
	// DomainBounds fixes the pixel mapping identically across ranks.
	DomainBounds [6]float64
	// Workers bounds the intra-rank parallelism of the ray march; 0 or 1
	// runs serially. Rays are independent and each worker owns disjoint
	// image rows, so output is bit-identical at any worker count.
	Workers int
}

// RayMarchLocalSized renders this rank's brick into a w×h AlphaImage by
// marching axis-aligned rays through the local cells, accumulating
// front-to-back premultiplied color; w or h <= 0 gives one pixel per global
// cell along each image axis. Cross-rank assembly is
// compositing.OverComposite, ordered by each brick's position along the axis.
func RayMarchLocalSized(img *grid.ImageData, spec *VolumeSpec, w, h int) (*AlphaImage, int, error) {
	arr := img.Attributes(grid.CellData).Get(spec.ArrayName)
	if arr == nil {
		return nil, 0, fmt.Errorf("render: volume: mesh has no cell array %q", spec.ArrayName)
	}
	if spec.Map == nil {
		return nil, 0, fmt.Errorf("render: volume: nil colormap")
	}
	if spec.Axis < 0 || spec.Axis > 2 {
		return nil, 0, fmt.Errorf("render: volume: bad axis %d", spec.Axis)
	}
	ghost := img.Attributes(grid.CellData).Get(grid.GhostArrayName)
	// Image axes: u and v are the two non-view axes.
	u := (spec.Axis + 1) % 3
	v := (spec.Axis + 2) % 3
	b := spec.DomainBounds
	if w <= 0 || h <= 0 {
		// One pixel per global cell along each image axis.
		w = int(math.Round((b[2*u+1] - b[2*u]) / img.Spacing[u]))
		h = int(math.Round((b[2*v+1] - b[2*v]) / img.Spacing[v]))
		if w <= 0 {
			w = 1
		}
		if h <= 0 {
			h = 1
		}
	}
	out := NewAlphaImage(w, h)
	ext := img.Extent
	var cdim [3]int
	cdim[0], cdim[1], cdim[2] = ext.CellDims()
	stride := [3]int{1, cdim[0], cdim[0] * cdim[1]}
	h0 := img.Spacing[spec.Axis]
	// Order key: the brick's min coordinate along the view axis (used by
	// the caller for ordered compositing).
	orderKey := ext[2*spec.Axis]

	du := (b[2*u+1] - b[2*u]) / float64(w)
	dv := (b[2*v+1] - b[2*v]) / float64(h)
	parallel.For(spec.Workers, h, rasterStripeRows, func(yLo, yHi int) {
		var rd array.Reader
		rd.Reset(arr, ghost)
		for py := yLo; py < yHi; py++ {
			wv := b[2*v] + (float64(py)+0.5)*dv
			cv := int(math.Floor((wv - img.Origin[v]) / img.Spacing[v]))
			lv := cv - ext[2*v]
			if lv < 0 || lv >= cdim[v] {
				continue
			}
			for px := 0; px < w; px++ {
				wu := b[2*u] + (float64(px)+0.5)*du
				cu := int(math.Floor((wu - img.Origin[u]) / img.Spacing[u]))
				lu := cu - ext[2*u]
				if lu < 0 || lu >= cdim[u] {
					continue
				}
				// March the ray through the brick along the view axis.
				pi := (py*w + px)
				var acc [4]float32
				for s := 0; s < cdim[spec.Axis]; s++ {
					if acc[3] >= 0.999 {
						break // early ray termination
					}
					var li [3]int
					li[u], li[v], li[spec.Axis] = lu, lv, s
					id := li[0]*stride[0] + li[1]*stride[1] + li[2]*stride[2]
					if rd.GhostAt(id) != 0 {
						continue
					}
					val := rd.At(id)
					tn := 0.0
					if spec.Hi > spec.Lo {
						tn = (val - spec.Lo) / (spec.Hi - spec.Lo)
					}
					if tn <= 0 {
						continue
					}
					if tn > 1 {
						tn = 1
					}
					alpha := 1 - math.Exp(-spec.OpacityScale*tn*h0)
					col := spec.Map.At(tn)
					a32 := float32(alpha)
					t := 1 - acc[3]
					acc[0] += t * a32 * float32(col.R) / 255
					acc[1] += t * a32 * float32(col.G) / 255
					acc[2] += t * a32 * float32(col.B) / 255
					acc[3] += t * a32
				}
				out.Pix[pi*4+0] = acc[0]
				out.Pix[pi*4+1] = acc[1]
				out.Pix[pi*4+2] = acc[2]
				out.Pix[pi*4+3] = acc[3]
			}
		}
	})
	return out, orderKey, nil
}
