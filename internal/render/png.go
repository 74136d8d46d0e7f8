package render

import (
	"image"
	"image/png"
	"io"
	"math"
	"sync"
	"time"

	"gosensei/internal/array"
)

// atan2 is a thin alias keeping isosurface.go free of a direct math import
// beyond what it already uses.
func atan2(y, x float64) float64 { return math.Atan2(y, x) }

// wrapNamed wraps a float64 slice as a named scalar array.
func wrapNamed(name string, vals []float64) array.Array {
	return array.WrapAOS(name, 1, vals)
}

// PNGOptions controls image serialization. The paper's PHASTA study found
// that zlib compression of the PNG — a serial step on rank 0 — dominated the
// in situ time per step (4.03 s vs 0.518 s for an 8-rank toy problem when
// compression was skipped), so the level is a first-class knob here.
type PNGOptions struct {
	// Compression selects the zlib effort; the zero value is the encoder
	// default. Use png.NoCompression to reproduce the paper's
	// "skip the compression portion" ablation.
	Compression png.CompressionLevel
	// Parallel selects the stripe-parallel encoder (filter + deflate per
	// 64-row stripe, stitched into one deterministic zlib stream). Off by
	// default: the serial image/png path is the modeled paper behavior.
	Parallel bool
	// Workers bounds the encoder parallelism when Parallel is set; 0 means
	// the process thread budget. The emitted bytes are identical at any
	// worker count.
	Workers int
}

// WritePNG serializes the framebuffer and returns the encode duration,
// which callers log separately from rendering (it is the serial rank-0
// bottleneck the paper diagnoses). The serial encoder reads the colour plane
// in place through an image.RGBA view of it, and takes its deflate state
// from a package pool: a steady stream of frames allocates neither a copy of
// the image nor a compressor per frame, and the bytes are image/png's own.
func WritePNG(w io.Writer, fb *Framebuffer, opts PNGOptions) (time.Duration, error) {
	start := time.Now()
	if opts.Parallel {
		err := writePNGParallel(w, fb, opts)
		return time.Since(start), err
	}
	enc := png.Encoder{CompressionLevel: opts.Compression, BufferPool: encoderPool{}}
	img := &image.RGBA{Pix: fb.Color[:fb.W*fb.H*4], Stride: 4 * fb.W, Rect: image.Rect(0, 0, fb.W, fb.H)}
	err := enc.Encode(w, img)
	return time.Since(start), err
}

// encoderBuffers holds image/png's per-encode state (its zlib writer and
// row buffers) between frames; sync.Pool hands each one to one encode at a
// time.
var encoderBuffers sync.Pool // *png.EncoderBuffer

// encoderPool is the png.EncoderBufferPool over encoderBuffers.
type encoderPool struct{}

func (encoderPool) Get() *png.EncoderBuffer {
	b, _ := encoderBuffers.Get().(*png.EncoderBuffer)
	return b
}

func (encoderPool) Put(b *png.EncoderBuffer) { encoderBuffers.Put(b) }
