package compositing

import (
	"bytes"
	"fmt"
	"image/color"
	"io"
	"os"
	"path/filepath"

	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

// AgreeRange turns one rank's view of a scalar into what every rank must
// share before drawing: the global range from the rank's [lo, hi] (what
// array.Range reports of its blocks) and the union of the ranks' bounding
// boxes, in one fused min/max round. A nil communicator is a serial run:
// the local values are the global ones.
func AgreeRange(c *mpi.Comm, lo, hi float64, local [6]float64) (float64, float64, [6]float64, error) {
	mins := []float64{lo, local[0], local[2], local[4]}
	maxs := []float64{hi, local[1], local[3], local[5]}
	if c != nil {
		if err := mpi.AllreduceMinMax(c, mins, maxs); err != nil {
			return 0, 0, [6]float64{}, err
		}
	}
	return mins[0], maxs[0], [6]float64{mins[1], maxs[1], mins[2], maxs[2], mins[3], maxs[3]}, nil
}

// Tail is the part of an image pipeline every infrastructure shares, with
// what the paper says differs between them as its fields. Catalyst, Libsim,
// the Cinema writer and the post hoc renderer each decide what to draw and
// when; acquiring the framebuffer, timing the draw, compositing to rank 0,
// encoding and delivering the PNG, and returning every buffer to the pool
// is the same task for all of them and lives here once.
//
// A Tail is a plain value an adaptor fills from its options, per step if it
// likes: it holds no state of its own.
type Tail struct {
	Comm *mpi.Comm
	// Registry records the phases named below; nil leaves them all untimed.
	Registry  *metrics.Registry
	Algorithm Algorithm
	// RenderTimer, CompositeTimer and PNGTimer are the adaptor's own event
	// names ("catalyst::render"); "" leaves that phase untimed. They are
	// whole strings, not a prefix, so that no name is built per step.
	RenderTimer, CompositeTimer, PNGTimer string

	// Prefix starts every delivery error ("catalyst").
	Prefix string
	// Background fills the pixels nothing was drawn on.
	Background color.RGBA
	PNG        render.PNGOptions
	// Dir receives the image file; "" writes none.
	Dir string
	// Publish, when set, receives the encoded image for live viewers; the
	// bytes are only valid during the call.
	Publish func(step, w, h int, png []byte)
}

func (t *Tail) time(name string, step int, f func()) {
	if t.Registry == nil || name == "" {
		f()
		return
	}
	t.Registry.Time(name, step, f)
}

// Image takes one w×h image from a cleared framebuffer to rank 0: draw fills
// this rank's part, the configured compositor merges the parts, and deliver
// is called with the result on rank 0 only. Both callbacks borrow their
// framebuffer for the duration of the call.
//
// Image owns the one framebuffer it acquires and returns it to the pool
// exactly once on every path, errors included. No compositor produces a
// second one: the final image on rank 0 is that same buffer.
func (t *Tail) Image(step, w, h int, draw, deliver func(*render.Framebuffer) error) error {
	fb := render.AcquireFramebuffer(w, h)
	var (
		final *render.Framebuffer
		err   error
	)
	t.time(t.RenderTimer, step, func() { err = draw(fb) })
	if err == nil {
		t.time(t.CompositeTimer, step, func() { final, err = Composite(t.Comm, fb, 0, t.Algorithm) })
	}
	if err == nil && final != nil {
		err = deliver(final)
	}
	fb.Release()
	return err
}

// Deliver serializes a final image on rank 0: background fill, PNG encode
// under PNGTimer, then the bytes go to Publish and to Dir/name() — both,
// either or neither; with neither the encode runs into io.Discard, the
// benchmark configuration. name is only called when a file is written.
func (t *Tail) Deliver(final *render.Framebuffer, step int, name func() string) error {
	final.FillBackground(t.Background)
	var (
		w    io.Writer = io.Discard
		file *os.File
		buf  *bytes.Buffer
		err  error
	)
	if t.Dir != "" {
		if err = os.MkdirAll(t.Dir, 0o755); err == nil {
			file, err = os.Create(filepath.Join(t.Dir, name()))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", t.Prefix, err)
		}
		w = file
	}
	if t.Publish != nil {
		// Viewers and the file get the same encode.
		buf = new(bytes.Buffer)
		w = buf
	}
	t.time(t.PNGTimer, step, func() { _, err = render.WritePNG(w, final, t.PNG) })
	if err == nil && buf != nil {
		t.Publish(step, final.W, final.H, buf.Bytes())
		if file != nil {
			_, err = file.Write(buf.Bytes())
		}
	}
	if file != nil {
		// Close is where a buffered write failure finally surfaces; dropping
		// it would let a caller count an image whose bytes never landed. An
		// earlier encode or write error is the cause and wins.
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", t.Prefix, err)
	}
	return nil
}
