package compositing

import (
	"bytes"
	"errors"
	"image/color"
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gosensei/internal/array"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

// TestImageReleasesEveryBufferOnce holds Tail.Image to its ownership rule on
// every path: whatever fails, the count of framebuffers in use ends where it
// began — a buffer not released leaves it high, one released twice leaves it
// low — only rank 0 ever delivers, and what it delivers is the framebuffer
// it drew on, whichever compositor ran.
func TestImageReleasesEveryBufferOnce(t *testing.T) {
	errDraw, errDeliver := errors.New("draw failed"), errors.New("deliver failed")
	errTimeout := errors.New("mpi's receive timeout, which has no sentinel")
	errShort := errors.New("a region of the wrong size, which has no sentinel")
	for _, tc := range []struct {
		name  string
		ranks int
		alg   Algorithm
		// absent ranks return without joining the composite; a short rank
		// sends rank 0 half of the swap region it waits for instead.
		absent   func(rank int) bool
		short    func(rank int) bool
		draw     error
		deliver  error
		want     func(rank int) error // nil func: no rank fails
		delivers int
	}{
		{name: "binary swap P=1", ranks: 1, alg: BinarySwap, delivers: 1},
		{name: "direct send P=1", ranks: 1, alg: DirectSend, delivers: 1},
		{name: "binary swap P=2", ranks: 2, alg: BinarySwap, delivers: 1},
		{name: "binary swap P=3", ranks: 3, alg: BinarySwap, delivers: 1},
		{name: "direct send P=3", ranks: 3, alg: DirectSend, delivers: 1},
		{name: "draw fails", ranks: 2, alg: BinarySwap, draw: errDraw,
			want: func(int) error { return errDraw }},
		{name: "deliver fails", ranks: 2, alg: BinarySwap, deliver: errDeliver, delivers: 1,
			want: func(rank int) error {
				if rank == 0 {
					return errDeliver
				}
				return nil
			}},
		{name: "deliver fails on the local buffer", ranks: 1, alg: DirectSend, deliver: errDeliver, delivers: 1,
			want: func(int) error { return errDeliver }},
		{name: "composite fails", ranks: 2, alg: BinarySwap,
			absent: func(rank int) bool { return rank == 1 },
			want: func(rank int) error {
				if rank == 0 {
					return errTimeout
				}
				return nil
			}},
		{name: "peer sends a truncated region", ranks: 2, alg: BinarySwap,
			short: func(rank int) bool { return rank == 1 },
			want: func(rank int) error {
				if rank == 0 {
					return errShort
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := render.FramebuffersInUse()
			var delivers atomic.Int32
			errs := make([]error, tc.ranks)
			err := mpi.Run(tc.ranks, func(c *mpi.Comm) error {
				if tc.absent != nil && tc.absent(c.Rank()) {
					return nil
				}
				if tc.short != nil && tc.short(c.Rank()) {
					mpi.SendOwned(c, 0, tagSwap, make([]byte, 16*8/2*bytesPerPixel/2))
					return nil
				}
				tail := Tail{Comm: c, Algorithm: tc.alg}
				var drawn *render.Framebuffer
				errs[c.Rank()] = tail.Image(3, 16, 8,
					func(fb *render.Framebuffer) error {
						drawn = fb
						fb.Set(c.Rank(), 0, color.RGBA{R: 200, A: 255}, 1)
						return tc.draw
					},
					func(final *render.Framebuffer) error {
						delivers.Add(1)
						if c.Rank() != 0 {
							t.Errorf("rank %d delivered", c.Rank())
						}
						if final != drawn {
							t.Error("final is not the framebuffer rank 0 drew on")
						}
						if got := final.NonBackgroundPixels(); got != tc.ranks {
							t.Errorf("final has %d drawn pixels, want one per rank (%d)", got, tc.ranks)
						}
						return tc.deliver
					})
				return nil
			}, mpi.WithRecvTimeout(200*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			for rank, got := range errs {
				var want error
				if tc.want != nil {
					want = tc.want(rank)
				}
				if want == errTimeout && got != nil && strings.Contains(got.Error(), "recv timeout") {
					continue
				}
				if want == errShort && got != nil && strings.Contains(got.Error(), "compositing: swap stage 1: region of 256 bytes, want 512") {
					continue
				}
				if !errors.Is(got, want) {
					t.Errorf("rank %d: err=%v, want %v", rank, got, want)
				}
			}
			if got := int(delivers.Load()); got != tc.delivers {
				t.Errorf("%d deliveries, want %d", got, tc.delivers)
			}
			if after := render.FramebuffersInUse(); after != before {
				t.Errorf("framebuffers in use: %d before, %d after", before, after)
			}
		})
	}
}

// TestImageTimesItsPhases: the phases are logged under exactly the names the
// adaptor gave, at the step it gave, and a phase with no name is not logged.
func TestImageTimesItsPhases(t *testing.T) {
	reg := metrics.NewRegistry(0)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		tail := Tail{Comm: c, Registry: reg, CompositeTimer: "x::composite", PNGTimer: "x::png"}
		return tail.Image(7, 8, 8,
			func(*render.Framebuffer) error { return nil },
			func(final *render.Framebuffer) error { return tail.Deliver(final, 7, nil) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := reg.TimerNames(); len(names) != 2 {
		t.Errorf("timers %v, want x::composite and x::png", names)
	}
	for _, name := range []string{"x::composite", "x::png"} {
		if evs := reg.EventsNamed(name); len(evs) != 1 || evs[0].Step != 7 {
			t.Errorf("events %s = %v, want one at step 7", name, evs)
		}
	}
}

func testImage(w, h int) *render.Framebuffer {
	fb := render.AcquireFramebuffer(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Incompressible enough that the PNG is about the size of the
			// pixels: the buffering test below compares allocation sizes.
			v := uint32(y*w+x) * 2654435761
			fb.Set(x, y, color.RGBA{R: uint8(v), G: uint8(v >> 8), B: uint8(v >> 16), A: 255}, 0)
		}
	}
	return fb
}

// TestDeliverHubAndDir: viewers and the file get the same encode, once.
func TestDeliverHubAndDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	fb := testImage(32, 16)
	defer fb.Release()
	var published []byte
	tail := Tail{Prefix: "test", Dir: dir, Publish: func(step, w, h int, png []byte) {
		if step != 5 || w != 32 || h != 16 || published != nil {
			t.Errorf("publish(step %d, %dx%d), already published: %v", step, w, h, published != nil)
		}
		published = append([]byte(nil), png...)
	}}
	if err := tail.Deliver(fb, 5, func() string { return "frame.png" }); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, "frame.png"))
	if err != nil {
		t.Fatal(err)
	}
	if len(published) == 0 || !bytes.Equal(file, published) {
		t.Fatalf("file has %d bytes, viewers got %d: must be the same bytes", len(file), len(published))
	}
	if _, err := png.Decode(bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
}

// TestDeliverDiscardBuffersNothing: with no viewer and no directory the
// encode streams into io.Discard, so it allocates less than a delivery to
// viewers by at least the size of the PNG that one has to hold; and nobody
// asks for a file name.
func TestDeliverDiscardBuffersNothing(t *testing.T) {
	fb := testImage(1024, 512)
	defer fb.Release()
	allocated := func(tail Tail) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tail.Deliver(fb, 1, func() string {
			t.Error("file name requested with no directory")
			return ""
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	opts := render.PNGOptions{Compression: png.NoCompression}
	pngSize := 0
	held := allocated(Tail{PNG: opts, Publish: func(_, _, _ int, png []byte) { pngSize = len(png) }})
	discarded := allocated(Tail{PNG: opts})
	if pngSize < 1024*512*3 { // an opaque image is stored as RGB
		t.Fatalf("PNG of %d bytes: the test image compressed after all", pngSize)
	}
	if discarded+uint64(pngSize) > held {
		t.Errorf("discarding allocated %d bytes, publishing %d: the difference is less than the PNG (%d)", discarded, held, pngSize)
	}
}

// TestDeliverReportsTheWriteError: /dev/full takes the open and the close and
// fails every write, so the error that comes back is the encode's — the cause
// — and it carries the adaptor's prefix.
func TestDeliverReportsTheWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	fb := testImage(32, 16)
	defer fb.Release()
	for name, tail := range map[string]Tail{
		"file":         {Prefix: "test", Dir: "/dev"},
		"hub and file": {Prefix: "test", Dir: "/dev", Publish: func(int, int, int, []byte) {}},
	} {
		err := tail.Deliver(fb, 1, func() string { return "full" })
		if !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s: err=%v, want ENOSPC", name, err)
		} else if got := err.Error(); got[:6] != "test: " {
			t.Errorf("%s: error %q lacks the adaptor's prefix", name, got)
		}
	}
	// A directory that cannot be made is reported the same way, before any
	// encode.
	tail := Tail{Prefix: "test", Dir: "/dev/full/sub"}
	if err := tail.Deliver(fb, 1, func() string { return "x.png" }); err == nil {
		t.Error("delivery under a non-directory succeeded")
	}
}

func TestAgreeRange(t *testing.T) {
	// Two ranks, each with half the domain and its own values; component 1
	// of the vector is the one asked for, then the magnitude.
	vectors := [][]float64{
		{3, 4, 0, 1}, // rank 0: (3,4) and (0,1): |v| = 5, 1
		{6, 8, 0, 2}, // rank 1: (6,8) and (0,2): |v| = 10, 2
	}
	local := [][6]float64{{0, 4, 0, 8, 0, 8}, {4, 8, 0, 8, -1, 8}}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		arr := array.WrapAOS("v", 2, vectors[c.Rank()])
		lo, hi := arr.Range(1)
		lo, hi, bounds, err := AgreeRange(c, lo, hi, local[c.Rank()])
		if err != nil {
			return err
		}
		if lo != 1 || hi != 8 || bounds != [6]float64{0, 8, 0, 8, -1, 8} {
			t.Errorf("rank %d: component 1 range [%v, %v] bounds %v", c.Rank(), lo, hi, bounds)
		}
		lo, hi = arr.Range(-1)
		lo, hi, _, err = AgreeRange(c, lo, hi, local[c.Rank()])
		if err != nil {
			return err
		}
		if lo != 1 || hi != 10 {
			t.Errorf("rank %d: magnitude range [%v, %v], want [1, 10]", c.Rank(), lo, hi)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without a communicator the local view is the global one.
	lo, hi := array.WrapAOS("v", 2, vectors[0]).Range(-1)
	lo, hi, bounds, err := AgreeRange(nil, lo, hi, local[0])
	if err != nil || lo != 1 || hi != 5 || bounds != local[0] {
		t.Errorf("serial: [%v, %v] %v (%v)", lo, hi, bounds, err)
	}
}
