package compositing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"image/color"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gosensei/internal/mpi"
	"gosensei/internal/render"
	"gosensei/internal/world"
)

// rankImage builds a W x H framebuffer where rank r paints column block r
// (of nRanks blocks) with color value r+1 at depth depending on mode.
func rankImage(w, h, rank, nRanks int, depth float32) *render.Framebuffer {
	fb := render.NewFramebuffer(w, h)
	per := w / nRanks
	lo := rank * per
	hi := lo + per
	if rank == nRanks-1 {
		hi = w
	}
	c := color.RGBA{R: uint8(rank + 1), A: 255}
	for y := 0; y < h; y++ {
		for x := lo; x < hi; x++ {
			fb.Set(x, y, c, depth)
		}
	}
	return fb
}

// red returns the red channel of fb's pixel (x, y).
func red(fb *render.Framebuffer, x, y int) uint8 { return fb.Color[(y*fb.W+x)*4] }

func checkStripes(t *testing.T, final *render.Framebuffer, w, h, nRanks int) {
	t.Helper()
	per := w / nRanks
	for x := 0; x < w; x++ {
		rank := x / per
		if rank >= nRanks {
			rank = nRanks - 1
		}
		got := red(final, x, h/2)
		if got != uint8(rank+1) {
			t.Fatalf("pixel x=%d: got %d want %d", x, got, rank+1)
		}
	}
}

func TestCompositeDisjointRegions(t *testing.T) {
	for _, alg := range []Algorithm{BinarySwap, DirectSend} {
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			t.Run(fmt.Sprintf("%v/p%d", alg, n), func(t *testing.T) {
				w, h := 24, 6
				err := mpi.Run(n, func(c *mpi.Comm) error {
					fb := rankImage(w, h, c.Rank(), n, 1)
					final, err := Composite(c, fb, 0, alg)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						if final == nil {
							t.Error("root got nil image")
							return nil
						}
						checkStripes(t, final, w, h, n)
					} else if final != nil {
						t.Errorf("rank %d got non-nil image", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestCompositeDepthResolution(t *testing.T) {
	// All ranks paint the full frame; the rank with the smallest depth wins.
	for _, alg := range []Algorithm{BinarySwap, DirectSend} {
		n := 4
		err := mpi.Run(n, func(c *mpi.Comm) error {
			fb := render.NewFramebuffer(8, 8)
			// Rank r paints at depth n - r: the highest rank is nearest.
			col := color.RGBA{R: uint8(c.Rank() + 1), A: 255}
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					fb.Set(x, y, col, float32(n-c.Rank()))
				}
			}
			final, err := Composite(c, fb, 0, alg)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						if red(final, x, y) != uint8(n) {
							t.Errorf("%v: pixel (%d,%d)=%d want %d", alg, x, y, red(final, x, y), n)
							return nil
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompositeNonzeroRoot(t *testing.T) {
	for _, alg := range []Algorithm{BinarySwap, DirectSend} {
		n := 6
		root := 3
		err := mpi.Run(n, func(c *mpi.Comm) error {
			fb := rankImage(12, 4, c.Rank(), n, 1)
			final, err := Composite(c, fb, root, alg)
			if err != nil {
				return err
			}
			if (c.Rank() == root) != (final != nil) {
				t.Errorf("%v: rank %d final=%v", alg, c.Rank(), final != nil)
			}
			if c.Rank() == root {
				checkStripes(t, final, 12, 4, n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompositeBackgroundStaysUnwritten(t *testing.T) {
	n := 3
	err := mpi.Run(n, func(c *mpi.Comm) error {
		fb := render.NewFramebuffer(8, 2)
		// Only rank 1 writes one pixel.
		if c.Rank() == 1 {
			fb.Set(5, 1, color.RGBA{R: 77, A: 255}, 2)
		}
		final, err := Composite(c, fb, 0, BinarySwap)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if red(final, 5, 1) != 77 {
				t.Errorf("written pixel lost: red %d", red(final, 5, 1))
			}
			if final.NonBackgroundPixels() != 1 {
				t.Errorf("background corrupted: %d pixels", final.NonBackgroundPixels())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	if BinarySwap.String() != "binary-swap" || DirectSend.String() != "direct-send" {
		t.Fatal("names wrong")
	}
}

func TestOverCompositeOrdered(t *testing.T) {
	// Three slabs along z: front (opaque red), middle (half green), back
	// (opaque blue). The composite must be pure red regardless of which
	// rank holds which slab.
	for _, perm := range [][3]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		perm := perm
		err := mpi.Run(3, func(c *mpi.Comm) error {
			// Rank r holds slab perm[r]; slab index is the order key.
			slab := perm[c.Rank()]
			img := render.NewAlphaImage(2, 2)
			for i := 0; i < 4; i++ {
				switch slab {
				case 0:
					img.Pix[i*4+0], img.Pix[i*4+3] = 1, 1
				case 1:
					img.Pix[i*4+1], img.Pix[i*4+3] = 0.5, 0.5
				case 2:
					img.Pix[i*4+2], img.Pix[i*4+3] = 1, 1
				}
			}
			final, err := OverComposite(c, img, slab, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if final == nil {
					t.Error("root got nil")
					return nil
				}
				if final.Pix[0] != 1 || final.Pix[1] != 0 || final.Pix[2] != 0 || final.Pix[3] != 1 {
					t.Errorf("perm %v: composite %v, want opaque red", perm, final.Pix[:4])
				}
			} else if final != nil {
				t.Errorf("rank %d got an image", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestOverCompositeSemiTransparentStack(t *testing.T) {
	// Four half-opaque white slabs: accumulated alpha is 1 - 0.5^4.
	for _, n := range []int{1, 2, 4, 5} {
		n := n
		err := mpi.Run(n, func(c *mpi.Comm) error {
			img := render.NewAlphaImage(1, 1)
			img.Pix[0], img.Pix[1], img.Pix[2], img.Pix[3] = 0.5, 0.5, 0.5, 0.5
			final, err := OverComposite(c, img, c.Rank(), 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				want := 1 - math.Pow(0.5, float64(n))
				if got := float64(final.Pix[3]); math.Abs(got-want) > 1e-6 {
					t.Errorf("n=%d: alpha %v want %v", n, got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestOverCompositeNonzeroRoot(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		img := render.NewAlphaImage(1, 1)
		img.Pix[3] = 0.25
		final, err := OverComposite(c, img, 10-c.Rank(), 2)
		if err != nil {
			return err
		}
		if (c.Rank() == 2) != (final != nil) {
			t.Errorf("rank %d final=%v", c.Rank(), final != nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// digestDepths is what the digest framebuffers draw their depths from: a set
// small enough that ranks tie on most pixels, with the values a depth test
// can get wrong — both zeros, a denormal, +Inf (background) and NaN, which
// loses every comparison and so makes the result depend on the merge order.
var digestDepths = []float32{
	float32(math.Inf(1)), 0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
	0.5, 1, 1, 2, float32(math.NaN()),
}

// digestImage is rank's seeded framebuffer in a p-rank composite.
func digestImage(w, h, p, rank int) *render.Framebuffer {
	rng := rand.New(rand.NewSource(int64((p*16+rank)*4096 + w)))
	fb := render.AcquireFramebuffer(w, h)
	for i := range fb.Depth {
		fb.Depth[i] = digestDepths[rng.Intn(len(digestDepths))]
		rng.Read(fb.Color[i*4 : i*4+4])
	}
	return fb
}

// imageDigest is the SHA-256 of Color‖Depth, depths as their IEEE-754 bits.
func imageDigest(fb *render.Framebuffer) string {
	h := sha256.New()
	h.Write(fb.Color)
	var b [4]byte
	for _, d := range fb.Depth {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

var loopbackWorlds atomic.Uint64

// runRanks runs fn on n ranks: goroutine ranks sharing mailboxes ("proc"),
// or a loopback world, where every message is an envelope through the
// fabric session and the pooled receive path. One rank exchanges nothing and
// needs no world.
func runRanks(t *testing.T, transport string, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	if transport == "proc" || n == 1 {
		if err := mpi.Run(n, fn); err != nil {
			t.Fatal(err)
		}
		return
	}
	cfg := world.Config{
		Network: transport, ID: uint64(os.Getpid())<<20 | loopbackWorlds.Add(1), Epoch: 1,
		JoinTimeout: 20 * time.Second, RecvTimeout: 20 * time.Second,
	}
	for rank, err := range world.Launch(n, cfg, fn) {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestCompositeDigests pins the root's image, bit for bit, for both
// algorithms at every rank count up to 9 with the root at either end. The
// table was recorded before the region message changed from five float32 per
// pixel to depth bits plus colour bytes; it holds on both transports.
func TestCompositeDigests(t *testing.T) {
	for _, transport := range []string{"proc", "loopback"} {
		for _, alg := range []Algorithm{BinarySwap, DirectSend} {
			for p := 1; p <= 9; p++ {
				for _, root := range []int{0, p - 1}[:min(p, 2)] {
					for _, size := range [][2]int{{37, 23}, {64, 64}} {
						w, h := size[0], size[1]
						key := fmt.Sprintf("%v/p%d/root%d/%dx%d", alg, p, root, w, h)
						var got string
						runRanks(t, transport, p, func(c *mpi.Comm) error {
							fb := digestImage(w, h, p, c.Rank())
							final, err := Composite(c, fb, root, alg)
							if final != nil {
								got = imageDigest(final)
							}
							fb.Release()
							return err
						})
						if want := compositeDigests[key]; got != want {
							t.Errorf("%s on %s: digest %s, want %s", key, transport, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCompositeRefusesShortRegions: on every path a region arrives by —
// fold, swap stage, stripe gather, tree, and the hop to a root that was
// folded away — a peer that sends fewer bytes than the region holds gets the
// receiver an error naming the step and both sizes, not an index out of
// range, and no framebuffer stays out of the pool.
func TestCompositeRefusesShortRegions(t *testing.T) {
	const w, h = 16, 8
	const total, short = w * h, 24
	for _, tc := range []struct {
		name      string
		ranks     int
		alg       Algorithm
		root      int
		bad       int // the rank that misbehaves
		misbehave func(c *mpi.Comm) error
		victim    int
		want      string
	}{
		{name: "fold", ranks: 3, alg: BinarySwap, bad: 2, victim: 0,
			misbehave: func(c *mpi.Comm) error { mpi.SendOwned(c, 0, tagSwap, make([]byte, short)); return nil },
			want:      "compositing: fold: region of 24 bytes, want 1024"},
		{name: "swap", ranks: 2, alg: BinarySwap, bad: 1, victim: 0,
			misbehave: func(c *mpi.Comm) error { mpi.SendOwned(c, 0, tagSwap, make([]byte, short)); return nil },
			want:      "compositing: swap stage 1: region of 24 bytes, want 512"},
		{name: "gather", ranks: 2, alg: BinarySwap, bad: 1, victim: 0,
			misbehave: func(c *mpi.Comm) error {
				// An honest swap stage, then a short stripe.
				if _, err := mpi.SendRecvOwned(c, 0, tagSwap, make([]byte, total/2*bytesPerPixel), 0, tagSwap); err != nil {
					return err
				}
				mpi.SendOwned(c, 0, tagGather, make([]byte, short))
				return nil
			},
			want: "compositing: gather: region of 24 bytes, want 512"},
		{name: "tree", ranks: 2, alg: DirectSend, bad: 1, victim: 0,
			misbehave: func(c *mpi.Comm) error { mpi.SendOwned(c, 0, tagTree, make([]byte, short)); return nil },
			want:      "compositing: tree: region of 24 bytes, want 1024"},
		{name: "folded root", ranks: 3, alg: BinarySwap, root: 2, bad: 0, victim: 2,
			misbehave: func(c *mpi.Comm) error { mpi.SendOwned(c, 2, tagGather, make([]byte, short)); return nil },
			want:      "compositing: folded root: region of 24 bytes, want 1024"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := render.FramebuffersInUse()
			errs := make([]error, tc.ranks)
			err := mpi.Run(tc.ranks, func(c *mpi.Comm) error {
				if c.Rank() == tc.bad {
					return tc.misbehave(c)
				}
				fb := render.AcquireFramebuffer(w, h)
				_, err := Composite(c, fb, tc.root, tc.alg)
				fb.Release()
				// Ranks left waiting for the victim time out; only the
				// victim's error is the subject.
				errs[c.Rank()] = err
				return nil
			}, mpi.WithRecvTimeout(200*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			if got := errs[tc.victim]; got == nil || got.Error() != tc.want {
				t.Errorf("rank %d: err = %v, want %s", tc.victim, got, tc.want)
			}
			if after := render.FramebuffersInUse(); after != before {
				t.Errorf("framebuffers in use: %d before, %d after", before, after)
			}
		})
	}
}
