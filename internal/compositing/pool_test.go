package compositing

import (
	"bytes"
	"fmt"
	"image/color"
	"testing"

	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

// TestCompositeBufferReuseNoAliasing runs two back-to-back composites per
// algorithm and checks that (a) the second round — which services its pack
// and framebuffer needs from the sync.Pools populated by the first — still
// produces a correct image, and (b) an image returned by the first round and
// deliberately NOT released stays byte-stable while the second round runs.
// This is the aliasing hazard pooling introduces: a recycled buffer must
// never be handed out while a previous consumer still holds it.
func TestCompositeBufferReuseNoAliasing(t *testing.T) {
	const w, h, n = 24, 6, 4
	for _, alg := range []Algorithm{BinarySwap, DirectSend} {
		t.Run(alg.String(), func(t *testing.T) {
			err := mpi.Run(n, func(c *mpi.Comm) error {
				// Round 1: the stripe pattern from compositing_test.go.
				fb := rankImage(w, h, c.Rank(), n, 1)
				first, err := Composite(c, fb, 0, alg)
				if err != nil {
					return err
				}
				var firstColor []byte
				if c.Rank() == 0 {
					checkStripes(t, first, w, h, n)
					firstColor = append([]byte(nil), first.Color...)
				}
				// Round 2: full-frame paint where the highest rank is nearest,
				// drawing its buffers from the pools round 1 populated.
				fb2 := render.AcquireFramebuffer(w, h)
				col := color.RGBA{R: uint8(100 + c.Rank()), A: 255}
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						fb2.Set(x, y, col, float32(n-c.Rank()))
					}
				}
				second, err := Composite(c, fb2, 0, alg)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							if got := red(second, x, y); got != uint8(100+n-1) {
								return fmt.Errorf("round 2 pixel (%d,%d)=%d want %d", x, y, got, 100+n-1)
							}
						}
					}
					// The unreleased round-1 image must be untouched.
					if !bytes.Equal(first.Color, firstColor) {
						return fmt.Errorf("round 1 image mutated by round 2 (pool aliasing)")
					}
				}
				fb2.Release()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
