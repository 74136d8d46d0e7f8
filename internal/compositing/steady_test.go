//go:build !race

package compositing

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gosensei/internal/mpi"
	"gosensei/internal/render"
)

// TestCompositeSteadyStateAllocatesNoImage: on a world whose ranks are
// joined by a wire — every region an envelope — the pack buffer comes back
// from SendOwned, the envelope's payload copy and the buffer it is decoded
// into come from pools, so once two rounds have filled them ten more
// composites allocate, all told, less than one packed half image. On one P,
// where a sync.Pool is one list — with more, a buffer parked in another P's
// private slot is a miss until every P holds its own; and without the race
// detector, under which sync.Pool drops a share of what it is given on
// purpose. Collection is held off from warm-up to the last read: a run that
// failed did so only when a collection fell inside the window and emptied
// the pools (NumGC moved by one and the window allocated 300 KB, where it
// reads 19 KB otherwise), so what is measured is what compositing asks
// for, not when a sync.Pool forgets.
func TestCompositeSteadyStateAllocatesNoImage(t *testing.T) {
	const w, h, warm, rounds = 256, 144, 2, 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runRanks(t, "loopback", 2, func(c *mpi.Comm) error {
		for round := 0; round < warm+rounds; round++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			if round == warm && c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			fb := render.AcquireFramebuffer(w, h)
			_, err := Composite(c, fb, 0, BinarySwap)
			fb.Release()
			if err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if grew, half := after.TotalAlloc-before.TotalAlloc, uint64(w*h/2*bytesPerPixel); grew >= half {
		t.Errorf("%d composites allocated %d bytes; one packed half image is %d", rounds, grew, half)
	} else {
		t.Logf("%d composites allocated %d bytes (a packed half image is %d)", rounds, grew, half)
	}
}
