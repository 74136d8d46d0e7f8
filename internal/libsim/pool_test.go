package libsim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/render"
)

// TestVolumeReusesFramebuffers: the volume path turns its composited alpha
// image into a framebuffer taken from the render pool and puts it back, so
// the second fired step finds it there instead of allocating W×H×8 bytes (and
// draining the pool catalyst and the other plots refill).
func TestVolumeReusesFramebuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	session, err := volumeSession()
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that image/png's ~1 MiB of deflate state per encode is
	// small next to a framebuffer (12 MiB).
	session.Image = ImageConfig{Width: 1536, Height: 1024}
	// What is under test is who releases, not how long a sync.Pool remembers:
	// a step allocates three framebuffers' worth of alpha image before it
	// asks the pool, enough for the two collections that empty one, and a
	// buffer put back on one P is not found from another.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pixels := uint64(session.Image.Width * session.Image.Height)
	cfg := oscillator.Config{
		GlobalCells: [3]int{12, 12, 12},
		DT:          0.1,
		Steps:       2,
		Oscillators: oscillator.DefaultDeck(12),
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		s, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		a := NewAdaptor(c, session, Options{})
		d := oscillator.NewDataAdaptor(s)
		inUse := render.FramebuffersInUse()
		var second uint64
		for i := 0; i < cfg.Steps; i++ {
			if err := s.Step(); err != nil {
				return err
			}
			d.Update()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := a.Execute(d); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			second = after.TotalAlloc - before.TotalAlloc
		}
		// Every step allocates the alpha image it marches into (16 B/px);
		// the serial PNG path encodes the framebuffer in place, and a fresh
		// framebuffer on top would be another 8 B/px.
		t.Logf("second step allocated %d bytes (%d per pixel)", second, second/pixels)
		if limit := pixels * (16 + 4); second > limit {
			t.Errorf("second step allocated %d bytes, want under %d: a fresh framebuffer is %d", second, limit, pixels*8)
		}
		if got := render.FramebuffersInUse(); got != inUse {
			t.Errorf("framebuffers in use: %d before, %d after", inUse, got)
		}
		if a.ImagesWritten() != cfg.Steps {
			t.Errorf("%d images written, want %d", a.ImagesWritten(), cfg.Steps)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ImagesWritten reports how many images rank 0 produced.
func (a *Adaptor) ImagesWritten() int { return a.imagesOut }
