package live_test

import (
	"bytes"
	"image/png"
	"testing"
	"time"

	_ "gosensei/internal/catalyst" // registers the configured slice adaptor
	"gosensei/internal/core"
	. "gosensei/internal/live"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/phasta"
)

func TestHubLatestAndSubscribe(t *testing.T) {
	h := NewHub()
	if h.LatestRef() != nil {
		t.Fatal("empty hub has a frame")
	}
	sub := h.SubscribeRef()
	if h.Viewers() != 1 {
		t.Fatalf("viewers=%d", h.Viewers())
	}
	h.Publish(Frame{Step: 1, PNG: []byte{1, 2}})
	ref := sub.Next()
	if ref.Step() != 1 || len(ref.PNG()) != 2 {
		t.Fatalf("frame step=%d png=%v", ref.Step(), ref.PNG())
	}
	ref.Release()
	// Published frames are copies: mutating the source must not matter.
	src := []byte{9}
	h.Publish(Frame{Step: 2, PNG: src})
	src[0] = 0
	got := h.LatestRef()
	if got == nil || got.PNG()[0] != 9 {
		t.Fatal("frame not copied")
	}
	got.Release()
	sub.Cancel()
	sub.Cancel() // idempotent
	if h.Viewers() != 0 {
		t.Fatalf("viewers=%d after cancel", h.Viewers())
	}
	if h.Frames() != 2 {
		t.Fatalf("frames=%d", h.Frames())
	}
}

func TestHubLaggingViewerSkipsToNewest(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.SubscribeRef()
	defer sub.Cancel()
	// Publish a burst without draining: no deadlock, newest retained as
	// Latest, and the lagging viewer converges on the newest frame (it may
	// skip intermediate ones — that is the point).
	for i := 0; i < 5; i++ {
		h.Publish(Frame{Step: i, PNG: []byte{byte(i)}})
	}
	if f := h.LatestRef(); f == nil || f.Step() != 4 {
		t.Fatalf("latest=%v", f)
	} else {
		f.Release()
	}
	seen := -1
	deadline := time.Now().Add(5 * time.Second)
	for seen != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("viewer never saw the newest frame; last step %d", seen)
		}
		if ref := sub.Take(); ref != nil {
			if ref.Step() < seen {
				t.Fatalf("delivery went backwards: %d after %d", ref.Step(), seen)
			}
			seen = ref.Step()
			ref.Release()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

func TestLateJoinerSeededFromSnapshot(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.Publish(Frame{Step: 7, Width: 2, Height: 1, PNG: []byte{1, 2, 3}})
	// Attach after the publish: the snapshot cache must hand the current
	// frame over immediately, not at the next publish.
	sub := h.SubscribeRef()
	defer sub.Cancel()
	ref := sub.Next()
	if ref == nil || ref.Step() != 7 || len(ref.PNG()) != 3 {
		t.Fatalf("late joiner got %+v", ref)
	}
	ref.Release()
}

func TestCommandsRoundTrip(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SendCommand("jet-amplitude", 1.6)
	h.SendCommand("jet-frequency", 1.5)
	cmds := h.DrainCommands()
	if len(cmds) != 2 || cmds[0].Name != "jet-amplitude" || cmds[1].Value != 1.5 {
		t.Fatalf("cmds=%+v", cmds)
	}
	if len(h.DrainCommands()) != 0 {
		t.Fatal("drain not clearing")
	}
}

func TestCommandsCoalesceLastWriterWins(t *testing.T) {
	h := NewHub()
	defer h.Close()
	// A steer flood on one name coalesces to the newest value; a second
	// name is preserved independently, and drain order is update order.
	for i := 0; i < 1000; i++ {
		h.SendCommand("jet-amplitude", float64(i))
	}
	h.SendCommand("jet-frequency", 2.5)
	h.SendCommand("jet-amplitude", 42)
	if n := h.PendingCommands(); n != 2 {
		t.Fatalf("pending=%d, want 2 (coalesced)", n)
	}
	cmds := h.DrainCommands()
	if len(cmds) != 2 {
		t.Fatalf("cmds=%+v", cmds)
	}
	// jet-amplitude was refreshed last, so it drains last.
	if cmds[0].Name != "jet-frequency" || cmds[0].Value != 2.5 {
		t.Fatalf("cmds[0]=%+v", cmds[0])
	}
	if cmds[1].Name != "jet-amplitude" || cmds[1].Value != 42 {
		t.Fatalf("cmds[1]=%+v", cmds[1])
	}
	if cmds[0].Epoch >= cmds[1].Epoch {
		t.Fatalf("epochs not ascending: %d then %d", cmds[0].Epoch, cmds[1].Epoch)
	}
}

func TestLiveFramesFromCatalyst(t *testing.T) {
	hub := NewHub()
	sub := hub.SubscribeRef()
	defer sub.Cancel()
	cfg := oscillator.Config{
		GlobalCells: [3]int{8, 8, 8}, DT: 0.1, Steps: 2,
		Oscillators: oscillator.DefaultDeck(8),
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		sim, err := oscillator.NewSim(c, cfg, nil)
		if err != nil {
			return err
		}
		// A configured element reaches the hub through the bridge's frame
		// sink, the way a deck's live line wires it.
		b := core.NewBridge(c, nil, nil)
		b.Publish = func(step, w, h int, png []byte) {
			hub.Publish(Frame{Step: step, Width: w, Height: h, PNG: png})
		}
		err = core.ConfigureFromXML(b, []byte(`<sensei><analysis type="catalyst" array="data"
			image-width="32" image-height="32" slice-axis="z" slice-coord="4"/></sensei>`))
		if err != nil {
			return err
		}
		d := oscillator.NewDataAdaptor(sim)
		for i := 0; i < cfg.Steps; i++ {
			if err := sim.Step(); err != nil {
				return err
			}
			d.Update()
			if _, err := b.Execute(d); err != nil {
				return err
			}
		}
		return b.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if hub.Frames() != 2 {
		t.Fatalf("frames=%d", hub.Frames())
	}
	ref := sub.Next()
	defer ref.Release()
	img, err := png.Decode(bytes.NewReader(ref.PNG()))
	if err != nil {
		t.Fatalf("live frame is not a PNG: %v", err)
	}
	if img.Bounds().Dx() != 32 {
		t.Fatalf("bounds=%v", img.Bounds())
	}
}

func TestSteeringLoopThroughHub(t *testing.T) {
	// The PHASTA live-problem-redefinition loop: a viewer watches frames
	// and pushes a command; the simulation applies it on the next step.
	hub := NewHub()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		solver, err := phasta.NewSolver(c, phasta.DefaultConfig(10))
		if err != nil {
			return err
		}
		for step := 0; step < 4; step++ {
			solver.Step()
			// Rank 0 drains viewer commands and broadcasts them.
			var values []float64
			if c.Rank() == 0 {
				for _, cmd := range hub.DrainCommands() {
					values = append(values, cmd.Value)
				}
			}
			count := []int64{int64(len(values))}
			if err := mpi.Bcast(c, count, 0); err != nil {
				return err
			}
			if count[0] > 0 {
				if c.Rank() != 0 {
					values = make([]float64, count[0])
				}
				if err := mpi.Bcast(c, values, 0); err != nil {
					return err
				}
				// Names are fixed-vocabulary; broadcast as indexes in real
				// code. For the test only amplitude commands are sent.
				solver.SetJet(values[0], solver.Cfg.JetFrequency)
			}
			if step == 1 && c.Rank() == 0 {
				hub.SendCommand("jet-amplitude", 0) // kill the jet
			}
		}
		if solver.Cfg.JetAmplitude != 0 {
			t.Errorf("rank %d: steering command not applied: amplitude=%v", c.Rank(), solver.Cfg.JetAmplitude)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
