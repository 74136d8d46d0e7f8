// Live steering: the interactive-connection loop the paper demonstrates
// with PHASTA on Mira — "SENSEI provides live, reconfigurable data analytics
// from an ongoing simulation ... visual feedback ... can be manipulated to
// interactively determine the combination that provide[s] the most
// improvement".
//
// Here a "viewer" goroutine attaches to a live.Hub, watches the Catalyst
// frames streaming out of the running jet-in-crossflow proxy, and pushes
// steering commands (retuning the synthetic jet) that the simulation drains
// and broadcasts each step. Detach and reattach at will, as FlexPath's
// dynamic connections allow.
//
// Run:
//
//	go run ./examples/live-steering
package main

import (
	"fmt"
	"log"
	"sync"

	"gosensei/internal/catalyst"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/live"
	"gosensei/internal/mpi"
	"gosensei/internal/phasta"
)

func main() {
	const (
		ranks = 4
		steps = 12
		// The viewer steers on the first frame it sees of step steerAt or
		// later, and rank 0 drains commands once, before loop step applyAt,
		// after waiting for that steer. Which step a steer lands on is then
		// fixed, not a matter of scheduling, so the frames are the same on
		// every run.
		steerAt = 3
		applyAt = 3
	)
	hub := live.NewHub()
	steered := make(chan struct{})

	// The viewer: an engineer at a workstation, here a goroutine. It
	// watches frames and, after seeing a few, retunes the jet.
	var viewer sync.WaitGroup
	viewer.Add(1)
	go func() {
		defer viewer.Done()
		sub := hub.SubscribeRef()
		defer sub.Cancel()
		sent := false
		for {
			// Next blocks for the next frame, newest wins if the viewer
			// lags, and returns nil once the hub closes — so the viewer
			// always terminates with the simulation, frames dropped or not.
			ref := sub.Next()
			if ref == nil {
				return
			}
			step := ref.Step()
			fmt.Printf("viewer: frame for step %d (%d bytes PNG)\n", step, len(ref.PNG()))
			ref.Release()
			if step >= steerAt && !sent {
				fmt.Println("viewer: steering -> jet amplitude 1.8, frequency 1.2")
				hub.SendCommand("jet-amplitude", 1.8)
				hub.SendCommand("jet-frequency", 1.2)
				close(steered)
				sent = true
			}
		}
	}()

	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		solver, err := phasta.NewSolver(c, phasta.DefaultConfig(18))
		if err != nil {
			return err
		}
		slice := catalyst.NewSliceAdaptor(c, catalyst.Options{
			ArrayName: "velocity", Assoc: grid.PointData,
			Width: 200, Height: 50,
			SliceAxis: 2, SliceCoord: solver.Cfg.Domain[2] / 2,
			Publish: func(step, w, h int, png []byte) {
				hub.Publish(live.Frame{Step: step, Width: w, Height: h, PNG: png})
			},
			OutputDir: "live-frames",
		})
		bridge := core.NewBridge(c, nil, nil)
		bridge.AddAnalysis("catalyst", slice)
		d := phasta.NewDataAdaptor(solver)
		for i := 0; i < steps; i++ {
			solver.Step()
			// Drain viewer commands on rank 0 and broadcast to all ranks so
			// the steering applies identically everywhere.
			var amp, freq []float64
			if c.Rank() == 0 && i == applyAt {
				<-steered
				for _, cmd := range hub.DrainCommands() {
					switch cmd.Name {
					case "jet-amplitude":
						amp = []float64{cmd.Value}
					case "jet-frequency":
						freq = []float64{cmd.Value}
					}
				}
			}
			flags := []int64{int64(len(amp)), int64(len(freq))}
			if err := mpi.Bcast(c, flags, 0); err != nil {
				return err
			}
			if flags[0] > 0 {
				if c.Rank() != 0 {
					amp = make([]float64, 1)
				}
				if err := mpi.Bcast(c, amp, 0); err != nil {
					return err
				}
				solver.SetJet(amp[0], solver.Cfg.JetFrequency)
			}
			if flags[1] > 0 {
				if c.Rank() != 0 {
					freq = make([]float64, 1)
				}
				if err := mpi.Bcast(c, freq, 0); err != nil {
					return err
				}
				solver.SetJet(solver.Cfg.JetAmplitude, freq[0])
			}
			d.Update()
			if _, err := bridge.Execute(d); err != nil {
				return err
			}
		}
		if err := bridge.Finalize(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("simulation done: final jet amplitude %.2f, frequency %.2f\n",
				solver.Cfg.JetAmplitude, solver.Cfg.JetFrequency)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	hub.Close() // simulation over: detach the viewer
	viewer.Wait()
	fmt.Printf("hub delivered %d frames; images also in live-frames/\n", hub.Frames())
}
