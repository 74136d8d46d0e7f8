// Command gosensei-run is the N-process launcher: the mpiexec of this
// repository. It assembles a cross-process MPI world (internal/world) and
// runs one of the built-in pipelines on it, with three interchangeable
// transports:
//
//	-transport=proc      goroutine ranks in this process (mpi.Run; no wire)
//	-transport=loopback  one process, ranks meshed over in-process pipes
//	-transport=tcp       N worker processes meshed over real sockets,
//	                     spawned by re-executing this binary
//
// Pipeline output goes to stdout from rank 0 only, so the bytes a run
// produces are comparable across transports — `gosensei-run -np 4
// -transport=tcp` must be bit-identical to `-transport=proc`, which is the
// contract the world-smoke suite enforces. Diagnostics, fault traces, and
// per-rank chatter go to stderr.
//
// Fault injection: -faults takes a faultline schedule. A fatal fault
// (mpi.crash, world.rankkill) makes the affected rank die and the launcher
// exit non-zero after printing the fired fault's repro token to stderr.
//
// Example:
//
//	gosensei-run -np 4 -transport=tcp -pipeline=histogram -cells 16 -steps 5
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"gosensei/internal/analysis"
	"gosensei/internal/compositing"
	"gosensei/internal/faultline"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
	"gosensei/internal/render"
	"gosensei/internal/world"
)

// exitFault is the exit code of a rank killed by a fatal injected fault,
// distinct from ordinary failure so the launcher (and the smoke tests) can
// tell "the schedule fired" from "something broke".
const exitFault = 3

// workerEnv is the environment variable that flips this binary into worker
// mode; its value is the worker's rank. The remaining placement comes from
// the GOSENSEI_WORLD_* variables set by the launcher.
const workerEnv = "GOSENSEI_WORLD_RANK"

type params struct {
	np        int
	transport string
	pipeline  string
	cells     int
	steps     int
	bins      int
	faults    string
	verbose   bool
}

func main() {
	var p params
	flag.IntVar(&p.np, "np", 4, "world size (number of ranks)")
	flag.StringVar(&p.transport, "transport", "proc", "rank transport: proc, loopback, or tcp")
	flag.StringVar(&p.pipeline, "pipeline", "histogram", "pipeline: histogram or binswap")
	flag.IntVar(&p.cells, "cells", 16, "global cells per axis (histogram)")
	flag.IntVar(&p.steps, "steps", 5, "time steps")
	flag.IntVar(&p.bins, "bins", 10, "histogram bins")
	flag.StringVar(&p.faults, "faults", "", "fault-injection schedule <seed:spec> (see internal/faultline)")
	flag.BoolVar(&p.verbose, "v", false, "per-rank diagnostics on stderr")
	flag.Parse()

	if p.np <= 0 {
		fatal(fmt.Errorf("world size must be positive, got -np %d", p.np))
	}
	if p.pipeline != "histogram" && p.pipeline != "binswap" {
		fatal(fmt.Errorf("unknown pipeline %q (want histogram or binswap)", p.pipeline))
	}
	if p.faults != "" {
		if _, err := faultline.Parse(p.faults); err != nil {
			fatal(err)
		}
	}

	if rankStr := os.Getenv(workerEnv); rankStr != "" {
		os.Exit(workerMain(rankStr, p))
	}

	switch p.transport {
	case "proc":
		os.Exit(runProc(p))
	case "loopback":
		os.Exit(runLoopback(p))
	case "tcp":
		os.Exit(runTCP(p))
	default:
		fatal(fmt.Errorf("unknown transport %q (want proc, loopback, or tcp)", p.transport))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gosensei-run:", err)
	os.Exit(1)
}

// faultRun starts the schedule (nil for a fault-free run).
func faultRun(p params) *faultline.Run {
	if p.faults == "" {
		return nil
	}
	sched, err := faultline.Parse(p.faults)
	if err != nil {
		fatal(err) // unreachable: validated in main
	}
	return sched.Start()
}

// exitFor classifies a pipeline error: fired fatal faults exit with
// exitFault, anything else with 1.
func exitFor(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "gosensei-run:", err)
	if strings.Contains(err.Error(), "faultline:") {
		return exitFault
	}
	return 1
}

// runProc runs the pipeline on goroutine ranks — the zero-cost in-process
// transport the rest of the repository uses.
func runProc(p params) int {
	frun := faultRun(p)
	var opts []mpi.Option
	if mp := frun.NewMPIPlan(); mp != nil {
		opts = append(opts, mpi.WithFaults(mp))
	}
	err := mpi.Run(p.np, func(c *mpi.Comm) error {
		return runPipeline(c, p, os.Stdout)
	}, opts...)
	printTrace(frun)
	return exitFor(err)
}

// runLoopback runs the pipeline on a cross-process-shaped world whose ranks
// all live in this process, meshed over in-process pipes — the full wire
// path (envelopes, frames, registry handshake) without sockets.
func runLoopback(p params) int {
	frun := faultRun(p)
	cfg := world.Config{
		Network: "loopback",
		ID:      uint64(os.Getpid()),
		Epoch:   1,
		Faults:  frun.NewMPIPlan(),
	}
	if wp := frun.NewWorldPlan(); wp != nil {
		cfg.Hook = wp
	}
	errs := world.Launch(p.np, cfg, func(c *mpi.Comm) error {
		return runPipeline(c, p, os.Stdout)
	})
	printTrace(frun)
	code := 0
	for rank, err := range errs {
		if err == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "gosensei-run: rank %d: %v\n", rank, err)
		if c := exitFor0(err); code == 0 || c == exitFault {
			code = c
		}
	}
	return code
}

// exitFor0 classifies without printing (runLoopback prints per rank).
func exitFor0(err error) int {
	if strings.Contains(err.Error(), "faultline:") {
		return exitFault
	}
	return 1
}

// printTrace writes the fired-fault multiset to stderr (replay evidence).
func printTrace(frun *faultline.Run) {
	for _, l := range frun.TraceLines() {
		fmt.Fprintf(os.Stderr, "faultline: fired %s\n", l)
	}
}

// runTCP spawns one worker process per rank, hosts the registry, forwards
// rank 0's stdout, and propagates the first failing exit code.
func runTCP(p params) int {
	reg, err := world.NewRegistry("tcp", "127.0.0.1:0", uint64(os.Getpid()), 1, p.np)
	if err != nil {
		fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		_, err := reg.Serve()
		served <- err
	}()

	exe, err := os.Executable()
	if err != nil {
		fatal(fmt.Errorf("locate own binary: %w", err))
	}
	args := []string{
		"-np", strconv.Itoa(p.np),
		"-transport", "tcp",
		"-pipeline", p.pipeline,
		"-cells", strconv.Itoa(p.cells),
		"-steps", strconv.Itoa(p.steps),
		"-bins", strconv.Itoa(p.bins),
		"-faults", p.faults,
	}
	if p.verbose {
		args = append(args, "-v")
	}
	cmds := make([]*exec.Cmd, p.np)
	for rank := 0; rank < p.np; rank++ {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(),
			workerEnv+"="+strconv.Itoa(rank),
			"GOSENSEI_WORLD_SIZE="+strconv.Itoa(p.np),
			"GOSENSEI_WORLD_ID="+strconv.Itoa(os.Getpid()),
			"GOSENSEI_WORLD_EPOCH=1",
			"GOSENSEI_WORLD_REGISTRY="+reg.Addr(),
		)
		// Only rank 0 owns stdout: that is what keeps a tcp run's output
		// bit-identical to a proc run. Everything else is diagnostics.
		if rank == 0 {
			cmd.Stdout = os.Stdout
		} else {
			cmd.Stdout = os.Stderr
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			_ = reg.Close()
			fatal(fmt.Errorf("spawn rank %d: %w", rank, err))
		}
		cmds[rank] = cmd
	}

	code := 0
	for rank, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			c := 1
			if ee, ok := err.(*exec.ExitError); ok {
				c = ee.ExitCode()
			}
			fmt.Fprintf(os.Stderr, "gosensei-run: rank %d exited with code %d\n", rank, c)
			if code == 0 || c == exitFault {
				code = c
			}
		}
	}
	_ = reg.Close() // unblocks Serve if the world never assembled
	if err := <-served; err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, "gosensei-run: registry:", err)
		code = 1
	}
	return code
}

// workerMain is one rank of a tcp world: join, run the pipeline, say
// goodbye. A fatal injected fault surfaces as exitFault plus the repro token
// on stderr.
func workerMain(rankStr string, p params) int {
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		fatal(fmt.Errorf("bad %s=%q: %w", workerEnv, rankStr, err))
	}
	size := envInt("GOSENSEI_WORLD_SIZE")
	id := envInt("GOSENSEI_WORLD_ID")
	epoch := envInt("GOSENSEI_WORLD_EPOCH")
	registry := os.Getenv("GOSENSEI_WORLD_REGISTRY")

	frun := faultRun(p)
	cfg := world.Config{
		Network:  "tcp",
		Registry: registry,
		ID:       uint64(id),
		Epoch:    uint32(epoch),
		Rank:     rank,
		Size:     size,
		Faults:   frun.NewMPIPlan(),
	}
	if wp := frun.NewWorldPlan(); wp != nil {
		cfg.Hook = wp
	}
	w, err := world.Join(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gosensei-run: rank %d: %v\n", rank, err)
		return 1
	}
	err = w.Run(func(c *mpi.Comm) error {
		return runPipeline(c, p, os.Stdout)
	})
	if cerr := w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	printTrace(frun)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gosensei-run: rank %d: %v\n", rank, err)
		return exitFor0(err)
	}
	if p.verbose {
		fmt.Fprintf(os.Stderr, "gosensei-run: rank %d done\n", rank)
	}
	return 0
}

func envInt(name string) int {
	v, err := strconv.Atoi(os.Getenv(name))
	if err != nil {
		fatal(fmt.Errorf("bad %s=%q: %w", name, os.Getenv(name), err))
	}
	return v
}

// runPipeline dispatches to the selected pipeline. Only rank 0 writes to
// out, and every write is deterministic in (np, pipeline parameters) alone —
// transport must never show through.
func runPipeline(c *mpi.Comm, p params, out io.Writer) error {
	switch p.pipeline {
	case "histogram":
		return runHistogram(c, p, out)
	case "binswap":
		return runBinswap(c, p, out)
	}
	return fmt.Errorf("unknown pipeline %q", p.pipeline)
}

// runHistogram is the paper's canonical in situ pair: the oscillator miniapp
// producing a cell field, a global histogram consuming it every step.
func runHistogram(c *mpi.Comm, p params, out io.Writer) error {
	cfg := oscillator.Config{
		GlobalCells: [3]int{p.cells, p.cells, p.cells},
		DT:          0.05,
		Steps:       p.steps,
		Oscillators: oscillator.DefaultDeck(float64(p.cells)),
	}
	sim, err := oscillator.NewSim(c, cfg, metrics.NewTracker())
	if err != nil {
		return err
	}
	ad := oscillator.NewDataAdaptor(sim)
	h := analysis.NewHistogram(c, "data", grid.CellData, p.bins)
	for i := 0; i < p.steps; i++ {
		if err := sim.Step(); err != nil {
			return err
		}
		ad.Update()
		mesh, err := ad.Mesh(false)
		if err != nil {
			return err
		}
		if err := ad.AddArray(mesh, grid.CellData, "data"); err != nil {
			return err
		}
		res, err := h.Compute(sim.StepIndex(), mesh)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Fprintf(out, "step=%d min=%.17g max=%.17g counts=%v\n", res.Step, res.Min, res.Max, res.Counts)
		}
		if err := ad.ReleaseData(); err != nil {
			return err
		}
	}
	return nil
}

// runBinswap composites procedurally rendered per-rank framebuffers with
// binary swap and prints a digest of the final image — the paper's
// image-order rendering workload without the full catalyst stack.
func runBinswap(c *mpi.Comm, p params, out io.Writer) error {
	const w, h = 64, 64
	tail := compositing.Tail{Comm: c, Algorithm: compositing.BinarySwap}
	for step := 0; step < p.steps; step++ {
		err := tail.Image(step, w, h,
			func(fb *render.Framebuffer) error {
				paint(fb, c.Rank(), step)
				return nil
			},
			func(final *render.Framebuffer) error {
				sum := sha256.Sum256(final.Color)
				_, err := fmt.Fprintf(out, "step=%d image=%x\n", step, sum[:8])
				return err
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// paint fills a framebuffer with a deterministic function of (rank, step,
// pixel): each rank owns an interleaved set of depths, so the composite
// mixes contributions from every rank.
func paint(fb *render.Framebuffer, rank, step int) {
	for i := 0; i < fb.W*fb.H; i++ {
		v := uint32(i*2654435761) ^ uint32(rank*40503) ^ uint32(step*9176)
		fb.Color[i*4+0] = uint8(v)
		fb.Color[i*4+1] = uint8(v >> 8)
		fb.Color[i*4+2] = uint8(v >> 16)
		fb.Color[i*4+3] = 255
		fb.Depth[i] = float32((v>>24)^uint32(rank*5)) / 256
	}
}
