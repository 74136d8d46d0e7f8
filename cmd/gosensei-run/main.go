// Command gosensei-run is the launcher: one data source, instrumented once
// with the SENSEI bridge, on an N-rank world of the chosen transport,
// running whatever the SENSEI XML configuration names. The deck's first line
// names the source. Four are the paper's miniapps, and -cells is the size
// their package's DefaultConfig takes:
//
//	simulation oscillator  the oscillators of §3.3 (also: no such line, no deck)
//	simulation phasta      PHASTA's jet in crossflow (§4.2.1); each further
//	                       line "steer <step> <amplitude> <frequency>" retunes
//	                       the jet from that step on (Fig. 13)
//	simulation leslie      AVF-LESLIE's temporal mixing layer (§4.2.2)
//	simulation nyx         Nyx's particle-mesh cosmology (§4.2.3)
//
// Two are SENSEI's other data adaptors, over steps a simulation produced
// elsewhere; the source decides the steps and the mesh, so -steps and -cells
// are refused on their decks:
//
//	simulation endpoint    the in transit endpoint of §4.1.4: -np reader ranks
//	                       1:1 with a flexpath writer's ranks; lines listen,
//	                       queue-depth, codec, extract (decks/endpoint.deck)
//	simulation replay      post hoc (Fig. 11): "dir <path>" names what a
//	                       vtk-writer stored; reader r of -np serves writers
//	                       r, r+np, … of each step (decks/replay.deck)
//
// Any deck may carry "live <host:port>": the frames the configured analyses
// render are served there to live wire viewers.
//
// Any source runs on any transport, except that an endpoint serves its
// reader group from one process (proc or loopback):
//
//	-transport=proc      goroutine ranks in this process (mpi.Run; no wire)
//	-transport=loopback  one process, ranks meshed over in-process pipes
//	-transport=tcp       N worker processes meshed over real sockets,
//	                     spawned by re-executing this binary with the same
//	                     arguments (each reads the same deck and config)
//
// The configuration file is the only way a run's analyses are assembled:
// analyses, infrastructures, the in transit writer (adios
// transport="flexpath") and adaptive routing (type="routed") are all
// elements of it. Rank 0's stdout is one header line and what the configured
// analyses report — a function of (np, deck, config) alone, so a tcp run
// must print the same bytes as a proc run, and an endpoint or a replay the
// lines the same analyses print in situ. Timings, -v timers and fault
// traces go to stderr; an endpoint's stdout starts with its bound address.
//
// Everything a run can be refused for is refused before a rank exists or a
// socket is bound: a missing deck or a line its source does not take, a
// config that does not parse or build, a fault schedule with a domain
// nothing in the run can deliver. A fatal fault (mpi.crash, world.rankkill)
// makes the launcher exit 3 after printing the fired fault's repro token to
// stderr.
//
// Examples:
//
//	gosensei-run -np 8 -cells 32 -steps 20 -config configs/histogram.xml -deck decks/sample.osc
//	gosensei-run -np 4 -transport tcp -config configs/all-infrastructures.xml
//	cd examples/nyx-histogram && gosensei-run -np 4 -cells 24 -steps 8 -deck sim.deck -config sensei.xml
//	gosensei-run -np 4 -deck decks/endpoint.deck -config configs/endpoint-histogram.xml      # terminal 1
//	gosensei-run -np 4 -steps 10 -config configs/intransit-writer.xml                       # terminal 2
//	gosensei-run -np 1 -deck decks/replay.deck -config configs/histogram.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"gosensei/internal/launch"
	"gosensei/internal/parallel"
	"gosensei/internal/world"
)

// exitFault is the exit code of a run killed by a fatal injected fault,
// distinct from ordinary failure so the launcher (and the smoke tests) can
// tell "the schedule fired" from "something broke".
const exitFault = 3

// workerEnv is the environment variable that flips this binary into worker
// mode; its value is the worker's rank. The remaining placement comes from
// the GOSENSEI_WORLD_* variables set by the launcher.
const workerEnv = "GOSENSEI_WORLD_RANK"

func main() {
	var req launch.Request
	var threads int
	var deck, config string
	flag.IntVar(&req.NP, "np", 4, "world size (number of ranks)")
	flag.StringVar(&req.Transport, "transport", "proc", "rank transport: proc, loopback, or tcp")
	flag.IntVar(&req.Cells, "cells", 32, "problem size: the simulation's global cells (PHASTA: points) per axis")
	flag.IntVar(&req.Steps, "steps", 20, "time steps")
	flag.StringVar(&deck, "deck", "", "input deck; a first line \"simulation phasta|leslie|nyx|endpoint|replay\" selects the source (default: the oscillator's built-in three-source deck)")
	flag.StringVar(&config, "config", "", "SENSEI analysis configuration XML")
	flag.IntVar(&threads, "threads", 0, "thread budget shared across the world's ranks (0 = GOMAXPROCS)")
	flag.StringVar(&req.Faults, "faults", "", "fault-injection schedule <seed:spec> (see internal/faultline)")
	flag.BoolVar(&req.Verbose, "v", false, "rank 0's timers on stderr")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		req.StepsSet = req.StepsSet || f.Name == "steps"
		req.CellsSet = req.CellsSet || f.Name == "cells"
	})

	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (everything is a flag)", flag.Arg(0)))
	}
	p, err := load(req, deck, config)
	if err != nil {
		fatal(err)
	}
	if threads > 0 {
		parallel.SetThreads(threads)
	}

	if rank := os.Getenv(workerEnv); rank != "" {
		os.Exit(worker(p, rank)) // the launcher that spawned it checked
	}
	if err := p.Check(); err != nil {
		fatal(err)
	}
	if req.Transport == "tcp" {
		os.Exit(spawn(req.NP))
	}
	if err := p.Open(); err != nil {
		fatal(err)
	}
	code := finish(p, p.Run(p.Drive))
	if err := p.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gosensei-run:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gosensei-run:", err)
	os.Exit(1)
}

// load reads the deck and the configuration the flags name and parses the
// run they describe — once per process, before any rank exists; a tcp
// worker does the same from the same arguments.
func load(req launch.Request, deck, config string) (*launch.Plan, error) {
	req.Stdout, req.Stderr = os.Stdout, os.Stderr
	var err error
	if deck != "" {
		if req.Deck, err = os.ReadFile(deck); err != nil {
			return nil, err
		}
	}
	if config != "" {
		if req.Config, err = os.ReadFile(config); err != nil {
			return nil, err
		}
	}
	return launch.Parse(req)
}

// finish ends the ranks this process hosted: the fired-fault multiset (replay
// evidence) and every error on stderr — one per rank from a loopback world,
// the first from goroutine ranks or a worker's own — and the exit code:
// exitFault when a fatal fault fired, 1 for anything else that failed.
func finish(p *launch.Plan, errs []error) int {
	for _, l := range p.Faults().TraceLines() {
		fmt.Fprintf(os.Stderr, "faultline: fired %s\n", l)
	}
	code := 0
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if len(errs) > 1 {
			err = fmt.Errorf("rank %d: %w", rank, err)
		}
		fmt.Fprintln(os.Stderr, "gosensei-run:", err)
		if strings.Contains(err.Error(), "faultline:") {
			code = exitFault
		} else if code == 0 {
			code = 1
		}
	}
	return code
}

// spawn runs a tcp world: one worker process per rank, re-executing this
// binary with the same arguments. It hosts the registry, forwards rank 0's
// stdout, and propagates the failing exit code (exitFault first).
func spawn(np int) int {
	reg, err := world.NewRegistry("tcp", "127.0.0.1:0", uint64(os.Getpid()), 1, np)
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
	cmds := make([]*exec.Cmd, np)
	for rank := range cmds {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(),
			workerEnv+"="+strconv.Itoa(rank),
			"GOSENSEI_WORLD_ID="+strconv.Itoa(os.Getpid()),
			"GOSENSEI_WORLD_REGISTRY="+reg.Addr(),
		)
		// Only rank 0 owns stdout: that is what keeps a tcp run's output
		// bit-identical to a proc run. Everything else is diagnostics.
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if rank == 0 {
			cmd.Stdout = os.Stdout
		}
		if err := cmd.Start(); err != nil {
			_ = reg.Close()
			for _, started := range cmds[:rank] {
				_ = started.Process.Kill()
				_ = started.Wait()
			}
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

// worker is one rank of a tcp world: join, run the rank, say goodbye.
func worker(p *launch.Plan, rankStr string) int {
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		fatal(fmt.Errorf("bad %s=%q: %w", workerEnv, rankStr, err))
	}
	id, err := strconv.ParseUint(os.Getenv("GOSENSEI_WORLD_ID"), 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad GOSENSEI_WORLD_ID: %w", err))
	}
	if err = p.Worker(rank, id, os.Getenv("GOSENSEI_WORLD_REGISTRY")); err != nil {
		err = fmt.Errorf("rank %d: %w", rank, err)
	}
	return finish(p, []error{err})
}
