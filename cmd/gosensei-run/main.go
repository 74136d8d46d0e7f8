// Command gosensei-run is the launcher: one of the paper's miniapps,
// instrumented once with the SENSEI bridge, on an N-rank world of the chosen
// transport, running whatever the SENSEI XML configuration names. The deck's
// first line names the simulation, and -cells is the size its package's
// DefaultConfig takes:
//
//	simulation oscillator  the oscillators of §3.3 (also: no such line, no deck)
//	simulation phasta      PHASTA's jet in crossflow (§4.2.1); each further
//	                       line "steer <step> <amplitude> <frequency>" retunes
//	                       the jet from that step on (Fig. 13)
//	simulation leslie      AVF-LESLIE's temporal mixing layer (§4.2.2)
//	simulation nyx         Nyx's particle-mesh cosmology (§4.2.3)
//
// Any deck runs on any transport:
//
//	-transport=proc      goroutine ranks in this process (mpi.Run; no wire)
//	-transport=loopback  one process, ranks meshed over in-process pipes
//	-transport=tcp       N worker processes meshed over real sockets,
//	                     spawned by re-executing this binary with the same
//	                     arguments (each reads the same deck and config)
//
// The configuration file is the only way a run is assembled: analyses,
// infrastructures, the in transit writer (adios transport="flexpath") and
// adaptive routing (type="routed") are all elements of it. Rank 0's stdout is
// one header line and what the configured analyses report — a function of
// (np, deck, config) alone, so a tcp run must print the same bytes as a proc
// run, the contract the world-smoke suite enforces for any configuration.
// Timings, -v timers and fault traces go to stderr.
//
// Everything a run can be refused for is refused before a rank exists: a
// missing deck or a line its simulation does not take, a config that does not
// parse or build, a fault schedule with a domain nothing in the run can
// deliver. A fatal fault (mpi.crash, world.rankkill) makes the launcher exit 3
// after printing the fired fault's repro token to stderr.
//
// Examples:
//
//	gosensei-run -np 8 -cells 32 -steps 20 -config configs/histogram.xml -deck decks/sample.osc
//	gosensei-run -np 4 -transport tcp -config configs/all-infrastructures.xml
//	cd examples/nyx-histogram && gosensei-run -np 4 -cells 24 -steps 8 -deck sim.deck -config sensei.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"gosensei/internal/adios"
	_ "gosensei/internal/analysis"
	_ "gosensei/internal/catalyst"
	"gosensei/internal/core"
	_ "gosensei/internal/extracts"
	"gosensei/internal/faultline"
	_ "gosensei/internal/glean"
	"gosensei/internal/iosim"
	"gosensei/internal/leslie"
	_ "gosensei/internal/libsim"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/nyx"
	"gosensei/internal/oscillator"
	"gosensei/internal/parallel"
	"gosensei/internal/phasta"
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

// run is one launch: the flags, and what main read from the files they name.
type run struct {
	np        int
	transport string
	steps     int
	verbose   bool
	sim       string // the deck's simulation
	size      string // what -cells made of it, for the header
	newSim    func(c *mpi.Comm, mem *metrics.Tracker) (simulation, error)
	cfg       *core.Config   // nil without -config
	frun      *faultline.Run // nil without -faults
}

// simulation is one rank of the deck's miniapp: step advances it one time
// step, and data is its SENSEI data adaptor, updated after every step.
type simulation struct {
	step func() error
	data interface {
		core.DataAdaptor
		Update()
	}
}

func main() {
	var r run
	var cells, threads int
	var deck, config, faults string
	flag.IntVar(&r.np, "np", 4, "world size (number of ranks)")
	flag.StringVar(&r.transport, "transport", "proc", "rank transport: proc, loopback, or tcp")
	flag.IntVar(&cells, "cells", 32, "problem size: the simulation's global cells (PHASTA: points) per axis")
	flag.IntVar(&r.steps, "steps", 20, "time steps")
	flag.StringVar(&deck, "deck", "", "input deck; a first line \"simulation phasta|leslie|nyx\" selects the miniapp (default: the oscillator's built-in three-source deck)")
	flag.StringVar(&config, "config", "", "SENSEI analysis configuration XML")
	flag.IntVar(&threads, "threads", 0, "thread budget shared across the world's ranks (0 = GOMAXPROCS)")
	flag.StringVar(&faults, "faults", "", "fault-injection schedule <seed:spec> (see internal/faultline)")
	flag.BoolVar(&r.verbose, "v", false, "rank 0's timers on stderr")
	flag.Parse()

	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (everything is a flag)", flag.Arg(0)))
	}
	if r.np <= 0 {
		fatal(fmt.Errorf("world size must be positive, got -np %d", r.np))
	}
	if r.transport != "proc" && r.transport != "loopback" && r.transport != "tcp" {
		fatal(fmt.Errorf("unknown transport %q (want proc, loopback, or tcp)", r.transport))
	}
	if err := r.load(cells, deck, config, faults); err != nil {
		fatal(err)
	}
	if threads > 0 {
		parallel.SetThreads(threads)
	}
	// The process-wide seams of the two fault domains that fire below the
	// world: block files and the staging wire.
	if p := r.frun.IOPlan(); p != nil {
		iosim.SetFaults(p)
	}
	if p := r.frun.FabricPlan(); p != nil {
		adios.SetWireFaults(p.WrapConn)
	}

	if rank := os.Getenv(workerEnv); rank != "" {
		os.Exit(r.worker(rank)) // the launcher that spawned it validated
	}
	if err := r.validate(); err != nil {
		fatal(err)
	}
	switch r.transport {
	case "proc":
		var opts []mpi.Option
		if p := r.frun.NewMPIPlan(); p != nil {
			opts = append(opts, mpi.WithFaults(p))
		}
		os.Exit(r.finish([]error{mpi.Run(r.np, r.rank, opts...)}))
	case "loopback":
		os.Exit(r.finish(world.Launch(r.np, r.world("loopback"), r.rank)))
	case "tcp":
		os.Exit(r.spawn())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gosensei-run:", err)
	os.Exit(1)
}

// load reads and parses the deck, the configuration and the fault schedule —
// once per process, before any rank exists; a tcp worker does the same from
// the same arguments.
func (r *run) load(cells int, deck, config, faults string) error {
	if r.steps <= 0 {
		return fmt.Errorf("steps must be positive, got -steps %d", r.steps)
	}
	var text []byte
	if deck != "" {
		var err error
		if text, err = os.ReadFile(deck); err != nil {
			return err
		}
	}
	if err := r.loadSim(cells, deck != "", string(text)); err != nil {
		return err
	}
	if config != "" {
		doc, err := os.ReadFile(config)
		if err != nil {
			return err
		}
		if r.cfg, err = core.ParseConfig(doc); err != nil {
			return err
		}
	}
	if faults != "" {
		sched, err := faultline.Parse(faults)
		if err != nil {
			return err
		}
		r.frun = sched.Start()
	}
	return nil
}

// deckLine is one deck line that says something: its number, and its fields
// with the comment ('#' onward) stripped.
type deckLine struct {
	no     int
	fields []string
}

// refuse is the error for a deck line the simulation does not take.
func refuse(l deckLine, sim, takes string) error {
	return fmt.Errorf("deck line %d: simulation %s takes %s, got %q", l.no, sim, takes, strings.Join(l.fields, " "))
}

// loadSim selects the simulation the deck names on its first line (no such
// line, or no deck, is the oscillator), refuses every other line it does not
// take, and validates its package's DefaultConfig(cells).
func (r *run) loadSim(cells int, haveDeck bool, text string) error {
	raw := strings.Split(text, "\n")
	var lines []deckLine
	for i, l := range raw {
		if c := strings.IndexByte(l, '#'); c >= 0 {
			l = l[:c]
		}
		if f := strings.Fields(l); len(f) > 0 {
			lines = append(lines, deckLine{i + 1, f})
		}
	}
	r.sim, r.size = "oscillator", fmt.Sprintf("%d^3 cells", cells)
	simLine := 0
	if len(lines) > 0 && lines[0].fields[0] == "simulation" {
		simLine, r.sim = lines[0].no, strings.Join(lines[0].fields[1:], " ")
		raw[simLine-1] = "" // the oscillator parser reads the rest, line numbers intact
		lines = lines[1:]
	}
	switch r.sim {
	case "oscillator":
		cfg := oscillator.Config{
			GlobalCells: [3]int{cells, cells, cells},
			DT:          0.05,
			Steps:       r.steps,
			Oscillators: oscillator.DefaultDeck(float64(cells)),
		}
		if haveDeck {
			var err error
			if cfg.Oscillators, err = oscillator.ParseDeck(strings.NewReader(strings.Join(raw, "\n"))); err != nil {
				return err
			}
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		r.newSim = func(c *mpi.Comm, mem *metrics.Tracker) (simulation, error) {
			s, err := oscillator.NewSim(c, cfg, mem)
			if err != nil {
				return simulation{}, err
			}
			return simulation{s.Step, oscillator.NewDataAdaptor(s)}, nil
		}
	case "phasta":
		type steer struct {
			step                 int
			amplitude, frequency float64
		}
		var steers []steer
		for _, l := range lines {
			var st steer
			err := fmt.Errorf("not a steer line")
			if len(l.fields) == 4 && l.fields[0] == "steer" {
				st.step, err = strconv.Atoi(l.fields[1])
				if err == nil {
					st.amplitude, err = strconv.ParseFloat(l.fields[2], 64)
				}
				if err == nil {
					st.frequency, err = strconv.ParseFloat(l.fields[3], 64)
				}
			}
			if err != nil || st.step < 1 {
				return refuse(l, r.sim, "only steer <step> <amplitude> <frequency> lines, step >= 1")
			}
			steers = append(steers, st)
		}
		cfg := phasta.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		r.size = fmt.Sprintf("%dx%dx%d points", cfg.GlobalPoints[0], cfg.GlobalPoints[1], cfg.GlobalPoints[2])
		r.newSim = func(c *mpi.Comm, mem *metrics.Tracker) (simulation, error) {
			s, err := phasta.NewSolver(c, cfg)
			if err != nil {
				return simulation{}, err
			}
			d := phasta.NewDataAdaptor(s)
			d.Memory = mem
			return simulation{func() error {
				for _, st := range steers {
					if st.step == s.StepIndex()+1 {
						s.SetJet(st.amplitude, st.frequency)
					}
				}
				s.Step()
				return nil
			}, d}, nil
		}
	case "leslie":
		if len(lines) > 0 {
			return refuse(lines[0], r.sim, "no other line")
		}
		cfg := leslie.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		r.newSim = func(c *mpi.Comm, mem *metrics.Tracker) (simulation, error) {
			s, err := leslie.NewSolver(c, cfg, mem)
			if err != nil {
				return simulation{}, err
			}
			d := leslie.NewDataAdaptor(s)
			d.Memory = mem
			return simulation{s.Step, d}, nil
		}
	case "nyx":
		if len(lines) > 0 {
			return refuse(lines[0], r.sim, "no other line")
		}
		cfg := nyx.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		r.newSim = func(c *mpi.Comm, _ *metrics.Tracker) (simulation, error) {
			s, err := nyx.NewSim(c, cfg)
			if err != nil {
				return simulation{}, err
			}
			return simulation{s.Step, nyx.NewDataAdaptor(s)}, nil
		}
	default:
		return fmt.Errorf("deck line %d: unknown simulation %q (want oscillator, phasta, leslie or nyx)", simLine, r.sim)
	}
	return nil
}

// undeliverable says, per fault domain, why a run has nothing to deliver it.
var undeliverable = map[string]string{
	"world":  "they fire on a world's wire; use -transport loopback or tcp",
	"fabric": `they fire on a staging wire, and the configuration has no adios transport="flexpath" analysis to dial one`,
}

// validate builds the configuration once on throwaway goroutine ranks — so
// that an attribute a factory rejects is one line on stderr on every
// transport, with no worker spawned — and then holds the fault schedule to
// one rule: every domain in it was taken by something that can fire it (mpi
// by the world and io by iosim.SetFaults, always; world by a wire transport;
// fabric by a configured flexpath writer).
func (r *run) validate() error {
	if r.cfg != nil {
		err := mpi.Run(r.np, func(c *mpi.Comm) error {
			return r.cfg.Configure(core.NewBridge(c, nil, nil))
		})
		if err != nil {
			return err
		}
	}
	if r.frun == nil {
		return nil
	}
	taken := map[string]bool{"mpi": true, "io": true, "world": r.transport != "proc", "fabric": adios.WireFaultsTaken()}
	for _, f := range r.frun.Schedule.Faults {
		if !taken[f.Domain] {
			return fmt.Errorf("-faults: this run cannot deliver %s faults: %s", f.Domain, undeliverable[f.Domain])
		}
	}
	return nil
}

// rank is one rank of the miniapp: the deck's simulation, the bridge,
// whatever the configuration names. Only rank 0 writes to stdout, and only
// what is deterministic in (np, deck, config) — transport must never show
// through.
func (r *run) rank(c *mpi.Comm) error {
	reg := metrics.NewRegistry(c.Rank())
	mem := metrics.NewTracker()
	sim, err := r.newSim(c, mem)
	if err != nil {
		return err
	}
	bridge := core.NewBridge(c, reg, mem)
	if r.cfg != nil {
		if err := r.cfg.Configure(bridge); err != nil {
			return err
		}
	}
	total := reg.Timer("total")
	total.Start()
	for i := 0; i < r.steps; i++ {
		if err := sim.step(); err != nil {
			return err
		}
		sim.data.Update()
		cont, err := bridge.Execute(sim.data)
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}
	if err := bridge.Finalize(); err != nil {
		return err
	}
	total.Stop()

	tot, err := metrics.Summarize(c, reg, "total")
	if err != nil {
		return err
	}
	hw, err := metrics.SumHighWater(c, mem)
	if err != nil {
		return err
	}
	if c.Rank() != 0 {
		return nil
	}
	fmt.Printf("%s: %d ranks, %s, %d steps, %d analyses\n",
		r.sim, c.Size(), r.size, r.steps, bridge.AnalysisCount())
	bridge.Report(os.Stdout)
	fmt.Fprintf(os.Stderr, "time to solution: %s (max over ranks)\n", metrics.FormatSeconds(tot.Max))
	fmt.Fprintf(os.Stderr, "memory high-water (sum over ranks): %s\n", metrics.FormatBytes(hw))
	if r.verbose {
		for _, name := range reg.TimerNames() {
			t := reg.Timer(name)
			fmt.Fprintf(os.Stderr, "  %-28s total %-12s calls %d\n", name,
				metrics.FormatSeconds(t.Total().Seconds()), t.Count())
		}
	}
	return nil
}

// world is the placement every rank of a wire world shares; Launch and
// worker fill in the rest. Nil plans stay nil interfaces: a fault-free world
// takes the fault-free send path.
func (r *run) world(network string) world.Config {
	cfg := world.Config{Network: network, ID: uint64(os.Getpid()), Epoch: 1}
	if p := r.frun.NewMPIPlan(); p != nil {
		cfg.Faults = p
	}
	if p := r.frun.NewWorldPlan(); p != nil {
		cfg.Hook = p
	}
	return cfg
}

// finish ends the ranks this process hosted: the fired-fault multiset (replay
// evidence) and every error on stderr — one per rank from a loopback world,
// the first from goroutine ranks or a worker's own — and the exit code:
// exitFault when a fatal fault fired, 1 for anything else that failed.
func (r *run) finish(errs []error) int {
	for _, l := range r.frun.TraceLines() {
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
func (r *run) spawn() int {
	reg, err := world.NewRegistry("tcp", "127.0.0.1:0", uint64(os.Getpid()), 1, r.np)
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
	cmds := make([]*exec.Cmd, r.np)
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
func (r *run) worker(rankStr string) int {
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		fatal(fmt.Errorf("bad %s=%q: %w", workerEnv, rankStr, err))
	}
	id, err := strconv.ParseUint(os.Getenv("GOSENSEI_WORLD_ID"), 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad GOSENSEI_WORLD_ID: %w", err))
	}
	cfg := r.world("tcp")
	cfg.ID, cfg.Rank, cfg.Size, cfg.Registry = id, rank, r.np, os.Getenv("GOSENSEI_WORLD_REGISTRY")
	w, err := world.Join(cfg)
	if err == nil {
		err = w.Run(r.rank)
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		err = fmt.Errorf("rank %d: %w", rank, err)
	}
	return r.finish([]error{err})
}
