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
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"gosensei/internal/adios"
	_ "gosensei/internal/analysis"
	_ "gosensei/internal/catalyst"
	"gosensei/internal/core"
	_ "gosensei/internal/extracts"
	"gosensei/internal/fabric"
	"gosensei/internal/faultline"
	_ "gosensei/internal/glean"
	"gosensei/internal/grid"
	"gosensei/internal/iosim"
	"gosensei/internal/leslie"
	_ "gosensei/internal/libsim"
	"gosensei/internal/live"
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
	explicit  map[string]bool // the flags the command line set
	sim       string          // the deck's source
	size      string          // what the source's size is, for the header
	newSource func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) (core.Source, error)
	cfg       *core.Config   // nil without -config
	frun      *faultline.Run // nil without -faults
	live      string         // a live line's address

	// A simulation endpoint deck's lines.
	listen  string
	depth   int
	fabOpts []adios.FabricOption

	// Opened after validate, in the process that hosts rank 0.
	fab *adios.Fabric
	hub *live.Hub
	srv *live.Server
}

// simulation is one rank of the deck's miniapp as a source: step advances
// it one time step, and data is its SENSEI data adaptor, updated after every
// step; left counts the steps still to run.
type simulation struct {
	step func() error
	data interface {
		core.DataAdaptor
		Update()
	}
	left int
}

// Next implements core.Source.
func (s *simulation) Next() (core.DataAdaptor, error) {
	if s.left == 0 {
		return nil, nil
	}
	s.left--
	if err := s.step(); err != nil {
		return nil, err
	}
	s.data.Update()
	return s.data, nil
}

func main() {
	var r run
	var cells, threads int
	var deck, config, faults string
	flag.IntVar(&r.np, "np", 4, "world size (number of ranks)")
	flag.StringVar(&r.transport, "transport", "proc", "rank transport: proc, loopback, or tcp")
	flag.IntVar(&cells, "cells", 32, "problem size: the simulation's global cells (PHASTA: points) per axis")
	flag.IntVar(&r.steps, "steps", 20, "time steps")
	flag.StringVar(&deck, "deck", "", "input deck; a first line \"simulation phasta|leslie|nyx|endpoint|replay\" selects the source (default: the oscillator's built-in three-source deck)")
	flag.StringVar(&config, "config", "", "SENSEI analysis configuration XML")
	flag.IntVar(&threads, "threads", 0, "thread budget shared across the world's ranks (0 = GOMAXPROCS)")
	flag.StringVar(&faults, "faults", "", "fault-injection schedule <seed:spec> (see internal/faultline)")
	flag.BoolVar(&r.verbose, "v", false, "rank 0's timers on stderr")
	flag.Parse()
	r.explicit = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { r.explicit[f.Name] = true })

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
	if r.transport == "tcp" {
		os.Exit(r.spawn())
	}
	if err := r.open(); err != nil {
		fatal(err)
	}
	var errs []error
	if r.transport == "proc" {
		var opts []mpi.Option
		if p := r.frun.NewMPIPlan(); p != nil {
			opts = append(opts, mpi.WithFaults(p))
		}
		errs = []error{mpi.Run(r.np, r.rank, opts...)}
	} else {
		errs = world.Launch(r.np, r.world("loopback"), r.rank)
	}
	code := r.finish(errs)
	if err := r.close(); err != nil {
		fmt.Fprintln(os.Stderr, "gosensei-run:", err)
		code = max(code, 1)
	}
	os.Exit(code)
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

// endpointTakes is what a simulation endpoint deck's lines may say.
const endpointTakes = "only listen <host:port>, queue-depth <n>, codec <list> and extract <spec> lines"

// loadSim selects the source the deck names on its first line (no such
// line, or no deck, is the oscillator), takes a live line on any deck,
// refuses every other line the source does not take, and validates what the
// source will run: a simulation's DefaultConfig(cells), an endpoint's
// listen address, a replay's stored steps.
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
	// The live line, on any deck: taken out before the source sees the rest.
	kept := lines[:0]
	for _, l := range lines {
		if l.fields[0] != "live" {
			kept = append(kept, l)
			continue
		}
		if len(l.fields) != 2 || r.live != "" {
			return fmt.Errorf("deck line %d: want one live <host:port> line, got %q", l.no, strings.Join(l.fields, " "))
		}
		if _, _, err := net.SplitHostPort(l.fields[1]); err != nil {
			return fmt.Errorf("deck line %d: live: %w", l.no, err)
		}
		r.live, raw[l.no-1] = l.fields[1], ""
	}
	lines = kept
	if r.sim == "endpoint" || r.sim == "replay" {
		for _, name := range []string{"steps", "cells"} {
			if r.explicit[name] {
				return fmt.Errorf("simulation %s: the source decides the %s; drop -%s", r.sim, name, name)
			}
		}
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
		r.newSource = func(c *mpi.Comm, _ *metrics.Registry, mem *metrics.Tracker) (core.Source, error) {
			s, err := oscillator.NewSim(c, cfg, mem)
			if err != nil {
				return nil, err
			}
			return &simulation{s.Step, oscillator.NewDataAdaptor(s), r.steps}, nil
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
		r.newSource = func(c *mpi.Comm, _ *metrics.Registry, mem *metrics.Tracker) (core.Source, error) {
			s, err := phasta.NewSolver(c, cfg)
			if err != nil {
				return nil, err
			}
			d := phasta.NewDataAdaptor(s)
			d.Memory = mem
			return &simulation{func() error {
				for _, st := range steers {
					if st.step == s.StepIndex()+1 {
						s.SetJet(st.amplitude, st.frequency)
					}
				}
				s.Step()
				return nil
			}, d, r.steps}, nil
		}
	case "leslie":
		if len(lines) > 0 {
			return refuse(lines[0], r.sim, "no other line")
		}
		cfg := leslie.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		r.newSource = func(c *mpi.Comm, _ *metrics.Registry, mem *metrics.Tracker) (core.Source, error) {
			s, err := leslie.NewSolver(c, cfg, mem)
			if err != nil {
				return nil, err
			}
			d := leslie.NewDataAdaptor(s)
			d.Memory = mem
			return &simulation{s.Step, d, r.steps}, nil
		}
	case "nyx":
		if len(lines) > 0 {
			return refuse(lines[0], r.sim, "no other line")
		}
		cfg := nyx.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		r.newSource = func(c *mpi.Comm, _ *metrics.Registry, _ *metrics.Tracker) (core.Source, error) {
			s, err := nyx.NewSim(c, cfg)
			if err != nil {
				return nil, err
			}
			return &simulation{s.Step, nyx.NewDataAdaptor(s), r.steps}, nil
		}
	case "endpoint":
		r.listen, r.depth = "127.0.0.1:0", 1
		for _, l := range lines {
			if len(l.fields) != 2 {
				return refuse(l, r.sim, endpointTakes)
			}
			var err error
			switch v := l.fields[1]; l.fields[0] {
			case "listen":
				r.listen = v
				_, _, err = net.SplitHostPort(v)
			case "queue-depth":
				if r.depth, err = strconv.Atoi(v); err == nil && r.depth < 1 {
					err = fmt.Errorf("queue-depth must be at least 1, got %d", r.depth)
				}
			case "codec":
				var ids []uint8
				for _, name := range strings.Split(v, ",") {
					id, cerr := fabric.ParseCodec(name)
					if cerr != nil {
						err = cerr
						break
					}
					ids = append(ids, id)
				}
				r.fabOpts = append(r.fabOpts, adios.WithCodecs(ids...))
			case "extract":
				var spec *fabric.ExtractSpec
				if spec, err = parseExtractSpec(v); err == nil {
					r.fabOpts = append(r.fabOpts, adios.WithExtract(*spec))
				}
			default:
				return refuse(l, r.sim, endpointTakes)
			}
			if err != nil {
				return fmt.Errorf("deck line %d: %w", l.no, err)
			}
		}
		r.steps, r.size = 0, fmt.Sprintf("%d writers", r.np)
		r.newSource = func(c *mpi.Comm, reg *metrics.Registry, _ *metrics.Tracker) (core.Source, error) {
			return r.fab.Reader(c.Rank(), reg), nil
		}
	case "replay":
		var dir string
		for _, l := range lines {
			if len(l.fields) != 2 || l.fields[0] != "dir" || dir != "" {
				return refuse(l, r.sim, "one dir <path> line")
			}
			dir = l.fields[1]
		}
		if dir == "" {
			return fmt.Errorf("simulation replay: the deck names no dir <path> of stored steps")
		}
		steps, writers, err := iosim.ListSteps(dir)
		if err != nil {
			return err
		}
		if len(steps) == 0 {
			return fmt.Errorf("simulation replay: %s holds no stored steps", dir)
		}
		if r.np > writers {
			return fmt.Errorf("simulation replay: -np %d is more readers than the %d writers whose blocks %s holds", r.np, writers, dir)
		}
		r.steps, r.size = 0, fmt.Sprintf("%d writers", writers)
		r.newSource = func(c *mpi.Comm, reg *metrics.Registry, _ *metrics.Tracker) (core.Source, error) {
			return iosim.NewReplay(c, reg, dir, steps, writers), nil
		}
	default:
		return fmt.Errorf("deck line %d: unknown simulation %q (want oscillator, phasta, leslie, nyx, endpoint or replay)", simLine, r.sim)
	}
	return nil
}

// parseExtractSpec turns an extract line into the negotiated wire spec.
// Extracts are computed over cell data, what the miniapps produce.
func parseExtractSpec(s string) (*fabric.ExtractSpec, error) {
	parts := strings.Split(s, ":")
	bad := fmt.Errorf("bad extract %q: want histogram:<array>:<bins> or slice:<axis>:<coord>:<array>", s)
	switch {
	case parts[0] == "histogram" && len(parts) == 3:
		bins, err := strconv.Atoi(parts[2])
		if err != nil || bins <= 0 {
			return nil, bad
		}
		return &fabric.ExtractSpec{Kind: fabric.ExtractHistogram, Assoc: uint8(grid.CellData), Bins: uint32(bins), Array: parts[1]}, nil
	case parts[0] == "slice" && len(parts) == 4:
		axis, err := strconv.Atoi(parts[1])
		if err != nil || axis < 0 || axis > 2 {
			return nil, bad
		}
		coord, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, bad
		}
		return &fabric.ExtractSpec{Kind: fabric.ExtractSlice, Assoc: uint8(grid.CellData), Axis: uint32(axis), Coord: coord, Array: parts[3]}, nil
	}
	return nil, bad
}

// undeliverable says, per fault domain, why a run has nothing to deliver it.
var undeliverable = map[string]string{
	"world":  "they fire on a world's wire; use -transport loopback or tcp",
	"fabric": `they fire on a staging wire, and the configuration has no adios transport="flexpath" analysis to dial one`,
}

// validate builds the configuration once on throwaway goroutine ranks — so
// that an attribute a factory rejects is one line on stderr on every
// transport, with no worker spawned — refuses an endpoint on a transport
// that spreads its reader group over processes, and holds the fault
// schedule to one rule: every domain in it was taken by something that can
// fire it (mpi by the world and io by iosim.SetFaults, always; world by a
// wire transport; fabric by a configured flexpath writer).
func (r *run) validate() error {
	if r.cfg != nil {
		err := mpi.Run(r.np, func(c *mpi.Comm) error {
			return r.cfg.Configure(core.NewBridge(c, nil, nil))
		})
		if err != nil {
			return err
		}
	}
	if r.sim == "endpoint" && r.transport == "tcp" {
		return fmt.Errorf("simulation endpoint serves its reader group from one process; use -transport proc or loopback")
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

// open binds what the deck serves beyond its ranks, in the process that
// hosts rank 0 and only once validate passed: an endpoint's staging
// listener (its address is stdout's first line) and a live line's viewer
// port.
func (r *run) open() error {
	if r.sim == "endpoint" {
		var err error
		if r.fab, err = adios.ListenFabric("tcp", r.listen, r.np, r.np, r.depth, r.fabOpts...); err != nil {
			return err
		}
		// The writers' endpoint attribute; scripts and tests parse this line.
		fmt.Printf("fabric: listening on %s\n", r.fab.Addr())
	}
	if r.live != "" {
		lis, err := fabric.Listen("tcp", r.live)
		if err != nil {
			return err
		}
		r.hub = live.NewHub()
		r.srv = live.Serve(lis, r.hub)
		fmt.Fprintf(os.Stderr, "live: serving viewers on %s\n", r.srv.Addr())
	}
	return nil
}

// close ends what open bound, with its counters on stderr.
func (r *run) close() error {
	var err error
	if r.fab != nil {
		err = r.fab.Close()
		// What the negotiated codec or extract bought: logical vs wire bytes.
		fmt.Fprintf(os.Stderr, "fabric: %s\n", r.fab.Stats().Summary())
	}
	if r.hub != nil {
		fmt.Fprintf(os.Stderr, "live: %d frames published, %d viewers attached at exit\n", r.hub.Frames(), r.hub.Viewers())
		if cerr := r.srv.Close(); err == nil {
			err = cerr
		}
		r.hub.Close()
	}
	return err
}

// rank is one rank of the run: the deck's source driving the bridge, which
// runs whatever the configuration names. Only rank 0 writes to stdout, and
// only what is deterministic in (np, deck, config) — transport must never
// show through.
func (r *run) rank(c *mpi.Comm) error {
	reg := metrics.NewRegistry(c.Rank())
	mem := metrics.NewTracker()
	src, err := r.newSource(c, reg, mem)
	if err != nil {
		return err
	}
	bridge := core.NewBridge(c, reg, mem)
	if hub := r.hub; hub != nil {
		bridge.Publish = func(step, w, h int, png []byte) {
			hub.Publish(live.Frame{Step: step, Width: w, Height: h, PNG: png})
		}
	}
	if r.cfg != nil {
		if err := r.cfg.Configure(bridge); err != nil {
			return err
		}
	}
	total := reg.Timer("total")
	total.Start()
	steps, err := bridge.Drive(src)
	if err != nil {
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
		r.sim, c.Size(), r.size, steps, bridge.AnalysisCount())
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
	if rank == 0 {
		err = r.open()
	}
	var w *world.World
	if err == nil {
		w, err = world.Join(cfg)
	}
	if err == nil {
		err = w.Run(r.rank)
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := r.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		err = fmt.Errorf("rank %d: %w", rank, err)
	}
	return r.finish([]error{err})
}
