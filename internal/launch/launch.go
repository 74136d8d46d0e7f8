// Package launch is the one way a run is hosted: it turns a deck, a SENSEI
// configuration and a fault schedule into a refusal, made before any rank
// exists or any socket is bound, or a Plan that hosts the deck's data source
// under the bridge on every rank. cmd/gosensei-run is its command line; the
// experiments harness is its library caller.
//
// The deck's first line names the source: "simulation oscillator" (also: no
// such line, or no deck), phasta, leslie or nyx — the paper's miniapps,
// sized by Request.Cells and run for Request.Steps — or one of SENSEI's
// other data adaptors, endpoint (the in transit endpoint) or replay (post
// hoc), which decide the steps and the mesh themselves. Any deck may carry a
// "live <host:port>" line.
//
// A plan runs its ranks in this process (Run: goroutine ranks on proc, a
// loopback world otherwise) or serves as one rank of a tcp world (Worker).
// Each rank's source is built under the "sim::initialize" timer, each
// simulation step runs under "sim::step", and Rank hands a caller the
// rank's registry and memory tracker.
package launch

import (
	"fmt"
	"io"
	"net"
	"os"
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
	"gosensei/internal/phasta"
	"gosensei/internal/world"
)

// Request is what a run is made of: the files' contents and the launcher's
// settings.
type Request struct {
	// Deck is the deck's text; nil is no deck (the oscillator's built-in
	// three-source deck).
	Deck []byte
	// Config is the SENSEI configuration XML; nil is none.
	Config []byte
	// Faults is a fault schedule, <seed:spec> (see internal/faultline); ""
	// is none.
	Faults string
	// NP is the world size; Transport is proc, loopback or tcp.
	NP        int
	Transport string
	// Cells sizes a simulation (its package's DefaultConfig takes it); Steps
	// is how many it runs. CellsSet and StepsSet say the caller chose them:
	// a source that decides them itself refuses a choice.
	Cells, Steps       int
	CellsSet, StepsSet bool
	// Verbose prints rank 0's timers on Stderr.
	Verbose bool
	// Stdout receives rank 0's header and what the analyses report, and an
	// endpoint's bound address; Stderr the timings and summaries. Nil
	// discards.
	Stdout, Stderr io.Writer
}

// Plan is a run that passed the front door.
type Plan struct {
	np             int
	transport      string
	steps          int
	verbose        bool
	stdout, stderr io.Writer
	sim            string // the deck's source
	size           string // what the source's size is, for the header
	newSource      func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) (core.Source, error)
	cfg            *core.Config   // nil without a configuration
	frun           *faultline.Run // nil without a fault schedule
	live           string         // a live line's address

	// A simulation endpoint deck's lines.
	listen  string
	depth   int
	fabOpts []adios.FabricOption

	// Opened by Open, in the process that hosts rank 0.
	fab *adios.Fabric
	hub *live.Hub
	srv *live.Server

	ranks []*Rank
}

// Rank is one rank of a plan, as this process hosts it.
type Rank struct {
	Comm     *mpi.Comm
	Registry *metrics.Registry
	Memory   *metrics.Tracker
	// Source is the deck's source for this rank.
	Source core.Source
	// Startup is what Memory tracked once the source was built, before any
	// analysis: the executable's footprint of the paper's Fig. 7.
	Startup int64
}

// simulation is one rank of the deck's miniapp as a source: step advances
// it one time step under the "sim::step" timer, and data is its SENSEI data
// adaptor, updated after every step.
type simulation struct {
	reg  *metrics.Registry
	step func() error
	data interface {
		core.DataAdaptor
		Update()
	}
	done, steps int
}

// Next implements core.Source.
func (s *simulation) Next() (core.DataAdaptor, error) {
	if s.done == s.steps {
		return nil, nil
	}
	var err error
	s.reg.Time("sim::step", s.done, func() { err = s.step() })
	s.done++
	if err != nil {
		return nil, err
	}
	s.data.Update()
	return s.data, nil
}

// Load is the front door: Parse, then Check.
func Load(req Request) (*Plan, error) {
	p, err := Parse(req)
	if err == nil {
		err = p.Check()
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Parse reads the run a request describes — the deck, the configuration
// and the fault schedule — refusing whatever they get wrong; a tcp worker
// does the same from the same files. Check holds the result to what the run
// can deliver.
func Parse(req Request) (*Plan, error) {
	if req.NP <= 0 {
		return nil, fmt.Errorf("world size must be positive, got -np %d", req.NP)
	}
	if req.Transport != "proc" && req.Transport != "loopback" && req.Transport != "tcp" {
		return nil, fmt.Errorf("unknown transport %q (want proc, loopback, or tcp)", req.Transport)
	}
	if req.Steps <= 0 {
		return nil, fmt.Errorf("steps must be positive, got -steps %d", req.Steps)
	}
	p := &Plan{
		np: req.NP, transport: req.Transport, steps: req.Steps, verbose: req.Verbose,
		stdout: orDiscard(req.Stdout), stderr: orDiscard(req.Stderr),
	}
	if err := p.loadSim(req); err != nil {
		return nil, err
	}
	if req.Config != nil {
		var err error
		if p.cfg, err = core.ParseConfig(req.Config); err != nil {
			return nil, err
		}
	}
	if req.Faults != "" {
		sched, err := faultline.Parse(req.Faults)
		if err != nil {
			return nil, err
		}
		p.frun = sched.Start()
	}
	return p, nil
}

func orDiscard(w io.Writer) io.Writer {
	if w == nil {
		return io.Discard
	}
	return w
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
// source will run: a simulation's DefaultConfig(cells) on np ranks, an
// endpoint's listen address, a replay's stored steps.
func (p *Plan) loadSim(req Request) error {
	cells := req.Cells
	raw := strings.Split(string(req.Deck), "\n")
	var lines []deckLine
	for i, l := range raw {
		if c := strings.IndexByte(l, '#'); c >= 0 {
			l = l[:c]
		}
		if f := strings.Fields(l); len(f) > 0 {
			lines = append(lines, deckLine{i + 1, f})
		}
	}
	p.sim, p.size = "oscillator", fmt.Sprintf("%d^3 cells", cells)
	simLine := 0
	if len(lines) > 0 && lines[0].fields[0] == "simulation" {
		simLine, p.sim = lines[0].no, strings.Join(lines[0].fields[1:], " ")
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
		if len(l.fields) != 2 || p.live != "" {
			return fmt.Errorf("deck line %d: want one live <host:port> line, got %q", l.no, strings.Join(l.fields, " "))
		}
		if _, _, err := net.SplitHostPort(l.fields[1]); err != nil {
			return fmt.Errorf("deck line %d: live: %w", l.no, err)
		}
		p.live, raw[l.no-1] = l.fields[1], ""
	}
	lines = kept
	if p.sim == "endpoint" || p.sim == "replay" {
		for _, f := range []struct {
			name string
			set  bool
		}{{"steps", req.StepsSet}, {"cells", req.CellsSet}} {
			if f.set {
				return fmt.Errorf("simulation %s: the source decides the %s; drop -%s", p.sim, f.name, f.name)
			}
		}
	}
	switch p.sim {
	case "oscillator":
		cfg := oscillator.Config{
			GlobalCells: [3]int{cells, cells, cells},
			DT:          0.05,
			Steps:       p.steps,
			Oscillators: oscillator.DefaultDeck(float64(cells)),
		}
		if req.Deck != nil {
			var err error
			if cfg.Oscillators, err = oscillator.ParseDeck(strings.NewReader(strings.Join(raw, "\n"))); err != nil {
				return err
			}
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		if err := cfg.CheckRanks(p.np); err != nil {
			return err
		}
		p.newSource = func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) (core.Source, error) {
			s, err := oscillator.NewSim(c, cfg, mem)
			if err != nil {
				return nil, err
			}
			return &simulation{reg, s.Step, oscillator.NewDataAdaptor(s), 0, p.steps}, nil
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
				return refuse(l, p.sim, "only steer <step> <amplitude> <frequency> lines, step >= 1")
			}
			steers = append(steers, st)
		}
		cfg := phasta.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		if err := cfg.CheckRanks(p.np); err != nil {
			return err
		}
		p.size = fmt.Sprintf("%dx%dx%d points", cfg.GlobalPoints[0], cfg.GlobalPoints[1], cfg.GlobalPoints[2])
		p.newSource = func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) (core.Source, error) {
			s, err := phasta.NewSolver(c, cfg)
			if err != nil {
				return nil, err
			}
			d := phasta.NewDataAdaptor(s)
			d.Memory = mem
			return &simulation{reg, func() error {
				for _, st := range steers {
					if st.step == s.StepIndex()+1 {
						s.SetJet(st.amplitude, st.frequency)
					}
				}
				s.Step()
				return nil
			}, d, 0, p.steps}, nil
		}
	case "leslie":
		if len(lines) > 0 {
			return refuse(lines[0], p.sim, "no other line")
		}
		cfg := leslie.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		if err := cfg.CheckRanks(p.np); err != nil {
			return err
		}
		p.newSource = func(c *mpi.Comm, reg *metrics.Registry, mem *metrics.Tracker) (core.Source, error) {
			s, err := leslie.NewSolver(c, cfg, mem)
			if err != nil {
				return nil, err
			}
			d := leslie.NewDataAdaptor(s)
			d.Memory = mem
			return &simulation{reg, s.Step, d, 0, p.steps}, nil
		}
	case "nyx":
		if len(lines) > 0 {
			return refuse(lines[0], p.sim, "no other line")
		}
		cfg := nyx.DefaultConfig(cells)
		if err := cfg.Validate(); err != nil {
			return err
		}
		if err := cfg.CheckRanks(p.np); err != nil {
			return err
		}
		p.newSource = func(c *mpi.Comm, reg *metrics.Registry, _ *metrics.Tracker) (core.Source, error) {
			s, err := nyx.NewSim(c, cfg)
			if err != nil {
				return nil, err
			}
			return &simulation{reg, s.Step, nyx.NewDataAdaptor(s), 0, p.steps}, nil
		}
	case "endpoint":
		p.listen, p.depth = "127.0.0.1:0", 1
		for _, l := range lines {
			if len(l.fields) != 2 {
				return refuse(l, p.sim, endpointTakes)
			}
			var err error
			switch v := l.fields[1]; l.fields[0] {
			case "listen":
				p.listen = v
				_, _, err = net.SplitHostPort(v)
			case "queue-depth":
				if p.depth, err = strconv.Atoi(v); err == nil && p.depth < 1 {
					err = fmt.Errorf("queue-depth must be at least 1, got %d", p.depth)
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
				p.fabOpts = append(p.fabOpts, adios.WithCodecs(ids...))
			case "extract":
				var spec *fabric.ExtractSpec
				if spec, err = parseExtractSpec(v); err == nil {
					p.fabOpts = append(p.fabOpts, adios.WithExtract(*spec))
				}
			default:
				return refuse(l, p.sim, endpointTakes)
			}
			if err != nil {
				return fmt.Errorf("deck line %d: %w", l.no, err)
			}
		}
		p.steps, p.size = 0, fmt.Sprintf("%d writers", p.np)
		p.newSource = func(c *mpi.Comm, reg *metrics.Registry, _ *metrics.Tracker) (core.Source, error) {
			return p.fab.Reader(c.Rank(), reg), nil
		}
	case "replay":
		var dir string
		for _, l := range lines {
			if len(l.fields) != 2 || l.fields[0] != "dir" || dir != "" {
				return refuse(l, p.sim, "one dir <path> line")
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
		if p.np > writers {
			return fmt.Errorf("simulation replay: -np %d is more readers than the %d writers whose blocks %s holds", p.np, writers, dir)
		}
		p.steps, p.size = 0, fmt.Sprintf("%d writers", writers)
		p.newSource = func(c *mpi.Comm, reg *metrics.Registry, _ *metrics.Tracker) (core.Source, error) {
			return iosim.NewReplay(c, reg, dir, steps, writers, p.frun.IOPlan()), nil
		}
	default:
		return fmt.Errorf("deck line %d: unknown simulation %q (want oscillator, phasta, leslie, nyx, endpoint or replay)", simLine, p.sim)
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

// Check builds the configuration once on throwaway goroutine ranks — so
// that an attribute a factory rejects is one refusal on every transport,
// with no worker spawned — refuses an endpoint on a transport that spreads
// its reader group over processes, and holds the fault schedule to one
// rule: every domain in it was taken by something that can fire it (mpi by
// the world and io by the block files, always; world by a wire transport;
// fabric by a configured flexpath writer, which took the schedule's fabric
// plan while Check built it).
func (p *Plan) Check() error {
	if p.cfg != nil {
		err := mpi.Run(p.np, func(c *mpi.Comm) error {
			b := core.NewBridge(c, nil, nil)
			b.Faults = p.frun
			return p.cfg.Configure(b)
		})
		if err != nil {
			return err
		}
	}
	if p.sim == "endpoint" && p.transport == "tcp" {
		return fmt.Errorf("simulation endpoint serves its reader group from one process; use -transport proc or loopback")
	}
	if p.frun == nil {
		return nil
	}
	taken := map[string]bool{"mpi": true, "io": true, "world": p.transport != "proc", "fabric": p.frun.FabricTaken()}
	for _, f := range p.frun.Schedule.Faults {
		if !taken[f.Domain] {
			return fmt.Errorf("-faults: this run cannot deliver %s faults: %s", f.Domain, undeliverable[f.Domain])
		}
	}
	return nil
}

// Faults is the plan's started fault schedule, nil without one: what every
// rank's bridge and source inject, and what fired.
func (p *Plan) Faults() *faultline.Run { return p.frun }

// Open binds what the deck serves beyond its ranks, in the process that
// hosts rank 0 and only once Check passed: an endpoint's staging listener
// (its address is Stdout's first line) and a live line's viewer port.
func (p *Plan) Open() error {
	if p.sim == "endpoint" {
		var err error
		if p.fab, err = adios.ListenFabric("tcp", p.listen, p.np, p.np, p.depth, p.fabOpts...); err != nil {
			return err
		}
		// The writers' endpoint attribute; scripts and tests parse this line.
		fmt.Fprintf(p.stdout, "fabric: listening on %s\n", p.fab.Addr())
	}
	if p.live != "" {
		lis, err := fabric.Listen("tcp", p.live)
		if err != nil {
			return err
		}
		p.hub = live.NewHub()
		p.srv = live.Serve(lis, p.hub)
		fmt.Fprintf(p.stderr, "live: serving viewers on %s\n", p.srv.Addr())
	}
	return nil
}

// Addr is an opened endpoint's staging address, what its writers dial.
func (p *Plan) Addr() string { return p.fab.Addr() }

// Close ends what Open bound, with its counters on Stderr.
func (p *Plan) Close() error {
	var err error
	if p.fab != nil {
		err = p.fab.Close()
		// What the negotiated codec or extract bought: logical vs wire bytes.
		fmt.Fprintf(p.stderr, "fabric: %s\n", p.fab.Stats().Summary())
	}
	if p.hub != nil {
		fmt.Fprintf(p.stderr, "live: %d frames published, %d viewers attached at exit\n", p.hub.Frames(), p.hub.Viewers())
		if cerr := p.srv.Close(); err == nil {
			err = cerr
		}
		p.hub.Close()
	}
	return err
}

// Ranks is every rank this process hosted in its last Run or Worker, by
// rank; a rank that failed before its source existed is nil.
func (p *Plan) Ranks() []*Rank { return p.ranks }

// host adapts a per-rank body to the world's rank function: it builds the
// rank's registry, tracker and source, then runs body.
func (p *Plan) host(body func(*Rank) error) func(*mpi.Comm) error {
	return func(c *mpi.Comm) error {
		r := &Rank{Comm: c, Registry: metrics.NewRegistry(c.Rank()), Memory: metrics.NewTracker()}
		var err error
		r.Registry.Time("sim::initialize", 0, func() { r.Source, err = p.newSource(c, r.Registry, r.Memory) })
		if err != nil {
			return err
		}
		r.Startup = r.Memory.Current()
		p.ranks[c.Rank()] = r
		return body(r)
	}
}

// Run hosts every rank of the plan in this process — goroutine ranks on
// proc, a loopback world otherwise; a tcp world's ranks are Worker calls,
// one per process — and returns the ranks' errors: one per rank from a
// world, the first from goroutine ranks. body is the rank's loop: Drive,
// or a caller's own over the rank's source.
func (p *Plan) Run(body func(*Rank) error) []error {
	p.ranks = make([]*Rank, p.np)
	if p.transport == "proc" {
		var opts []mpi.Option
		if f := p.frun.NewMPIPlan(); f != nil {
			opts = append(opts, mpi.WithFaults(f))
		}
		return []error{mpi.Run(p.np, p.host(body), opts...)}
	}
	return world.Launch(p.np, p.world("loopback"), p.host(body))
}

// Worker is rank rank of a tcp world this process joins through the
// registry at registry: join, Drive, say goodbye. Rank 0 opens and closes
// what the deck serves.
func (p *Plan) Worker(rank int, id uint64, registry string) error {
	p.ranks = make([]*Rank, p.np)
	cfg := p.world("tcp")
	cfg.ID, cfg.Rank, cfg.Size, cfg.Registry = id, rank, p.np, registry
	var err error
	if rank == 0 {
		err = p.Open()
	}
	var w *world.World
	if err == nil {
		w, err = world.Join(cfg)
	}
	if err == nil {
		err = w.Run(p.host(p.Drive))
		if cerr := w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := p.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Drive is a rank's bridge loop: the source driving the bridge, which runs
// whatever the configuration names (configured under "sensei::initialize",
// the loop under "total"). Only rank 0 writes to Stdout, and only what is
// deterministic in (np, deck, config) — transport must never show through.
func (p *Plan) Drive(r *Rank) error {
	c, reg := r.Comm, r.Registry
	bridge := core.NewBridge(c, reg, r.Memory)
	bridge.Faults = p.frun
	if hub := p.hub; hub != nil {
		bridge.Publish = func(step, w, h int, png []byte) {
			hub.Publish(live.Frame{Step: step, Width: w, Height: h, PNG: png})
		}
	}
	if p.cfg != nil {
		var err error
		reg.Time("sensei::initialize", 0, func() { err = p.cfg.Configure(bridge) })
		if err != nil {
			return err
		}
	}
	total := reg.Timer("total")
	total.Start()
	steps, err := bridge.Drive(r.Source)
	if err != nil {
		return err
	}
	total.Stop()

	tot, err := metrics.Summarize(c, reg, "total")
	if err != nil {
		return err
	}
	hw, err := metrics.SumHighWater(c, r.Memory)
	if err != nil {
		return err
	}
	if c.Rank() != 0 {
		return nil
	}
	fmt.Fprintf(p.stdout, "%s: %d ranks, %s, %d steps, %d analyses\n",
		p.sim, c.Size(), p.size, steps, bridge.AnalysisCount())
	bridge.Report(p.stdout)
	fmt.Fprintf(p.stderr, "time to solution: %s (max over ranks)\n", metrics.FormatSeconds(tot.Max))
	fmt.Fprintf(p.stderr, "memory high-water (sum over ranks): %s\n", metrics.FormatBytes(hw))
	if p.verbose {
		for _, name := range reg.TimerNames() {
			t := reg.Timer(name)
			fmt.Fprintf(p.stderr, "  %-28s total %-12s calls %d\n", name,
				metrics.FormatSeconds(t.Total().Seconds()), t.Count())
		}
	}
	return nil
}

// world is the placement every rank of a wire world shares; Launch and
// Worker fill in the rest. Nil plans stay nil interfaces: a fault-free world
// takes the fault-free send path.
func (p *Plan) world(network string) world.Config {
	cfg := world.Config{Network: network, ID: uint64(os.Getpid()), Epoch: 1}
	if f := p.frun.NewMPIPlan(); f != nil {
		cfg.Faults = f
	}
	if f := p.frun.NewWorldPlan(); f != nil {
		cfg.Hook = f
	}
	return cfg
}
