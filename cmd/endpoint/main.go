// Command endpoint is the analysis executable of the paper's §4.1.4
// two-executable ADIOS/FlexPath deployment: it serves the staging fabric on
// TCP, 1:1 paired with the simulation's ranks like the paper's hyperthread
// co-scheduling on Cori, and runs the analyses a SENSEI XML configuration
// names on every staged step. The simulation executable is gosensei-run with
// a configuration holding an adios transport="flexpath" element that points
// here:
//
//	endpoint -listen 127.0.0.1:9917 -ranks 4 -config configs/endpoint-histogram.xml   # terminal 1
//	gosensei-run -np 4 -steps 10 -config configs/intransit-writer.xml                 # terminal 2
//
// The groups talk real TCP — framed, checksummed, credit flow controlled.
// The deployment survives an endpoint restart mid-run: writers buffer
// unacknowledged steps (bounded by -queue-depth, which the writer's depth
// attribute must match), redial with backoff inside their retry-window, and
// retransmit. -kill-after simulates the failure for testing.
//
// The endpoint can negotiate bandwidth reduction with the writers: -codec
// delta XOR-deltas each step against the previous one and DEFLATEs the
// result, and -extract histogram:data:10 ships only per-writer histogram
// partials instead of full containers. Either way the analysis output stays
// bit-identical to raw staging; the "data bytes ... logical / ... wire" line
// in the fabric summary shows what the negotiation bought.
//
//	endpoint -listen 127.0.0.1:9917 -codec delta -extract histogram:data:10 -config configs/endpoint-histogram.xml
//
// Stdout carries the bound address, first, and then what the analyses report
// (the same lines gosensei-run prints for the same analyses in situ);
// timings and the fabric summary go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gosensei/internal/adios"
	_ "gosensei/internal/analysis"
	_ "gosensei/internal/catalyst"
	"gosensei/internal/core"
	_ "gosensei/internal/extracts"
	"gosensei/internal/fabric"
	_ "gosensei/internal/glean"
	"gosensei/internal/grid"
	_ "gosensei/internal/iosim"
	_ "gosensei/internal/libsim"
	"gosensei/internal/live"
	"gosensei/internal/metrics"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "serve the staging fabric on tcp host:port (port 0: the OS picks; the bound address is the first line of stdout)")
		ranks     = flag.Int("ranks", 4, "endpoint group size, equal to the simulation's -np")
		depth     = flag.Int("queue-depth", 1, "FlexPath staging queue depth")
		config    = flag.String("config", "", "SENSEI analysis configuration XML run on every staged step")
		codec     = flag.String("codec", "", "wire codec preference, comma separated: raw | flate | delta (default raw)")
		extract   = flag.String("extract", "", "ask writers for a reduced product instead of full containers: histogram:<array>:<bins> | slice:<axis>:<coord>:<array>")
		killAfter = flag.Int("kill-after", 0, "exit(3) after this many executed steps (failure injection)")
		liveAddr  = flag.String("live", "", "serve the frames configured catalyst/libsim analyses render to live wire viewers on tcp host:port")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (everything is a flag)", flag.Arg(0)))
	}
	if *config == "" {
		fatal(fmt.Errorf("-config is required: the analyses to run on the staged steps"))
	}
	doc, err := os.ReadFile(*config)
	if err != nil {
		fatal(err)
	}
	cfg, err := core.ParseConfig(doc)
	if err != nil {
		fatal(err)
	}

	var opts []adios.FabricOption
	if *codec != "" {
		var ids []uint8
		for _, name := range strings.Split(*codec, ",") {
			id, err := fabric.ParseCodec(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			ids = append(ids, id)
		}
		opts = append(opts, adios.WithCodecs(ids...))
	}
	if *extract != "" {
		spec, err := parseExtractSpec(*extract)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, adios.WithExtract(*spec))
	}

	// The live hub hangs off whatever the configuration renders — the
	// paper's "connect the ParaView GUI to the running endpoint".
	var hub *live.Hub
	var srv *live.Server
	if *liveAddr != "" {
		lis, err := fabric.Listen("tcp", *liveAddr)
		if err != nil {
			fatal(err)
		}
		hub = live.NewHub()
		srv = live.Serve(lis, hub)
		fmt.Fprintf(os.Stderr, "live: serving viewers on %s\n", srv.Addr())
	}

	f, err := adios.ListenFabric("tcp", *listen, *ranks, *ranks, *depth, opts...)
	if err != nil {
		fatal(err)
	}
	// The bound address — the writer's endpoint attribute; scripts and the
	// smoke tests parse this line.
	fmt.Printf("fabric: listening on %s\n", f.Addr())
	var root *core.Bridge
	res, err := adios.RunEndpoint(f, func(b *core.Bridge) error {
		if b.Comm.Rank() == 0 {
			root = b
		}
		if hub != nil {
			b.Publish = func(step, w, h int, png []byte) {
				hub.Publish(live.Frame{Step: step, Width: w, Height: h, PNG: png})
			}
		}
		if err := cfg.Configure(b); err != nil {
			return err
		}
		// Failure injection: die after the configured number of executed
		// steps, before RunEndpoint releases them — the writers must
		// retransmit to a restarted endpoint.
		if *killAfter > 0 {
			b.AddAnalysis("failure-injection", &killer{after: *killAfter})
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	root.Report(os.Stdout)
	fmt.Fprintf(os.Stderr, "flexpath: %d writer/%d endpoint ranks, %d steps staged\n", *ranks, *ranks, res.Steps)
	reg := res.Registries[0]
	fmt.Fprintf(os.Stderr, "endpoint init: %s, decode total: %s\n",
		metrics.FormatSeconds(reg.Timer("endpoint::initialize").Total().Seconds()),
		metrics.FormatSeconds(reg.Timer("endpoint::decode").Total().Seconds()))
	// The bytes-on-wire odometer: logical vs wire data bytes shows what the
	// negotiated codec or extract bought.
	fmt.Fprintf(os.Stderr, "fabric: %s\n", f.Stats().Summary())
	if srv != nil {
		fmt.Fprintf(os.Stderr, "live: %d frames published, %d viewers attached at exit\n", hub.Frames(), hub.Viewers())
		if err := srv.Close(); err != nil {
			fatal(err)
		}
		hub.Close()
	}
}

// parseExtractSpec turns the -extract flag into the negotiated wire spec.
// Extracts are computed over cell data, what the miniapp produces.
func parseExtractSpec(s string) (*fabric.ExtractSpec, error) {
	parts := strings.Split(s, ":")
	bad := func() error {
		return fmt.Errorf("bad -extract %q: want histogram:<array>:<bins> or slice:<axis>:<coord>:<array>", s)
	}
	switch parts[0] {
	case "histogram":
		if len(parts) != 3 {
			return nil, bad()
		}
		bins, err := strconv.Atoi(parts[2])
		if err != nil || bins <= 0 {
			return nil, bad()
		}
		return &fabric.ExtractSpec{
			Kind:  fabric.ExtractHistogram,
			Assoc: uint8(grid.CellData),
			Bins:  uint32(bins),
			Array: parts[1],
		}, nil
	case "slice":
		if len(parts) != 4 {
			return nil, bad()
		}
		axis, err := strconv.Atoi(parts[1])
		if err != nil || axis < 0 || axis > 2 {
			return nil, bad()
		}
		coord, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, bad()
		}
		return &fabric.ExtractSpec{
			Kind:  fabric.ExtractSlice,
			Assoc: uint8(grid.CellData),
			Axis:  uint32(axis),
			Coord: coord,
			Array: parts[3],
		}, nil
	}
	return nil, bad()
}

// killer is the failure-injection analysis: it rides after the configured
// analyses in the bridge, so the step's analysis ran but its credits were
// not yet released when the process dies.
type killer struct{ after, seen int }

// Execute implements core.AnalysisAdaptor.
func (k *killer) Execute(core.DataAdaptor) (bool, error) {
	k.seen++
	if k.seen >= k.after {
		fmt.Fprintf(os.Stderr, "endpoint: injected failure after %d steps\n", k.seen)
		os.Exit(3)
	}
	return true, nil
}

// Finalize implements core.AnalysisAdaptor.
func (k *killer) Finalize() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "endpoint:", err)
	os.Exit(1)
}
