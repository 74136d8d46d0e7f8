// Package experiments contains one harness per table and figure of the SC16
// SENSEI paper's evaluation. Each harness produces a metrics.Table whose
// rows come in two flavors:
//
//   - "real" rows are fully executed in this process at goroutine scale
//     (every code path — simulation, SENSEI, analyses, infrastructures,
//     compositing, PNG encoding — actually runs);
//   - "model" rows extrapolate to the paper's core counts (812 / 6,496 /
//     45,440 on Cori; up to 1,048,576 ranks on Mira) using the calibrated
//     performance model (package perfmodel) and the filesystem model
//     (package iosim).
//
// The paper's qualitative findings are asserted by this package's tests:
// SENSEI overhead is negligible, in situ beats post hoc, image size (not
// concurrency) drives rendering cost, and so on.
package experiments

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"gosensei/internal/analysis"
	"gosensei/internal/grid"
	"gosensei/internal/launch"
	"gosensei/internal/libsim"
	"gosensei/internal/machine"
	"gosensei/internal/metrics"
	"gosensei/internal/perfmodel"
)

// Configuration names the miniapp test configurations of §4.1.1.
type Configuration string

// The paper's miniapp configurations.
const (
	// Original couples the analysis by direct subroutine call, no SENSEI.
	Original Configuration = "original"
	// Baseline enables the SENSEI interface with no analysis.
	Baseline Configuration = "baseline"
	// Histogram runs the SENSEI histogram without any infrastructure.
	HistogramCfg Configuration = "histogram"
	// Autocorrelation runs the SENSEI autocorrelation directly.
	AutocorrelationCfg Configuration = "autocorrelation"
	// CatalystSlice renders a pseudocolored slice through Catalyst.
	CatalystSlice Configuration = "catalyst-slice"
	// LibsimSlice renders a pseudocolored slice through Libsim.
	LibsimSlice Configuration = "libsim-slice"
)

// AllConfigurations lists the miniapp configurations in paper order.
func AllConfigurations() []Configuration {
	return []Configuration{Original, Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice}
}

// Options tunes the harnesses. The defaults are small enough for CI; the
// cmd/experiments binary raises them.
type Options struct {
	// RealRanks is the goroutine-scale world size for the executed rows.
	RealRanks int
	// RealCells is the global cell edge for the executed rows.
	RealCells int
	// RealSteps is the time step count for the executed rows.
	RealSteps int
	// Window and KMax configure the autocorrelation.
	Window, KMax int
	// Bins configures the histogram.
	Bins int
	// ImageW, ImageH size the executed slice renders (the model rows always
	// use the paper's 1920x1080 and 1600x1600).
	ImageW, ImageH int
	// Calibration feeds the performance model; use perfmodel.Calibrate()
	// for measured rows or DefaultCalibration for deterministic output.
	Calibration perfmodel.Calibration
	// Seed drives the iosim variability stream.
	Seed int64
}

// DefaultOptions returns CI-friendly settings.
func DefaultOptions() Options {
	return Options{
		RealRanks:   4,
		RealCells:   24,
		RealSteps:   8,
		Window:      10,
		KMax:        3,
		Bins:        10,
		ImageW:      96,
		ImageH:      54,
		Calibration: perfmodel.DefaultCalibration(),
		Seed:        1,
	}
}

// Scale is one weak-scaling point of the paper's Cori study.
type Scale struct {
	Label string
	Cores int
	// CellsPerRank is the per-core subgrid volume (degrees of freedom). The
	// paper holds it flat from 1K to 6K and adds ~100K DoF per core at 45K
	// (an operational node limit forced the originally planned 50K-core
	// work onto 45,440 cores).
	CellsPerRank int
}

// PaperScales returns the 1K/6K/45K weak-scaling points; per-rank cell
// counts derive from the paper's reported per-step output sizes (2 GB at
// 812 cores, 16 GB at 6,496, 123 GB at 45,440, at 8 bytes per cell).
func PaperScales() []Scale {
	return []Scale{
		{Label: "1K", Cores: 812, CellsPerRank: 330000},
		{Label: "6K", Cores: 6496, CellsPerRank: 330000},
		{Label: "45K", Cores: 45440, CellsPerRank: 430000},
	}
}

// StepBytes returns one time step's output size at a scale.
func (s Scale) StepBytes() int64 { return int64(s.Cores) * int64(s.CellsPerRank) * 8 }

// MiniappTimings aggregates one executed run.
type MiniappTimings struct {
	Config Configuration
	Ranks  int
	// Seconds, aggregated as the max over ranks (the paper's wall-clock
	// perspective) except Sum* fields.
	SimInit      float64
	AnalysisInit float64
	SimPerStep   float64 // mean per step
	AnalysisPer  float64 // mean per step
	Finalize     float64
	Total        float64
	// Memory, summed over ranks (the paper's metric).
	MemStartup   int64
	MemHighWater int64
	// ImagesWritten counts rendered outputs (slice configurations).
	ImagesWritten int
	// SimSteps and AnalysisSteps count rank 0's executions of the
	// simulation kernel and of the analysis entry point — what two
	// configurations can be compared on exactly, unlike the seconds above.
	SimSteps, AnalysisSteps int
}

// RunMiniapp executes one configuration for real, as a launcher plan of the
// oscillator on goroutine ranks, and aggregates the plan's timers.
func RunMiniapp(cfg Configuration, opt Options) (*MiniappTimings, error) {
	var config []byte
	var host func(*launch.Rank) error
	switch cfg {
	case Original:
		host = original(opt)
	case Baseline:
		// SENSEI invoked with nothing configured: the interface's own
		// (near-zero) overhead.
	case HistogramCfg:
		config = sensei(`<analysis type="histogram" bins="%d"/>`, opt.Bins)
	case AutocorrelationCfg:
		config = sensei(`<analysis type="autocorrelation" window="%d" k-max="%d"/>`, opt.Window, opt.KMax)
	case CatalystSlice:
		config = sensei(`<analysis type="catalyst" image-width="%d" image-height="%d" slice-axis="z" slice-coord="%v"/>`,
			opt.ImageW, opt.ImageH, float64(opt.RealCells)/2)
	case LibsimSlice:
		// Libsim takes its pipeline from a session file, which every rank
		// checks at initialization.
		dir, err := os.MkdirTemp("", "gosensei-miniapp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		session, err := writeSession(dir, libsim.DefaultSliceSession("data", float64(opt.RealCells)/2))
		if err != nil {
			return nil, err
		}
		config = sensei(`<analysis type="libsim" session="%s" image-width="%d" image-height="%d"/>`, session, opt.ImageW, opt.ImageH)
	default:
		return nil, fmt.Errorf("experiments: unknown configuration %q", cfg)
	}
	ranks, err := runPlan(launch.Request{Config: config, NP: opt.RealRanks, Cells: opt.RealCells, Steps: opt.RealSteps}, host)
	if err != nil {
		return nil, err
	}
	steps := float64(opt.RealSteps)
	r0 := ranks[0].Registry
	out := &MiniappTimings{
		Config: cfg, Ranks: opt.RealRanks,
		SimInit:       maxOver(ranks, "sim::initialize"),
		AnalysisInit:  maxOver(ranks, "sensei::initialize", "catalyst::initialize", "libsim::initialize"),
		SimPerStep:    maxOver(ranks, "sim::step") / steps,
		AnalysisPer:   maxOver(ranks, "sensei::execute") / steps,
		Finalize:      maxOver(ranks, "sensei::finalize"),
		Total:         maxOver(ranks, "total"),
		ImagesWritten: r0.Timer("catalyst::png").Count() + r0.Timer("libsim::png").Count(),
		SimSteps:      r0.Timer("sim::step").Count(),
		AnalysisSteps: r0.Timer("sensei::execute").Count(),
	}
	for _, r := range ranks {
		out.MemStartup += r.Startup
		out.MemHighWater += r.Memory.HighWater()
	}
	return out, nil
}

// original is the paper's no-SENSEI contrast, which no bridge can host: the
// plan's simulation steps, and each step calls the autocorrelation directly,
// as a subroutine — timed under the bridge's names, so that both rows
// aggregate alike.
func original(opt Options) func(*launch.Rank) error {
	return func(r *launch.Rank) error {
		a := analysis.NewAutocorrelation(r.Comm, "data", grid.CellData, opt.Window, opt.KMax)
		a.Memory = r.Memory
		total := r.Registry.Timer("total")
		total.Start()
		for {
			d, err := r.Source.Next()
			if err != nil {
				return err
			}
			if d == nil {
				break
			}
			r.Registry.Time("sensei::execute", d.TimeStep(), func() { _, err = a.Execute(d) })
			if err != nil {
				return err
			}
			if err := d.ReleaseData(); err != nil {
				return err
			}
		}
		var err error
		r.Registry.Time("sensei::finalize", 0, func() { err = a.Finalize() })
		total.Stop()
		return err
	}
}

// sensei is a SENSEI configuration of the analysis elements format names.
func sensei(format string, args ...any) []byte {
	return []byte("<sensei>" + fmt.Sprintf(format, args...) + "</sensei>")
}

// runPlan runs a launcher request that serves nothing beyond its ranks (no
// endpoint, no live line) on goroutine ranks, its output discarded — the
// plan's bridge loop, or host over each rank's source when host is set —
// and returns every rank's instrumentation.
func runPlan(req launch.Request, host func(*launch.Rank) error) ([]*launch.Rank, error) {
	req.Transport = "proc"
	p, err := launch.Load(req)
	if err != nil {
		return nil, err
	}
	if host == nil {
		host = p.Drive
	}
	err = errors.Join(p.Run(host)...)
	return p.Ranks(), err
}

// maxOver is the largest over ranks of one rank's summed totals of the named
// timers, in seconds: the paper's wall-clock view of a phase.
func maxOver(ranks []*launch.Rank, names ...string) float64 {
	return slices.Max(totals(ranks, names...))
}

// totals is each rank's summed totals of the named timers, in seconds.
func totals(ranks []*launch.Rank, names ...string) []float64 {
	out := make([]float64, len(ranks))
	for i, r := range ranks {
		for _, n := range names {
			out[i] += r.Registry.Timer(n).Total().Seconds()
		}
	}
	return out
}

// models builds per-machine performance models from the options.
func models(opt Options) (cori, mira, titan *perfmodel.Model) {
	return perfmodel.New(machine.Cori(), opt.Calibration),
		perfmodel.New(machine.Mira(), opt.Calibration),
		perfmodel.New(machine.Titan(), opt.Calibration)
}

// fmtS renders seconds compactly for table cells.
func fmtS(s float64) string { return metrics.FormatSeconds(s) }

// fmtB renders bytes compactly for table cells.
func fmtB(b int64) string { return metrics.FormatBytes(b) }
