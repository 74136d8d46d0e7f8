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
	"fmt"

	"gosensei/internal/analysis"
	"gosensei/internal/catalyst"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/libsim"
	"gosensei/internal/machine"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
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
	// Threads requests intra-rank parallelism in the executed miniapp
	// pipelines (0 means the process thread budget divided across ranks).
	// Results are bit-identical at any setting.
	Threads int
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

// RunMiniapp executes one configuration for real and aggregates its
// instrumentation.
func RunMiniapp(cfg Configuration, opt Options) (*MiniappTimings, error) {
	simCfg := oscillator.Config{
		GlobalCells: [3]int{opt.RealCells, opt.RealCells, opt.RealCells},
		DT:          0.05,
		Steps:       opt.RealSteps,
		Oscillators: oscillator.DefaultDeck(float64(opt.RealCells)),
		Threads:     opt.Threads,
	}
	out := &MiniappTimings{Config: cfg, Ranks: opt.RealRanks}
	var images int

	err := mpi.Run(opt.RealRanks, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry(c.Rank())
		mem := metrics.NewTracker()

		var sim *oscillator.Sim
		var err error
		reg.Time("sim::initialize", 0, func() {
			sim, err = oscillator.NewSim(c, simCfg, mem)
		})
		if err != nil {
			return err
		}
		memStartup := mem.Current()

		// Assemble the analysis side.
		bridge := core.NewBridge(c, reg, mem)
		var direct *analysis.Autocorrelation // Original: subroutine-called
		var catalystA *catalyst.SliceAdaptor
		var libsimA *libsim.Adaptor
		reg.Time("analysis::initialize", 0, func() {
			switch cfg {
			case Original:
				direct = analysis.NewAutocorrelation(c, "data", grid.CellData, opt.Window, opt.KMax)
				direct.Memory = mem
			case Baseline:
				// SENSEI enabled, nothing registered.
			case HistogramCfg:
				h := analysis.NewHistogram(c, "data", grid.CellData, opt.Bins)
				h.Memory = mem
				bridge.AddAnalysis("histogram", h)
			case AutocorrelationCfg:
				a := analysis.NewAutocorrelation(c, "data", grid.CellData, opt.Window, opt.KMax)
				a.Memory = mem
				bridge.AddAnalysis("autocorrelation", a)
			case CatalystSlice:
				catalystA = catalyst.NewSliceAdaptor(c, catalyst.Options{
					ArrayName: "data", Assoc: grid.CellData,
					Width: opt.ImageW, Height: opt.ImageH,
					SliceAxis: 2, SliceCoord: float64(opt.RealCells) / 2,
					Workers: opt.Threads,
				})
				catalystA.Registry = reg
				catalystA.Memory = mem
				err = catalystA.Initialize()
				bridge.AddAnalysis("catalyst", catalystA)
			case LibsimSlice:
				session := libsim.DefaultSliceSession("data", float64(opt.RealCells)/2)
				session.Image.Width = opt.ImageW
				session.Image.Height = opt.ImageH
				libsimA = libsim.NewAdaptor(c, session, libsim.Options{Workers: opt.Threads})
				libsimA.Registry = reg
				libsimA.Memory = mem
				err = libsimA.Initialize()
				bridge.AddAnalysis("libsim", libsimA)
			default:
				err = fmt.Errorf("experiments: unknown configuration %q", cfg)
			}
		})
		if err != nil {
			return err
		}

		adaptor := oscillator.NewDataAdaptor(sim)
		total := reg.Timer("total")
		total.Start()
		for i := 0; i < simCfg.Steps; i++ {
			reg.Time("sim::step", i, func() { err = sim.Step() })
			if err != nil {
				return err
			}
			switch cfg {
			case Original:
				// Direct subroutine coupling: same analysis, no SENSEI.
				adaptor.Update()
				reg.Time("analysis::step", i, func() {
					_, err = direct.Execute(adaptor)
				})
			case Baseline:
				// SENSEI invoked with nothing registered: the interface's
				// own (near-zero) overhead.
				adaptor.Update()
				reg.Time("analysis::step", i, func() {
					_, err = bridge.Execute(adaptor)
				})
			default:
				adaptor.Update()
				reg.Time("analysis::step", i, func() {
					_, err = bridge.Execute(adaptor)
				})
			}
			if err != nil {
				return err
			}
		}
		reg.Time("finalize", simCfg.Steps, func() {
			if cfg == Original {
				err = direct.Finalize()
			} else {
				err = bridge.Finalize()
			}
		})
		if err != nil {
			return err
		}
		total.Stop()

		// Aggregate across ranks.
		agg := func(name string) (metrics.RankSummary, error) {
			return metrics.Summarize(c, reg, name)
		}
		simInit, err := agg("sim::initialize")
		if err != nil {
			return err
		}
		anInit, err := agg("analysis::initialize")
		if err != nil {
			return err
		}
		simStep, err := agg("sim::step")
		if err != nil {
			return err
		}
		anStep, err := agg("analysis::step")
		if err != nil {
			return err
		}
		fin, err := agg("finalize")
		if err != nil {
			return err
		}
		tot, err := agg("total")
		if err != nil {
			return err
		}
		hw, err := metrics.SumHighWater(c, mem)
		if err != nil {
			return err
		}
		startup := make([]int64, 1)
		if err := mpi.Allreduce(c, []int64{memStartup}, startup, mpi.OpSum); err != nil {
			return err
		}
		if c.Rank() == 0 {
			steps := float64(simCfg.Steps)
			out.SimInit = simInit.Max
			out.AnalysisInit = anInit.Max
			out.SimPerStep = simStep.Max / steps
			out.AnalysisPer = anStep.Max / steps
			out.Finalize = fin.Max
			out.Total = tot.Max
			out.MemStartup = startup[0]
			out.MemHighWater = hw
			out.SimSteps = reg.Timer("sim::step").Count()
			out.AnalysisSteps = reg.Timer("analysis::step").Count()
			if catalystA != nil {
				images = catalystA.ImagesWritten()
			}
			if libsimA != nil {
				images = libsimA.ImagesWritten()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.ImagesWritten = images
	return out, nil
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
