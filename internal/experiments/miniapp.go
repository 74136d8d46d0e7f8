package experiments

import (
	"fmt"

	"gosensei/internal/compositing"
	"gosensei/internal/metrics"
)

// paperDeckOscillators sizes the modeled runs' oscillator deck. The paper
// never states its deck, but Fig. 10's write/simulation ratios (writes have
// "little impact" at 1K, ~4x at 6K, ~20x at 45K, with the write times of
// Table 1) imply a simulation cost near 0.17 s/step per rank; with the
// measured per-cell evaluation cost that corresponds to roughly ten sources.
const paperDeckOscillators = 10

// Fig3 reproduces Figure 3: time to solution for the Original
// (subroutine-called autocorrelation) versus the SENSEI Autocorrelation
// configuration, weak scaling over the paper's 1K/6K/45K points. The
// finding: no measurable difference — the generic interface is zero-copy
// and adds nothing.
func Fig3(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 3 — time to solution, Original vs SENSEI Autocorrelation (weak scaling)",
		Columns: []string{"row", "cores", "original", "sensei-autocorrelation", "delta"},
	}
	// Real rows: execute both configurations.
	orig, err := RunMiniapp(Original, opt)
	if err != nil {
		return nil, err
	}
	sensei, err := RunMiniapp(AutocorrelationCfg, opt)
	if err != nil {
		return nil, err
	}
	delta := (sensei.Total - orig.Total) / orig.Total * 100
	t.AddRow("real", fmt.Sprintf("%d", opt.RealRanks), fmtS(orig.Total), fmtS(sensei.Total), fmt.Sprintf("%+.1f%%", delta))

	// Model rows: at scale both configurations run the identical kernels;
	// the SENSEI side adds only the (measured-to-be-negligible) bridge call.
	cori, _, _ := models(opt)
	for _, s := range PaperScales() {
		sim := cori.OscillatorStepTime(s.CellsPerRank, paperDeckOscillators)
		ac := cori.AutocorrelationStepTime(s.CellsPerRank, opt.Window)
		fin := cori.AutocorrelationFinalizeTime(s.Cores, opt.Window, opt.KMax)
		steps := float64(opt.RealSteps)
		origT := steps*(sim+ac) + fin
		senseiT := origT // zero-copy: identical data path
		t.AddRow("model/"+s.Label, fmt.Sprintf("%d", s.Cores), fmtS(origT), fmtS(senseiT), "+0.0%")
	}
	t.AddNote("paper: 'no measurable difference between the two configurations' (zero-copy interface)")
	return t, nil
}

// Fig4 reproduces Figure 4: memory footprint (sum of per-rank high-water
// marks) for the same two configurations.
func Fig4(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 4 — memory footprint, Original vs SENSEI Autocorrelation",
		Columns: []string{"row", "cores", "original", "sensei-autocorrelation"},
	}
	orig, err := RunMiniapp(Original, opt)
	if err != nil {
		return nil, err
	}
	sensei, err := RunMiniapp(AutocorrelationCfg, opt)
	if err != nil {
		return nil, err
	}
	t.AddRow("real", fmt.Sprintf("%d", opt.RealRanks), fmtB(orig.MemHighWater), fmtB(sensei.MemHighWater))
	for _, s := range PaperScales() {
		perRank := int64(s.CellsPerRank)*8 + 2*int64(opt.Window)*int64(s.CellsPerRank)*8
		total := perRank * int64(s.Cores)
		t.AddRow("model/"+s.Label, fmt.Sprintf("%d", s.Cores), fmtB(total), fmtB(total))
	}
	t.AddNote("both configurations hold the grid plus two O(window x N^3) autocorrelation buffers")
	return t, nil
}

// Fig5 reproduces Figure 5: one-time costs — simulation initialize,
// analysis initialize, and finalize — for the five SENSEI-enabled
// configurations. The paper's callouts: Libsim's per-rank config check
// reaches ~3.5 s at 45K, and the autocorrelation finalize reduction is the
// only non-negligible finalize.
func Fig5(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 5 — one-time costs (sim init / analysis init / finalize)",
		Columns: []string{"row", "config", "sim-init", "analysis-init", "finalize"},
	}
	for _, cfg := range []Configuration{Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice} {
		r, err := RunMiniapp(cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg, err)
		}
		t.AddRow("real", string(cfg), fmtS(r.SimInit), fmtS(r.AnalysisInit), fmtS(r.Finalize))
	}
	cori, _, _ := models(opt)
	for _, s := range PaperScales() {
		for _, cfg := range []Configuration{Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice} {
			var anInit, fin float64
			switch cfg {
			case AutocorrelationCfg:
				fin = cori.AutocorrelationFinalizeTime(s.Cores, opt.Window, opt.KMax)
			case CatalystSlice:
				anInit = cori.CatalystInitTime(s.Cores)
			case LibsimSlice:
				anInit = cori.LibsimInitTime(s.Cores)
			}
			t.AddRow("model/"+s.Label, string(cfg), fmtS(1e-4), fmtS(anInit), fmtS(fin))
		}
	}
	t.AddNote("Libsim analysis-init grows with rank count (per-rank configuration file checks)")
	return t, nil
}

// Fig6 reproduces Figure 6: per-time-step costs, simulation versus
// analysis, for the five configurations. The simulation term weak-scales
// nearly perfectly; slice rendering carries the compositing and (on rank 0)
// PNG cost.
func Fig6(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 6 — per-time-step costs (simulation vs analysis)",
		Columns: []string{"row", "config", "simulation/step", "analysis/step"},
	}
	for _, cfg := range []Configuration{Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice} {
		r, err := RunMiniapp(cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg, err)
		}
		t.AddRow("real", string(cfg), fmtS(r.SimPerStep), fmtS(r.AnalysisPer))
	}
	cori, _, _ := models(opt)
	for _, s := range PaperScales() {
		sim := cori.OscillatorStepTime(s.CellsPerRank, paperDeckOscillators)
		for _, cfg := range []Configuration{Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice} {
			var an float64
			switch cfg {
			case Baseline:
				an = 1e-6 // the bridge call with no analyses
			case HistogramCfg:
				an = cori.HistogramStepTime(s.Cores, s.CellsPerRank, opt.Bins)
			case AutocorrelationCfg:
				an = cori.AutocorrelationStepTime(s.CellsPerRank, opt.Window)
			case CatalystSlice:
				an = cori.SliceRenderStepTime(compositing.BinarySwap, s.Cores, 1920, 1080, sliceIntersectFraction(s.Cores))
			case LibsimSlice:
				an = cori.SliceRenderStepTime(compositing.DirectSend, s.Cores, 1600, 1600, sliceIntersectFraction(s.Cores))
			}
			t.AddRow("model/"+s.Label, string(cfg), fmtS(sim), fmtS(an))
		}
	}
	t.AddNote("Catalyst renders 1920x1080 via binary swap; Libsim 1600x1600 via direct send")
	return t, nil
}

// sliceIntersectFraction estimates the fraction of ranks whose block meets
// an axis-aligned plane under a near-cubic decomposition: one process layer
// out of the axis's process count.
func sliceIntersectFraction(cores int) float64 {
	// With a px x py x pz near-cubic grid, one z layer intersects: 1/pz.
	pz := 1
	for pz*pz*pz <= cores {
		pz++
	}
	return 1 / float64(pz-1)
}

// Fig7 reproduces Figure 7: startup executable footprint versus high-water
// memory for each configuration (summed over ranks).
func Fig7(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 7 — memory: startup footprint vs high-water mark",
		Columns: []string{"row", "config", "startup", "high-water"},
	}
	for _, cfg := range []Configuration{Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice} {
		r, err := RunMiniapp(cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", cfg, err)
		}
		t.AddRow("real", string(cfg), fmtB(r.MemStartup), fmtB(r.MemHighWater))
	}
	for _, s := range PaperScales() {
		grid := int64(s.CellsPerRank) * 8
		for _, cfg := range []Configuration{Baseline, HistogramCfg, AutocorrelationCfg, CatalystSlice, LibsimSlice} {
			high := grid
			switch cfg {
			case HistogramCfg:
				high += int64(opt.Bins) * 8
			case AutocorrelationCfg:
				high += 2 * int64(opt.Window) * int64(s.CellsPerRank) * 8
			case CatalystSlice:
				high += 1920*1080*8 + 87<<20 // framebuffer + rendering Edition
			case LibsimSlice:
				high += 1600 * 1600 * 8 // framebuffer (VisIt linked dynamically)
			}
			t.AddRow("model/"+s.Label, string(cfg), fmtB(grid*int64(s.Cores)), fmtB(high*int64(s.Cores)))
		}
	}
	t.AddNote("high-water is the sum across ranks, so it grows with scale for all phases")
	return t, nil
}
