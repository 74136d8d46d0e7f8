package experiments

import (
	"fmt"
	"sync"

	"gosensei/internal/adios"
	"gosensei/internal/compositing"
	"gosensei/internal/core"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

// ADIOSWorkload selects the endpoint analysis of the §4.1.4 study.
type ADIOSWorkload string

// The FlexPath endpoint workloads.
const (
	ADIOSHistogram       ADIOSWorkload = "histogram"
	ADIOSAutocorrelation ADIOSWorkload = "autocorrelation"
	ADIOSCatalystSlice   ADIOSWorkload = "catalyst-slice"
)

// workloadConfig is a workload's analysis as the SENSEI configuration the
// endpoint (Fig. 9) or the post hoc replay (Fig. 11) runs.
func workloadConfig(w ADIOSWorkload, opt Options) (*core.Config, error) {
	elem, ok := map[ADIOSWorkload]string{
		ADIOSHistogram:       fmt.Sprintf(`<analysis type="histogram" bins="%d"/>`, opt.Bins),
		ADIOSAutocorrelation: fmt.Sprintf(`<analysis type="autocorrelation" window="%d" k-max="%d"/>`, opt.Window, opt.KMax),
		ADIOSCatalystSlice: fmt.Sprintf(`<analysis type="catalyst" image-width="%d" image-height="%d" slice-axis="z" slice-coord="%g"/>`,
			opt.ImageW, opt.ImageH, float64(opt.RealCells)/2),
	}[w]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ADIOS workload %q", w)
	}
	return core.ParseConfig([]byte("<sensei>" + elem + "</sensei>"))
}

// ADIOSTimings aggregates one staged run: the writer side (adios::advance
// and adios::analysis of Fig. 8) and the endpoint side (init + per-step
// analysis of Fig. 9).
type ADIOSTimings struct {
	AdvancePerStep  float64
	TransferPerStep float64 // adios::analysis on the writer
	EndpointInit    float64
	EndpointPerStep float64
	WriterTotal     float64
}

// RunADIOS executes the miniapp through the FlexPath transport with the
// chosen endpoint workload, writer and endpoint as two concurrent groups
// 1:1 paired (the paper's hyperthread co-scheduling).
func RunADIOS(w ADIOSWorkload, opt Options) (*ADIOSTimings, error) {
	simCfg := oscillator.Config{
		GlobalCells: [3]int{opt.RealCells, opt.RealCells, opt.RealCells},
		DT:          0.05,
		Steps:       opt.RealSteps,
		Oscillators: oscillator.DefaultDeck(float64(opt.RealCells)),
	}
	cfg, err := workloadConfig(w, opt)
	if err != nil {
		return nil, err
	}
	fabric := adios.NewFabric(opt.RealRanks, 1)
	out := &ADIOSTimings{}

	var wg sync.WaitGroup
	var writerErr, endpointErr error
	var endpointRes *adios.EndpointResult
	writerRegs := make([]*metrics.Registry, opt.RealRanks)

	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = mpi.Run(opt.RealRanks, func(c *mpi.Comm) error {
			reg := metrics.NewRegistry(c.Rank())
			writerRegs[c.Rank()] = reg
			sim, err := oscillator.NewSim(c, simCfg, nil)
			if err != nil {
				return err
			}
			writer := adios.NewWriter(c, &adios.FlexPathTransport{Fabric: fabric})
			writer.Registry = reg
			b := core.NewBridge(c, reg, nil)
			b.AddAnalysis("adios", writer)
			d := oscillator.NewDataAdaptor(sim)
			total := reg.Timer("writer::total")
			total.Start()
			for i := 0; i < simCfg.Steps; i++ {
				if err := sim.Step(); err != nil {
					return err
				}
				d.Update()
				if _, err := b.Execute(d); err != nil {
					return err
				}
			}
			if err := b.Finalize(); err != nil {
				return err
			}
			total.Stop()
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		endpointRes, endpointErr = adios.RunEndpoint(fabric, cfg.Configure)
	}()
	wg.Wait()
	if writerErr != nil {
		return nil, fmt.Errorf("writer: %w", writerErr)
	}
	if endpointErr != nil {
		return nil, fmt.Errorf("endpoint: %w", endpointErr)
	}

	steps := float64(opt.RealSteps)
	maxOver := func(regs []*metrics.Registry, name string) float64 {
		m := 0.0
		for _, r := range regs {
			if r == nil {
				continue
			}
			if v := r.Timer(name).Total().Seconds(); v > m {
				m = v
			}
		}
		return m
	}
	out.AdvancePerStep = maxOver(writerRegs, "adios::advance") / steps
	out.TransferPerStep = maxOver(writerRegs, "adios::analysis") / steps
	out.WriterTotal = maxOver(writerRegs, "writer::total")
	out.EndpointInit = maxOver(endpointRes.Registries, "endpoint::initialize")
	perStep := maxOver(endpointRes.Registries, "endpoint::decode")
	for _, r := range endpointRes.Registries {
		for _, n := range r.TimerNames() {
			if len(n) > 10 && n[:10] == "analysis::" {
				v := r.Timer(n).Total().Seconds()
				if v/steps > 0 {
					perStep += v
				}
				break
			}
		}
	}
	out.EndpointPerStep = perStep / steps
	return out, nil
}

// Fig8 reproduces Figure 8: the writer-side costs of the FlexPath coupling —
// per-step adios::advance (metadata) and adios::analysis (transfer +
// blocking) — for the histogram endpoint.
func Fig8(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 8 — ADIOS/FlexPath writer costs (histogram endpoint)",
		Columns: []string{"row", "cores", "adios::advance/step", "adios::analysis/step"},
	}
	r, err := RunADIOS(ADIOSHistogram, opt)
	if err != nil {
		return nil, err
	}
	t.AddRow("real", fmt.Sprintf("%d", opt.RealRanks), fmtS(r.AdvancePerStep), fmtS(r.TransferPerStep))
	cori, _, _ := models(opt)
	for _, s := range PaperScales() {
		adv := cori.ADIOSAdvanceTime(s.Cores)
		xfer := cori.ADIOSTransferTime(int64(s.CellsPerRank) * 8)
		t.AddRow("model/"+s.Label, fmt.Sprintf("%d", s.Cores), fmtS(adv), fmtS(xfer))
	}
	t.AddNote("adios::analysis includes the non-zero-copy buffer and blocking while the reader catches up")
	return t, nil
}

// Fig9 reproduces Figure 9: the endpoint-side timings for the three staged
// workloads, including the reader-initialization pathology the paper saw on
// Cori (an order of magnitude worse than Titan).
func Fig9(opt Options) (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Fig. 9 — ADIOS/FlexPath endpoint timings",
		Columns: []string{"row", "workload", "endpoint-init", "analysis/step"},
	}
	for _, w := range []ADIOSWorkload{ADIOSHistogram, ADIOSAutocorrelation, ADIOSCatalystSlice} {
		r, err := RunADIOS(w, opt)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w, err)
		}
		t.AddRow("real", string(w), fmtS(r.EndpointInit), fmtS(r.EndpointPerStep))
	}
	cori, _, titan := models(opt)
	for _, s := range PaperScales() {
		for _, w := range []ADIOSWorkload{ADIOSHistogram, ADIOSAutocorrelation, ADIOSCatalystSlice} {
			var an float64
			switch w {
			case ADIOSHistogram:
				an = cori.HistogramStepTime(s.Cores, s.CellsPerRank, opt.Bins)
			case ADIOSAutocorrelation:
				an = cori.AutocorrelationStepTime(s.CellsPerRank, opt.Window)
			case ADIOSCatalystSlice:
				an = cori.SliceRenderStepTime(compositing.BinarySwap, s.Cores, 1920, 1080, sliceIntersectFraction(s.Cores))
			}
			an += cori.ADIOSTransferTime(int64(s.CellsPerRank) * 8) // decode side
			t.AddRow("model/cori/"+s.Label, string(w), fmtS(cori.FlexPathEndpointInitTime(s.Cores)), fmtS(an))
		}
	}
	// The Titan comparison row the paper highlights.
	s := PaperScales()[0]
	t.AddRow("model/titan/1K", string(ADIOSHistogram),
		fmtS(titan.FlexPathEndpointInitTime(s.Cores)),
		fmtS(titan.HistogramStepTime(s.Cores, s.CellsPerRank, opt.Bins)))
	t.AddNote("reader init on Cori is ~10x Titan (OS jitter from hyperthread co-allocation + shared interconnect)")
	return t, nil
}
