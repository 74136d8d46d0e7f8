package experiments

import (
	"errors"
	"fmt"

	"gosensei/internal/compositing"
	"gosensei/internal/launch"
	"gosensei/internal/metrics"
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
func workloadConfig(w ADIOSWorkload, opt Options) ([]byte, error) {
	switch w {
	case ADIOSHistogram:
		return sensei(`<analysis type="histogram" bins="%d"/>`, opt.Bins), nil
	case ADIOSAutocorrelation:
		return sensei(`<analysis type="autocorrelation" window="%d" k-max="%d"/>`, opt.Window, opt.KMax), nil
	case ADIOSCatalystSlice:
		return sensei(`<analysis type="catalyst" image-width="%d" image-height="%d" slice-axis="z" slice-coord="%v"/>`,
			opt.ImageW, opt.ImageH, float64(opt.RealCells)/2), nil
	}
	return nil, fmt.Errorf("experiments: unknown ADIOS workload %q", w)
}

// ADIOSTimings aggregates one staged run: the writer side (adios::advance
// and adios::analysis of Fig. 8) and the endpoint side (init + per-step
// analysis of Fig. 9).
type ADIOSTimings struct {
	AdvancePerStep  float64
	TransferPerStep float64 // adios::analysis on the writer
	EndpointInit    float64
	EndpointPerStep float64
}

// RunADIOS executes the miniapp through the FlexPath transport with the
// chosen endpoint workload: two launcher plans in this process, as the
// paper's two executables — an endpoint deck listening on tcp loopback with
// queue depth 1, so the writer feels reader backpressure, and the oscillator
// under a flexpath writer dialing it, 1:1 paired.
func RunADIOS(w ADIOSWorkload, opt Options) (*ADIOSTimings, error) {
	cfg, err := workloadConfig(w, opt)
	if err != nil {
		return nil, err
	}
	endpoint, err := launch.Load(launch.Request{
		Deck:   []byte("simulation endpoint\nlisten 127.0.0.1:0\nqueue-depth 1\n"),
		Config: cfg, NP: opt.RealRanks, Transport: "proc", Steps: 1,
	})
	if err != nil {
		return nil, err
	}
	if err := endpoint.Open(); err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- errors.Join(endpoint.Run(endpoint.Drive)...) }()
	writers, err := runPlan(launch.Request{
		Config: sensei(`<analysis type="adios" transport="flexpath" endpoint="%s"/>`, endpoint.Addr()),
		NP:     opt.RealRanks, Cells: opt.RealCells, Steps: opt.RealSteps,
	}, nil)
	if err != nil {
		// Readers wait for every writer's end of stream, which a failed
		// writer never sends: the error returns without them.
		_ = endpoint.Close()
		return nil, fmt.Errorf("writer: %w", err)
	}
	err = <-served
	if cerr := endpoint.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("endpoint: %w", err)
	}
	readers := endpoint.Ranks()
	steps := float64(opt.RealSteps)
	return &ADIOSTimings{
		AdvancePerStep:  maxOver(writers, "adios::advance") / steps,
		TransferPerStep: maxOver(writers, "adios::analysis") / steps,
		EndpointInit:    maxOver(readers, "sim::initialize", "sensei::initialize"),
		EndpointPerStep: maxOver(readers, "endpoint::decode", "sensei::execute") / steps,
	}, nil
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
