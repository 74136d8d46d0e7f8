// ADIOS staging: the paper's §4.1.4 configuration — the miniapp coupled to
// an analysis endpoint through the FlexPath-like staging transport, writer
// and endpoint groups running concurrently as the paper's two executables
// did (1:1 paired, queue depth 1 so the writer feels reader backpressure).
// The endpoint runs both a histogram and the autocorrelation; the writer
// reports the adios::advance / adios::analysis split of Fig. 8.
//
// Run:
//
//	go run ./examples/adios-staging
//
// This example stages over the in-process loopback wire. For the paper's
// literal deployment — writer and endpoint as two OS processes speaking
// the same staging protocol over TCP — run cmd/gosensei-run twice, the
// endpoint from a deck, each with a configuration file:
//
//	go run ./cmd/gosensei-run -np 4 -deck decks/endpoint.deck -config configs/endpoint-histogram.xml   # terminal 1
//	go run ./cmd/gosensei-run -np 4 -steps 10 -config configs/intransit-writer.xml                     # terminal 2
//
// The endpoint reports what the same analysis reports in situ, byte for
// byte, and it can be killed and restarted on the same port mid-run:
// writers hold unreleased steps, redial with backoff, and retransmit.
package main

import (
	"fmt"
	"log"
	"sync"

	"gosensei/internal/adios"
	"gosensei/internal/analysis"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
	"gosensei/internal/oscillator"
)

func main() {
	const (
		ranks = 4
		cells = 24
		steps = 10
	)
	fabric := adios.NewFabric(ranks, 1)
	cfg := oscillator.Config{
		GlobalCells: [3]int{cells, cells, cells},
		DT:          0.05,
		Steps:       steps,
		Oscillators: oscillator.DefaultDeck(cells),
	}

	var wg sync.WaitGroup
	var writerErr, endpointErr error
	var res *adios.EndpointResult
	var hist *analysis.Histogram
	var auto *analysis.Autocorrelation
	writerReg := metrics.NewRegistry(0)

	wg.Add(2)
	go func() { // simulation executable
		defer wg.Done()
		writerErr = mpi.Run(ranks, func(c *mpi.Comm) error {
			sim, err := oscillator.NewSim(c, cfg, nil)
			if err != nil {
				return err
			}
			w := adios.NewWriter(c, &adios.FlexPathTransport{Fabric: fabric})
			if c.Rank() == 0 {
				w.Registry = writerReg
			}
			b := core.NewBridge(c, nil, nil)
			b.AddAnalysis("adios", w)
			d := oscillator.NewDataAdaptor(sim)
			for i := 0; i < cfg.Steps; i++ {
				if err := sim.Step(); err != nil {
					return err
				}
				d.Update()
				if _, err := b.Execute(d); err != nil {
					return err
				}
			}
			return b.Finalize()
		})
	}()
	go func() { // endpoint executable
		defer wg.Done()
		res, endpointErr = adios.RunEndpoint(fabric, func(b *core.Bridge) error {
			h := analysis.NewHistogram(b.Comm, "data", grid.CellData, 10)
			a := analysis.NewAutocorrelation(b.Comm, "data", grid.CellData, 5, 3)
			if b.Comm.Rank() == 0 {
				hist, auto = h, a
			}
			b.AddAnalysis("histogram", h)
			b.AddAnalysis("autocorrelation", a)
			return nil
		})
	}()
	wg.Wait()
	if writerErr != nil {
		log.Fatal("writer:", writerErr)
	}
	if endpointErr != nil {
		log.Fatal("endpoint:", endpointErr)
	}

	fmt.Printf("staged %d steps through FlexPath (%d writer + %d endpoint ranks)\n",
		res.Steps, ranks, ranks)
	fmt.Printf("writer rank 0: adios::advance %s, adios::analysis %s (non-zero-copy + backpressure)\n",
		metrics.FormatSeconds(writerReg.Timer("adios::advance").Total().Seconds()),
		metrics.FormatSeconds(writerReg.Timer("adios::analysis").Total().Seconds()))
	if hist != nil && hist.Last != nil {
		fmt.Printf("endpoint histogram: %d values in [%.3f, %.3f]\n",
			hist.Last.Total(), hist.Last.Min, hist.Last.Max)
	}
	if auto != nil && len(auto.Top) > 0 && len(auto.Top[0]) > 0 {
		fmt.Printf("endpoint autocorrelation: top delay-1 correlation %.4f at rank %d cell %d\n",
			auto.Top[0][0].Value, auto.Top[0][0].Rank, auto.Top[0][0].Cell)
	}
}
