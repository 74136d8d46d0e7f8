// Package glean implements the GLEAN-flavored infrastructure of this
// reproduction: topology-aware staging that aggregates per-rank data onto
// one aggregator rank per node before acting on it, "taking application,
// analysis, and system characteristics into account to facilitate
// simulation-time data analysis and I/O acceleration".
//
// Two modes mirror GLEAN's two roles: IOAcceleration funnels node-local
// blocks to the aggregator, which performs one (much larger, much fewer)
// write per node; NodeAnalysis runs an in situ analysis on the aggregators
// over their node's combined blocks.
package glean

import (
	"fmt"
	"io"

	"gosensei/internal/adios"
	"gosensei/internal/analysis"
	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("glean", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		mode := IOAcceleration
		if attrs.Choice("mode", "io", "io", "analysis") == 1 {
			mode = NodeAnalysis
		}
		a, err := New(b.Comm, Options{
			RanksPerNode: attrs.Int("ranks-per-node", 4, 1),
			Mode:         mode,
			OutputDir:    attrs.String("output-dir", ""),
			ArrayName:    attrs.String("array", "data"),
			Bins:         attrs.Int("bins", 10, 1),
		})
		if err != nil {
			return nil, err
		}
		a.Registry = b.Registry
		a.Memory = b.Memory
		return a, nil
	})
}

// Mode selects what aggregators do with the staged data.
type Mode int

// Aggregator behaviors.
const (
	// IOAcceleration writes one aggregated block file per node.
	IOAcceleration Mode = iota
	// NodeAnalysis runs a histogram over the node's combined blocks.
	NodeAnalysis
)

// Options configures the staging.
type Options struct {
	// RanksPerNode defines the topology: ranks [k*rpn, (k+1)*rpn) share
	// node k, and the lowest rank of each node aggregates.
	RanksPerNode int
	// Mode selects aggregator behavior.
	Mode Mode
	// OutputDir receives aggregated node files in IOAcceleration mode;
	// empty discards (benchmark configuration).
	OutputDir string
	// ArrayName and Bins configure the NodeAnalysis histogram.
	ArrayName string
	Bins      int
}

// Staging is the GLEAN analysis adaptor.
type Staging struct {
	Comm     *mpi.Comm
	Opts     Options
	Registry *metrics.Registry
	Memory   *metrics.Tracker

	nodeComm     *mpi.Comm
	aggComm      *mpi.Comm // aggregators only; nil elsewhere
	isAggregator bool

	// LastHistogram holds the most recent NodeAnalysis result on the
	// aggregator-group root (world rank 0).
	LastHistogram *analysis.HistogramResult
	// FilesWritten counts aggregated node files this rank produced.
	FilesWritten int
}

// New builds the staging topology with two communicator splits: node
// communicators (topology awareness) and the aggregator communicator.
func New(c *mpi.Comm, opts Options) (*Staging, error) {
	if opts.RanksPerNode <= 0 {
		return nil, fmt.Errorf("glean: ranks-per-node must be positive, got %d", opts.RanksPerNode)
	}
	if opts.Bins <= 0 {
		opts.Bins = 10
	}
	if opts.ArrayName == "" {
		opts.ArrayName = "data"
	}
	s := &Staging{Comm: c, Opts: opts}
	node := c.Rank() / opts.RanksPerNode
	nodeComm, err := c.Split(node, c.Rank())
	if err != nil {
		return nil, err
	}
	s.nodeComm = nodeComm
	s.isAggregator = nodeComm.Rank() == 0
	color := 1
	if s.isAggregator {
		color = 0
	}
	aggComm, err := c.Split(color, c.Rank())
	if err != nil {
		return nil, err
	}
	if s.isAggregator {
		s.aggComm = aggComm
	}
	return s, nil
}

// Execute implements core.AnalysisAdaptor: serialize the local block, gather
// node-local blocks onto the aggregator, and act per the configured mode.
func (s *Staging) Execute(d core.DataAdaptor) (bool, error) {
	mesh, err := core.FetchAll(d)
	if err != nil {
		return false, err
	}
	img, ok := mesh.(*grid.ImageData)
	if !ok {
		return false, fmt.Errorf("glean: staging supports structured data, got %v", mesh.Kind())
	}
	step := d.TimeStep()
	s.Registry = metrics.OrNew(s.Registry, s.Comm.Rank())
	payload := adios.EncodeStep(img, step, d.Time())
	if s.Memory != nil {
		s.Memory.Alloc("glean/stage-buffer", int64(len(payload)))
		defer s.Memory.Free("glean/stage-buffer", int64(len(payload)))
	}
	var parts [][]byte
	var gatherErr error
	s.Registry.Time("glean::aggregate", step, func() {
		parts, gatherErr = mpi.Gatherv(s.nodeComm, payload, 0)
	})
	if gatherErr != nil {
		return false, gatherErr
	}
	if !s.isAggregator {
		return true, nil
	}
	if s.Memory != nil {
		var total int64
		for _, p := range parts {
			total += int64(len(p))
		}
		s.Memory.Alloc("glean/node-buffer", total)
		defer s.Memory.Free("glean/node-buffer", total)
	}
	switch s.Opts.Mode {
	case IOAcceleration:
		err = s.writeNode(parts, step)
	case NodeAnalysis:
		err = s.analyzeNode(parts, step)
	}
	return true, err
}

// writeNode writes the node's blocks as one aggregated BP file.
func (s *Staging) writeNode(parts [][]byte, step int) error {
	var err error
	s.Registry.Time("glean::write", step, func() {
		if s.Opts.OutputDir == "" {
			return // benchmark: staging cost only
		}
		var joined []byte
		for _, p := range parts {
			joined = append(joined, p...)
		}
		t := &adios.BPFileTransport{Dir: s.Opts.OutputDir}
		if werr := t.WriteStep(s.Comm.Rank(), joined, step); werr != nil {
			err = werr
			return
		}
		s.FilesWritten++
	})
	return err
}

// analyzeNode rebuilds the node's blocks and histograms them together over
// the aggregator communicator.
func (s *Staging) analyzeNode(parts [][]byte, step int) error {
	var err error
	s.Registry.Time("glean::analysis", step, func() {
		mb := &grid.MultiBlock{}
		for _, p := range parts {
			img, _, _, derr := adios.DecodeStep(p)
			if derr != nil {
				err = derr
				return
			}
			mb.Blocks = append(mb.Blocks, img)
		}
		h := analysis.NewHistogram(s.aggComm, s.Opts.ArrayName, grid.CellData, s.Opts.Bins)
		res, herr := h.Compute(step, flattenBlocks(mb, s.Opts.ArrayName))
		if herr != nil {
			err = herr
			return
		}
		if s.aggComm.Rank() == 0 {
			s.LastHistogram = res
		}
	})
	return err
}

// flattenBlocks concatenates one named cell array from every block into a
// single container the histogram can consume.
func flattenBlocks(mb *grid.MultiBlock, name string) grid.Dataset {
	var vals []float64
	for _, b := range mb.Blocks {
		if b == nil {
			continue
		}
		a := b.Attributes(grid.CellData).Get(name)
		if a == nil {
			continue
		}
		vals = array.AppendValues(vals, a)
	}
	img := grid.NewImageData(grid.Extent{0, len(vals), 0, 1, 0, 1})
	img.Attributes(grid.CellData).Add(wrapScalars(name, vals))
	return img
}

func wrapScalars(name string, vals []float64) array.Array {
	return array.WrapAOS(name, 1, vals)
}

// Finalize implements core.AnalysisAdaptor.
func (s *Staging) Finalize() error { return nil }

// Report implements core.Reporter: in NodeAnalysis mode, the last step's
// histogram over every node's blocks, in the histogram analysis's format.
func (s *Staging) Report(w io.Writer) {
	if s.LastHistogram != nil {
		fmt.Fprintf(w, "glean %s: %s\n", s.Opts.ArrayName, s.LastHistogram)
	}
}
