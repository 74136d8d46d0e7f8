package iosim

import (
	"fmt"

	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("vtk-writer", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		dir := attrs.String("dir", "")
		if dir == "" {
			return nil, fmt.Errorf("iosim: vtk-writer needs a dir attribute")
		}
		w := NewBlockWriter(b.Comm, dir)
		w.Stride = attrs.Int("stride", 1, 1)
		w.Registry = b.Registry
		w.Faults = b.Faults.IOPlan()
		return w, nil
	})
}

// BlockWriter is the "VTK multi-file I/O" path as a SENSEI analysis
// adaptor: every rank writes its block to its own file each (strided) step
// — the traditional post hoc producer, configurable from the same XML as
// any in situ analysis. A replay deck (decks/replay.deck) reads it back.
type BlockWriter struct {
	Comm *mpi.Comm
	Dir  string
	// Stride writes every Stride-th step.
	Stride   int
	Registry *metrics.Registry
	// Faults is consulted on every block-file attempt; nil injects nothing.
	Faults FaultInjector

	execIndex int
}

// NewBlockWriter builds a writer into dir.
func NewBlockWriter(c *mpi.Comm, dir string) *BlockWriter {
	return &BlockWriter{Comm: c, Dir: dir, Stride: 1}
}

// Execute implements core.AnalysisAdaptor: attach every available array and
// write the block file.
func (w *BlockWriter) Execute(d core.DataAdaptor) (bool, error) {
	idx := w.execIndex
	w.execIndex++
	if w.Stride > 1 && idx%w.Stride != 0 {
		return true, nil
	}
	mesh, err := core.FetchAll(d)
	if err != nil {
		return false, err
	}
	img, ok := mesh.(*grid.ImageData)
	if !ok {
		return false, fmt.Errorf("iosim: vtk-writer supports structured data, got %v", mesh.Kind())
	}
	rank := w.Comm.Rank()
	w.Registry = metrics.OrNew(w.Registry, rank)
	w.Registry.Time("vtkio::write", d.TimeStep(), func() {
		_, err = WriteBlockFile(w.Dir, rank, img, d.TimeStep(), d.Time(), w.Faults)
	})
	if err != nil {
		return false, err
	}
	return true, nil
}

// Finalize implements core.AnalysisAdaptor.
func (w *BlockWriter) Finalize() error { return nil }
