package core

import (
	"fmt"

	"gosensei/internal/grid"
)

// Source is what drives a bridge, one step at a time: a simulation
// advancing, an in transit endpoint receiving, stored steps read back post
// hoc. Next returns the next step's data adaptor, or nil at the end.
type Source interface {
	Next() (DataAdaptor, error)
}

// Drive is the per-rank loop every run shares, whatever its source: pull a
// step, execute the analyses on it, until the source ends or an analysis
// asks to stop; then finalize. It returns the number of steps executed.
func (b *Bridge) Drive(src Source) (int, error) {
	n := 0
	for {
		d, err := src.Next()
		if err != nil {
			return n, err
		}
		if d == nil {
			break
		}
		cont, err := b.Execute(d)
		if err != nil {
			return n, err
		}
		n++
		if !cont {
			break
		}
	}
	return n, b.Finalize()
}

// StagedDataAdaptor serves a step that reached the analyses from outside a
// simulation — staged over the wire to an endpoint, or read back from
// storage. Data is the rank's one block, or a MultiBlock of every block it
// holds for the step. Release, when set, runs in ReleaseData: it returns
// what the source lent for the step (an endpoint's flow-control credits).
type StagedDataAdaptor struct {
	BaseDataAdaptor
	Data    grid.Dataset
	Release func()
}

// Mesh implements DataAdaptor.
func (s *StagedDataAdaptor) Mesh(bool) (grid.Dataset, error) { return s.Data, nil }

// AddArray implements DataAdaptor: arrays arrive attached, so this only
// validates presence.
func (s *StagedDataAdaptor) AddArray(mesh grid.Dataset, assoc grid.Association, name string) error {
	if mb, ok := mesh.(*grid.MultiBlock); ok {
		for _, b := range mb.Blocks {
			if b != nil && b.Attributes(assoc).Get(name) != nil {
				return nil
			}
		}
		return fmt.Errorf("core: staged step has no %s array %q in any block", assoc, name)
	}
	if mesh.Attributes(assoc).Get(name) == nil {
		return fmt.Errorf("core: staged step has no %s array %q", assoc, name)
	}
	return nil
}

// ArrayNames implements DataAdaptor.
func (s *StagedDataAdaptor) ArrayNames(assoc grid.Association) ([]string, error) {
	if mb, ok := s.Data.(*grid.MultiBlock); ok {
		for _, b := range mb.Blocks {
			if b != nil {
				return b.Attributes(assoc).Names(), nil
			}
		}
		return nil, nil
	}
	return s.Data.Attributes(assoc).Names(), nil
}

// ReleaseData implements DataAdaptor.
func (s *StagedDataAdaptor) ReleaseData() error {
	s.Data = nil
	if s.Release != nil {
		s.Release()
	}
	return nil
}
