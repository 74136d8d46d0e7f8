package iosim

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"gosensei/internal/array"
	"gosensei/internal/faultline"
	"gosensei/internal/grid"
)

// blockHeader is the self-describing metadata of one block file.
type blockHeader struct {
	Magic   string
	Version int
	Extent  grid.Extent
	Origin  [3]float64
	Spacing [3]float64
	Step    int
	Time    float64
}

const (
	blockMagic   = "gosensei-block"
	blockVersion = 1
)

// blockArray is the serialized form of one attribute array.
type blockArray struct {
	Name   string
	Assoc  int // grid.Association
	Comps  int
	Values []float64 // AOS order
}

// blockFile is the gob payload: the real "VTK multi-file" format of this
// reproduction. Every rank writes one blockFile per step.
type blockFile struct {
	Header blockHeader
	Arrays []blockArray
}

// BlockPath names the file for one (step, rank) pair under dir.
func BlockPath(dir string, step, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("step%05d_rank%05d.blk", step, rank))
}

// WriteBlock serializes an image-data block with all its attributes.
func WriteBlock(w io.Writer, img *grid.ImageData, step int, time float64) error {
	bf := blockFile{
		Header: blockHeader{
			Magic:   blockMagic,
			Version: blockVersion,
			Extent:  img.Extent,
			Origin:  img.Origin,
			Spacing: img.Spacing,
			Step:    step,
			Time:    time,
		},
	}
	for _, assoc := range []grid.Association{grid.PointData, grid.CellData} {
		fd := img.Attributes(assoc)
		for i := 0; i < fd.Len(); i++ {
			a := fd.At(i)
			ba := blockArray{Name: a.Name(), Assoc: int(assoc), Comps: a.Components()}
			ba.Values = make([]float64, a.Tuples()*a.Components())
			for t := 0; t < a.Tuples(); t++ {
				for c := 0; c < a.Components(); c++ {
					ba.Values[t*a.Components()+c] = a.Value(t, c)
				}
			}
			bf.Arrays = append(bf.Arrays, ba)
		}
	}
	return gob.NewEncoder(w).Encode(&bf)
}

// ReadBlock deserializes a block file back into image data.
func ReadBlock(r io.Reader) (*grid.ImageData, int, float64, error) {
	var bf blockFile
	if err := gob.NewDecoder(r).Decode(&bf); err != nil {
		return nil, 0, 0, fmt.Errorf("iosim: decode block: %w", err)
	}
	if bf.Header.Magic != blockMagic {
		return nil, 0, 0, fmt.Errorf("iosim: not a block file (magic %q)", bf.Header.Magic)
	}
	if bf.Header.Version != blockVersion {
		return nil, 0, 0, fmt.Errorf("iosim: unsupported block version %d", bf.Header.Version)
	}
	img := grid.NewImageData(bf.Header.Extent)
	img.Origin = bf.Header.Origin
	img.Spacing = bf.Header.Spacing
	for _, ba := range bf.Arrays {
		a := array.WrapAOS(ba.Name, ba.Comps, ba.Values)
		img.Attributes(grid.Association(ba.Assoc)).Add(a)
	}
	return img, bf.Header.Step, bf.Header.Time, nil
}

// WriteBlockFile writes a block to its canonical path, creating dir. Each
// attempt first asks faults (nil injects nothing): an injected ENOSPC is
// retried up to maxBlockAttempts times before the error is surfaced, an
// fsync spike stalls the attempt; real filesystem errors surface
// immediately.
func WriteBlockFile(dir string, rank int, img *grid.ImageData, step int, time float64, faults FaultInjector) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("iosim: %w", err)
	}
	path := BlockPath(dir, step, rank)
	var lastErr error
	for attempt := 0; attempt < maxBlockAttempts; attempt++ {
		if faults != nil {
			act := faults.BlockWrite(rank)
			if act.Delay > 0 {
				sleepFor(act.Delay)
			}
			if act.ENOSPC {
				lastErr = fmt.Errorf("iosim: write %s: %w", path, ErrNoSpace)
				continue
			}
		}
		return writeBlockFileOnce(path, img, step, time)
	}
	return 0, fmt.Errorf("iosim: giving up on %s after %d attempts: %w", path, maxBlockAttempts, lastErr)
}

// writeBlockFileOnce is one un-retried write of the block file.
func writeBlockFileOnce(path string, img *grid.ImageData, step int, time float64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("iosim: %w", err)
	}
	if err := WriteBlock(f, img, step, time); err != nil {
		_ = f.Close() // the write error wins
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return 0, err
	}
	// Close surfaces buffered write failures; the paper's I/O-cost numbers
	// count these bytes, so a lost block must be an error, not a guess.
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("iosim: %w", err)
	}
	return st.Size(), nil
}

// ReadBlockFile reads the block for one (step, rank) pair. Each attempt
// first asks faults (nil injects nothing): an injected short read (the
// attempt sees a truncated stream) is retried up to maxBlockAttempts times;
// real errors surface immediately.
func ReadBlockFile(dir string, step, rank int, faults FaultInjector) (*grid.ImageData, int, float64, error) {
	path := BlockPath(dir, step, rank)
	var lastErr error
	for attempt := 0; attempt < maxBlockAttempts; attempt++ {
		var act faultline.FaultAction
		if faults != nil {
			act = faults.BlockRead(rank)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("iosim: %w", err)
		}
		if act.ShortRead {
			// Serve this attempt from half the file: the gob stream ends
			// mid-value and the decode error drives the retry.
			st, serr := f.Stat()
			if serr != nil {
				_ = f.Close()
				return nil, 0, 0, fmt.Errorf("iosim: %w", serr)
			}
			_, _, _, derr := ReadBlock(io.LimitReader(f, st.Size()/2))
			_ = f.Close()
			if derr == nil {
				derr = fmt.Errorf("iosim: short read of %s decoded cleanly", path)
			}
			lastErr = fmt.Errorf("iosim: injected short read of %s: %w", path, derr)
			continue
		}
		img, st, tm, err := ReadBlock(f)
		_ = f.Close()
		return img, st, tm, err
	}
	return nil, 0, 0, fmt.Errorf("iosim: giving up on %s after %d attempts: %w", path, maxBlockAttempts, lastErr)
}

// ListSteps scans dir for what a post hoc replay reads: the sorted distinct
// step indices present, and the writer count — one more than the highest
// rank with a block. A step some writer has no block for is refused, naming
// the step and the rank: a replay never analyses part of a step.
func ListSteps(dir string) ([]int, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("iosim: %w", err)
	}
	have := map[[2]int]bool{}
	var steps []int
	writers := 0
	for _, e := range entries {
		var step, rank int
		if _, err := fmt.Sscanf(e.Name(), "step%05d_rank%05d.blk", &step, &rank); err != nil || e.Name() != filepath.Base(BlockPath(dir, step, rank)) {
			continue
		}
		if !slices.Contains(steps, step) {
			steps = append(steps, step)
		}
		have[[2]int{step, rank}], writers = true, max(writers, rank+1)
	}
	slices.Sort(steps)
	for _, s := range steps {
		for rank := 0; rank < writers; rank++ {
			if !have[[2]int{s, rank}] {
				return nil, 0, fmt.Errorf("iosim: step %d lacks rank %d's block %s", s, rank, BlockPath(dir, s, rank))
			}
		}
	}
	return steps, writers, nil
}

// ReadStep is the one way a stored step is read back: the blocks of writers
// first, first+stride, … below writers, as one MultiBlock, and the step's
// time. A reader rank r of P passes (r, P); a serial read-back (0, 1).
func ReadStep(dir string, step, first, stride, writers int, faults FaultInjector) (*grid.MultiBlock, float64, error) {
	mb := &grid.MultiBlock{}
	var tm float64
	for rank := first; rank < writers; rank += stride {
		img, _, t, err := ReadBlockFile(dir, step, rank, faults)
		if err != nil {
			return nil, 0, fmt.Errorf("iosim: replay step %d rank %d: %w", step, rank, err)
		}
		mb.Blocks = append(mb.Blocks, img)
		tm = t
	}
	return mb, tm, nil
}
