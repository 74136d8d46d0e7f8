package adios

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/grid"
)

// encodeStepBinaryWrite is the encoder the bulk packer replaced, verbatim: one
// reflective binary.Write call per value. It is kept test-side as an
// independent oracle that the wire format is unchanged.
func encodeStepBinaryWrite(img *grid.ImageData, step int, time float64) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	put32 := func(v uint32) { _ = binary.Write(&buf, le, v) }
	put64 := func(v uint64) { _ = binary.Write(&buf, le, v) }
	putF := func(v float64) { put64(math.Float64bits(v)) }

	put32(bpMagic)
	put32(bpVersion)
	for _, e := range img.Extent {
		put64(uint64(int64(e)))
	}
	for _, o := range img.Origin {
		putF(o)
	}
	for _, s := range img.Spacing {
		putF(s)
	}
	put64(uint64(int64(step)))
	putF(time)

	var arrays []struct {
		assoc grid.Association
		a     array.Array
	}
	for _, assoc := range []grid.Association{grid.PointData, grid.CellData} {
		fd := img.Attributes(assoc)
		for i := 0; i < fd.Len(); i++ {
			arrays = append(arrays, struct {
				assoc grid.Association
				a     array.Array
			}{assoc, fd.At(i)})
		}
	}
	put32(uint32(len(arrays)))
	for _, e := range arrays {
		name := []byte(e.a.Name())
		put32(uint32(len(name)))
		buf.Write(name)
		buf.WriteByte(byte(e.assoc))
		put32(uint32(e.a.Components()))
		put64(uint64(e.a.Tuples()))
		for t := 0; t < e.a.Tuples(); t++ {
			for c := 0; c < e.a.Components(); c++ {
				putF(e.a.Value(t, c))
			}
		}
	}
	return buf.Bytes()
}

// benchImage builds a staging-representative block: one cell-data scalar
// (the oscillator field) plus a 3-component point-data vector.
func benchImage(n int) *grid.ImageData {
	img := grid.NewImageData(grid.NewExtent3D(n+1, n+1, n+1))
	cells := img.NumberOfCells()
	vals := make([]float64, cells)
	for i := range vals {
		vals[i] = math.Sin(float64(i) * 0.01)
	}
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, vals))
	pts := img.NumberOfPoints()
	vec := make([]float64, 3*pts)
	for i := range vec {
		vec[i] = float64(i%7) * 0.25
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("velocity", 3, vec))
	return img
}

// TestAppendStepMatchesBinaryWrite pins the wire format: the bulk packer
// must produce byte-identical containers to the reflective baseline it
// replaced, so old stored BP files and old peers decode unchanged.
func TestAppendStepMatchesBinaryWrite(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		img := benchImage(n)
		want := encodeStepBinaryWrite(img, 42, 1.75)
		got := EncodeStep(img, 42, 1.75)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: bulk encode differs from binary.Write baseline (len %d vs %d)", n, len(got), len(want))
		}
		// And the append path reuses the buffer without reallocating.
		buf := make([]byte, 0, len(want)+64)
		out := AppendStep(buf, img, 42, 1.75)
		if &out[0] != &buf[:1][0] {
			t.Fatalf("n=%d: AppendStep reallocated despite sufficient capacity", n)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("n=%d: AppendStep output differs from baseline", n)
		}
	}
}
