package adios

import (
	"encoding/binary"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/extracts"
	"gosensei/internal/grid"
)

// addTestField attaches a deterministic point-data array for fuzz seeds.
func addTestField(img *grid.ImageData, name string, comps int) {
	nx, ny, nz := img.Extent.Dims()
	vals := make([]float64, nx*ny*nz*comps)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS(name, comps, vals))
}

// FuzzDecode hammers the BP container decoder with arbitrary bytes:
// truncated, corrupt, or adversarial inputs must return errors — never
// panic — and must never allocate more than the input could plausibly
// describe (an array's values are 8 bytes each, so total decoded tuples
// are bounded by the input length).
func FuzzDecode(f *testing.F) {
	img := grid.NewImageData(grid.NewExtent3D(4, 3, 2))
	addTestField(img, "pressure", 1)
	addTestField(img, "velocity", 3)
	valid := EncodeStep(img, 7, 0.25)
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add(valid[:11])

	corrupt := append([]byte(nil), valid...)
	corrupt[40] ^= 0xFF
	f.Add(corrupt)

	// A shape whose comps*tuples*8 product wraps int64.
	overflow := append([]byte(nil), valid...)
	// magic+version+extent+origin+spacing+step+time, then array count and
	// the first array's name length/name/assoc precede its shape fields.
	off := 4 + 4 + 6*8 + 3*8 + 3*8 + 8 + 8 + 4 + 4 + len("pressure") + 1
	binary.LittleEndian.PutUint32(overflow[off:], 1<<31-1) // comps
	binary.LittleEndian.PutUint64(overflow[off+4:], 1<<62) // tuples
	f.Add(overflow)

	f.Fuzz(func(t *testing.T, data []byte) {
		img, _, _, err := DecodeStep(data)
		if err != nil {
			if img != nil {
				t.Fatalf("decode returned both data and error %v", err)
			}
			return
		}
		total := 0
		for _, assoc := range []grid.Association{grid.PointData, grid.CellData} {
			fd := img.Attributes(assoc)
			for i := 0; i < fd.Len(); i++ {
				a := fd.At(i)
				total += a.Tuples() * a.Components()
			}
		}
		if total*8 > len(data) {
			t.Fatalf("decoded %d values (%d bytes) from a %d-byte input", total, total*8, len(data))
		}
	})
}

// FuzzStagedPayloadSniff replicates Reader.Next's payload dispatch — BP
// container, histogram extract, or empty marker, classified by magic — and
// hammers it with arbitrary bytes: whatever a (possibly corrupt or
// malicious) writer stages, classification plus the chosen decoder must
// return an error or bounded data, never panic and never over-allocate.
func FuzzStagedPayloadSniff(f *testing.F) {
	img := grid.NewImageData(grid.NewExtent3D(3, 3, 2))
	addTestField(img, "data", 1)
	f.Add(EncodeStep(img, 2, 0.5))
	f.Add(extracts.AppendHistogramExtract(nil, &extracts.HistogramPartial{
		Step: 2, Time: 0.5, Min: -1, Max: 1, Counts: []int64{3, 0, 7, 1}}))
	f.Add(extracts.AppendEmptyExtract(nil, 2, 0.5))
	crossed := extracts.AppendHistogramExtract(nil, &extracts.HistogramPartial{Counts: []int64{1}})
	crossed[8] = 9 // unknown extract kind
	f.Add(crossed)
	f.Add([]byte("GOEX too short"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		if extracts.IsExtract(payload) {
			switch extracts.ExtractKind(payload) {
			case extracts.KindHistogram:
				if p, err := extracts.DecodeHistogramExtract(payload); err == nil {
					if 8*len(p.Counts) > len(payload) {
						t.Fatalf("histogram decoded %d bins from %d bytes", len(p.Counts), len(payload))
					}
				}
			case extracts.KindEmpty:
				_, _, _ = extracts.DecodeEmptyExtract(payload)
			}
			return
		}
		img, _, _, err := DecodeStep(payload)
		if err == nil && img == nil {
			t.Fatal("decode returned neither data nor error")
		}
	})
}
