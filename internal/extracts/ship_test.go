package extracts

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gosensei/internal/array"
	"gosensei/internal/grid"
)

func TestHistogramExtractRoundTrip(t *testing.T) {
	p := &HistogramPartial{Step: 42, Time: 1.75, Min: -3.5, Max: 9.25,
		Counts: []int64{0, 7, 1 << 40, 3}}
	data := AppendHistogramExtract(nil, p)
	if !IsExtract(data) || ExtractKind(data) != KindHistogram {
		t.Fatalf("sniff failed: isExtract=%v kind=%d", IsExtract(data), ExtractKind(data))
	}
	got, err := DecodeHistogramExtract(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

// TestHistogramExtractProperty: seeded quick.Check that every shape of
// partial survives the wire bit-identically, including NaN-free extreme
// floats and zero counts.
func TestHistogramExtractProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(23))}
	f := func(step int32, time, lo, hi float64, raw []int64) bool {
		if len(raw) == 0 {
			raw = []int64{0}
		}
		if len(raw) > maxExtractBins {
			raw = raw[:maxExtractBins]
		}
		p := &HistogramPartial{Step: int(step), Time: time, Min: lo, Max: hi, Counts: raw}
		got, err := DecodeHistogramExtract(AppendHistogramExtract(nil, p))
		if err != nil {
			return false
		}
		// Compare by bits so NaN times/ranges still round-trip.
		if got.Step != p.Step ||
			math.Float64bits(got.Time) != math.Float64bits(p.Time) ||
			math.Float64bits(got.Min) != math.Float64bits(p.Min) ||
			math.Float64bits(got.Max) != math.Float64bits(p.Max) {
			return false
		}
		return reflect.DeepEqual(got.Counts, p.Counts)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExtractRejectsCorruption(t *testing.T) {
	valid := AppendHistogramExtract(nil, &HistogramPartial{Counts: []int64{1, 2, 3}})
	cases := map[string]func([]byte) []byte{
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version": func(b []byte) []byte { b[4] = 99; return b },
		"bad kind":    func(b []byte) []byte { b[8] = 77; return b },
		"zero bins":   func(b []byte) []byte { b[41], b[42], b[43], b[44] = 0, 0, 0, 0; return b },
		"huge bins":   func(b []byte) []byte { b[41], b[42], b[43], b[44] = 0xFF, 0xFF, 0xFF, 0xFF; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-5] },
		"oversized":   func(b []byte) []byte { return append(b, 0) },
		"header only": func(b []byte) []byte { return b[:extractHeaderSize-1] },
	}
	for name, mutate := range cases {
		b := mutate(append([]byte(nil), valid...))
		if _, err := DecodeHistogramExtract(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := DecodeHistogramExtract(valid); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
}

func TestEmptyExtractRoundTrip(t *testing.T) {
	data := AppendEmptyExtract(nil, 13, 6.5)
	if ExtractKind(data) != KindEmpty {
		t.Fatalf("kind=%d", ExtractKind(data))
	}
	step, tm, err := DecodeEmptyExtract(data)
	if err != nil || step != 13 || tm != 6.5 {
		t.Fatalf("step=%d time=%v err=%v", step, tm, err)
	}
	if _, _, err := DecodeEmptyExtract(data[:10]); err == nil {
		t.Fatal("truncated marker accepted")
	}
	// A histogram container is not an empty marker and vice versa.
	hist := AppendHistogramExtract(nil, &HistogramPartial{Counts: []int64{1}})
	if _, _, err := DecodeEmptyExtract(hist); err == nil {
		t.Fatal("histogram container accepted as empty marker")
	}
	if _, err := DecodeHistogramExtract(data); err == nil {
		t.Fatal("empty marker accepted as histogram")
	}
}

// sliceTestImage builds a 4x3x2-cell block offset from the global origin,
// with cell and point arrays whose values encode the global index — so a
// slice's values prove which elements were copied.
func sliceTestImage() *grid.ImageData {
	img := grid.NewImageData(grid.Extent{2, 6, 1, 4, 0, 2})
	img.Origin = [3]float64{0, 0, 0}
	img.Spacing = [3]float64{0.5, 1, 2}
	cx, cy, cz := img.Extent.CellDims()
	cvals := make([]float64, cx*cy*cz)
	for i := range cvals {
		cvals[i] = float64(i)
	}
	img.Attributes(grid.CellData).Add(array.WrapAOS("data", 1, cvals))
	nx, ny, nz := img.Extent.Dims()
	pvals := make([]float64, nx*ny*nz*2)
	for i := range pvals {
		pvals[i] = float64(i) * 0.25
	}
	img.Attributes(grid.PointData).Add(array.WrapAOS("uv", 2, pvals))
	return img
}

func TestSlicePlane(t *testing.T) {
	img := sliceTestImage()
	// World x of cell layer i=3 spans [1.5, 2.0) (origin 0, spacing 0.5).
	slab := SlicePlane(img, 0, 1.6)
	if slab == nil {
		t.Fatal("plane through the block returned nil")
	}
	if slab.Extent != (grid.Extent{3, 4, 1, 4, 0, 2}) {
		t.Fatalf("slab extent %v", slab.Extent)
	}
	if slab.Origin != img.Origin || slab.Spacing != img.Spacing {
		t.Fatal("geometry lost")
	}
	// Cell values: source cell (i=1 local, j, k) of a 4x3x2 cell block.
	a := slab.Attributes(grid.CellData).Get("data")
	if a == nil || a.Tuples() != 1*3*2 {
		t.Fatalf("cell slab wrong: %+v", a)
	}
	idx := 0
	for k := 0; k < 2; k++ {
		for j := 0; j < 3; j++ {
			want := float64(1 + 4*(j+3*k))
			if got := a.Value(idx, 0); got != want {
				t.Fatalf("cell (%d,%d): got %v want %v", j, k, got, want)
			}
			idx++
		}
	}
	// Point values: the slab keeps the two bounding point planes i=3,4
	// (local 1,2) of the 5x4x3 point block, both components.
	uv := slab.Attributes(grid.PointData).Get("uv")
	if uv == nil || uv.Components() != 2 || uv.Tuples() != 2*4*3 {
		t.Fatalf("point slab wrong: %+v", uv)
	}
	idx = 0
	for k := 0; k < 3; k++ {
		for j := 0; j < 4; j++ {
			for i := 1; i <= 2; i++ {
				src := i + 5*(j+4*k)
				for c := 0; c < 2; c++ {
					want := float64(src*2+c) * 0.25
					if got := uv.Value(idx, c); got != want {
						t.Fatalf("point (%d,%d,%d) comp %d: got %v want %v", i, j, k, c, got, want)
					}
				}
				idx++
			}
		}
	}

	// Planes outside the block miss: this block owns x cells [2,5], i.e.
	// world x [1.0, 3.0).
	if SlicePlane(img, 0, 0.5) != nil || SlicePlane(img, 0, 3.5) != nil {
		t.Fatal("plane outside the block did not miss")
	}
	if SlicePlane(img, 7, 0) != nil {
		t.Fatal("invalid axis accepted")
	}
	// A hit on another axis: z cell layers are [0,1], world z [0,4).
	if s := SlicePlane(img, 2, 3.9); s == nil || s.Extent != (grid.Extent{2, 6, 1, 4, 1, 2}) {
		t.Fatalf("z slice: %+v", s)
	}
}

// FuzzExtractSniff hammers the endpoint's payload-sniffing decoders with
// arbitrary bytes: whatever arrives, kind classification and both extract
// decoders must return errors on garbage — never panic — and the histogram
// decoder must not allocate past what a plausible header describes.
func FuzzExtractSniff(f *testing.F) {
	f.Add(AppendHistogramExtract(nil, &HistogramPartial{Step: 3, Time: 0.5, Min: -1, Max: 1,
		Counts: []int64{5, 0, 9}}))
	f.Add(AppendEmptyExtract(nil, 8, 2.5))
	corrupt := AppendHistogramExtract(nil, &HistogramPartial{Counts: []int64{1, 2}})
	corrupt[41] = 0xEE
	f.Add(corrupt)
	f.Add([]byte("GOEX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind := ExtractKind(data)
		p, err := DecodeHistogramExtract(data)
		if err == nil {
			if kind != KindHistogram {
				t.Fatalf("decoded a container ExtractKind classified as %d", kind)
			}
			if 8*len(p.Counts) > len(data) {
				t.Fatalf("decoded %d bins from %d bytes", len(p.Counts), len(data))
			}
		}
		if _, _, err := DecodeEmptyExtract(data); err == nil && kind != KindEmpty {
			t.Fatalf("empty marker decoded from kind %d", kind)
		}
	})
}
