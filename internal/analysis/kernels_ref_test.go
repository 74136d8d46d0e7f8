package analysis

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gosensei/internal/array"
	"gosensei/internal/grid"
)

// The kernels read their scalars through array.Reader. The reference loops
// below are the kernels as they stood before: one array.Array.Value call per
// element, ghosts tested with Ghost.Value(i, 0) != 0. Every kernel must
// produce the same bytes as its reference over every element type, layout,
// ghost kind and special value.

func refRange(sources []ScalarSource) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, src := range sources {
		n := src.Values.Tuples()
		for i := 0; i < n; i++ {
			if src.Ghost != nil && src.Ghost.Value(i, 0) != 0 {
				continue
			}
			v := src.Values.Value(i, 0)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 0
	}
	return lo, hi
}

func refCounts(sources []ScalarSource, lo, hi float64, bins int) []int64 {
	counts := make([]int64, bins)
	width := (hi - lo) / float64(bins)
	invWidth := 0.0
	if width > 0 {
		invWidth = 1 / width
	}
	maxBin := bins - 1
	for _, src := range sources {
		n := src.Values.Tuples()
		for i := 0; i < n; i++ {
			if src.Ghost != nil && src.Ghost.Value(i, 0) != 0 {
				continue
			}
			v := src.Values.Value(i, 0)
			b := 0
			if invWidth > 0 {
				b = int((v - lo) * invWidth)
				if b > maxBin {
					b = maxBin
				}
				if b < 0 {
					b = 0
				}
			}
			counts[b]++
		}
	}
	return counts
}

func refIndex(sources []ScalarSource, bins int) (lo, hi float64, bitmaps [][]uint64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, src := range sources {
		for i := 0; i < src.Values.Tuples(); i++ {
			if src.Ghost != nil && src.Ghost.Value(i, 0) != 0 {
				continue
			}
			v := src.Values.Value(i, 0)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 0
	}
	n := TotalTuples(sources)
	bitmaps = make([][]uint64, bins)
	for b := range bitmaps {
		bitmaps[b] = make([]uint64, (n+63)/64)
	}
	width := (hi - lo) / float64(bins)
	pos := 0
	for _, src := range sources {
		for i := 0; i < src.Values.Tuples(); i++ {
			idx := pos
			pos++
			if src.Ghost != nil && src.Ghost.Value(i, 0) != 0 {
				continue
			}
			b := 0
			if width > 0 {
				b = int((src.Values.Value(i, 0) - lo) / width)
				if b >= bins {
					b = bins - 1
				}
				if b < 0 {
					b = 0
				}
			}
			bitmaps[b][idx/64] |= 1 << (idx % 64)
		}
	}
	return lo, hi, bitmaps
}

func refCompress(t *testing.T, sources []ScalarSource, bits int) (payload []byte, maxErr float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, src := range sources {
		for i := 0; i < src.Values.Tuples(); i++ {
			v := src.Values.Value(i, 0)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 0
	}
	levels := uint64(1)<<bits - 1
	span := hi - lo
	var quant bytes.Buffer
	scratch := make([]byte, 4)
	for _, src := range sources {
		for i := 0; i < src.Values.Tuples(); i++ {
			v := src.Values.Value(i, 0)
			var q uint64
			if span > 0 {
				q = uint64(math.Round((v - lo) / span * float64(levels)))
			}
			recon := lo
			if levels > 0 {
				recon = lo + float64(q)/float64(levels)*span
			}
			if e := math.Abs(recon - v); e > maxErr {
				maxErr = e
			}
			binary.LittleEndian.PutUint32(scratch, uint32(q))
			quant.Write(scratch[:4])
		}
	}
	var compressed bytes.Buffer
	zw := zlib.NewWriter(&compressed)
	if _, err := zw.Write(quant.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return compressed.Bytes(), maxErr
}

// refAutocorrelation is the parent's per-delay passes over one step.
type refAutocorrelation struct {
	window, head, steps int
	buf, corr           [][]float64
}

func (ac *refAutocorrelation) execute(sources []ScalarSource) {
	n := TotalTuples(sources)
	if ac.buf == nil {
		for i := 0; i < ac.window; i++ {
			ac.buf = append(ac.buf, make([]float64, n))
			ac.corr = append(ac.corr, make([]float64, n))
		}
	}
	maxDelay := min(ac.steps, ac.window)
	for delay := 1; delay <= maxDelay; delay++ {
		hist := ac.buf[(ac.head-delay+ac.window*2)%ac.window]
		dst := ac.corr[delay-1]
		off := 0
		for _, src := range sources {
			for i := 0; i < src.Values.Tuples(); i++ {
				dst[off+i] += src.Values.Value(i, 0) * hist[off+i]
			}
			off += src.Values.Tuples()
		}
	}
	slot := ac.buf[ac.head]
	off := 0
	for _, src := range sources {
		for i := 0; i < src.Values.Tuples(); i++ {
			slot[off+i] = src.Values.Value(i, 0)
		}
		off += src.Values.Tuples()
	}
	ac.head = (ac.head + 1) % ac.window
	ac.steps++
}

// refBlock describes one block of a reference case.
type refBlock struct {
	dtype    array.DataType
	layout   array.Layout
	comps    int
	ghost    string // "", "uint8" or "float32"
	n        int
	specials bool
}

func (b refBlock) String() string {
	s := fmt.Sprintf("%v/%v/c%d/n%d", b.dtype, b.layout, b.comps, b.n)
	if b.ghost != "" {
		s += "/ghost-" + b.ghost
	}
	if b.specials {
		s += "/specials"
	}
	return s
}

// specials are the values a float kernel must treat exactly as Value does.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310, float64(math.SmallestNonzeroFloat32)}

// wrapTyped wraps comps-interleaved values of element type T in a layout.
func wrapTyped[T array.Element](name string, layout array.Layout, comps int, vals []float64) array.Array {
	d := make([]T, len(vals))
	for i, v := range vals {
		d[i] = T(v)
	}
	if layout == array.AOS {
		return array.WrapAOS(name, comps, d)
	}
	n := len(d) / comps
	planes := make([][]T, comps)
	for c := range planes {
		planes[c] = make([]T, n)
		for i := range planes[c] {
			planes[c][i] = d[i*comps+c]
		}
	}
	return array.WrapSOA(name, planes...)
}

func wrapAs(name string, dt array.DataType, layout array.Layout, comps int, vals []float64) array.Array {
	switch dt {
	case array.Float32:
		return wrapTyped[float32](name, layout, comps, vals)
	case array.Int64:
		return wrapTyped[int64](name, layout, comps, vals)
	case array.Int32:
		return wrapTyped[int32](name, layout, comps, vals)
	case array.Uint8:
		return wrapTyped[uint8](name, layout, comps, vals)
	}
	return wrapTyped[float64](name, layout, comps, vals)
}

// block builds one image block of a reference case from a seed.
func (b refBlock) block(seed int64) *grid.ImageData {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, b.n*b.comps)
	for i := range vals {
		switch b.dtype {
		case array.Float64, array.Float32:
			vals[i] = rng.NormFloat64() * 100
		case array.Uint8:
			vals[i] = float64(rng.Intn(256))
		default:
			vals[i] = float64(rng.Int63n(4001) - 2000)
		}
	}
	if b.specials && (b.dtype == array.Float64 || b.dtype == array.Float32) {
		for k, v := range specials {
			if at := (k*131 + 7) * b.comps; at < len(vals) {
				vals[at] = v
			}
		}
	}
	mesh := grid.NewImageData(grid.Extent{0, b.n, 0, 1, 0, 1})
	mesh.Attributes(grid.CellData).Add(wrapAs("data", b.dtype, b.layout, b.comps, vals))
	if b.ghost != "" {
		g := make([]float64, b.n)
		for i := range g {
			if rng.Intn(5) == 0 {
				g[i] = 1
			}
		}
		if b.ghost == "float32" && b.n > 3 {
			g[1], g[2], g[3] = 0.5, math.NaN(), math.Copysign(0, -1)
		}
		dt := array.Uint8
		if b.ghost == "float32" {
			dt = array.Float32
		}
		mesh.Attributes(grid.CellData).Add(wrapAs(grid.GhostArrayName, dt, array.AOS, 1, g))
	}
	return mesh
}

// refCase is one dataset: a single block or a MultiBlock of several.
type refCase struct {
	name   string
	blocks []refBlock
}

func (c refCase) mesh(seed int64) grid.Dataset {
	if len(c.blocks) == 1 {
		return c.blocks[0].block(seed)
	}
	mb := &grid.MultiBlock{}
	for i, b := range c.blocks {
		mb.Blocks = append(mb.Blocks, b.block(seed*16+int64(i)))
	}
	return mb
}

// refCases is the table: every element type × layout × ghost kind, with and
// without special values, at lengths around the reader's block, plus
// multi-component and mixed multi-block sources.
func refCases() []refCase {
	var out []refCase
	for _, dt := range []array.DataType{array.Float64, array.Float32, array.Int64, array.Int32, array.Uint8} {
		for _, lay := range []array.Layout{array.AOS, array.SOA} {
			for _, gh := range []string{"", "uint8", "float32"} {
				for _, sp := range []bool{false, true} {
					if sp && dt != array.Float64 && dt != array.Float32 {
						continue
					}
					b := refBlock{dtype: dt, layout: lay, comps: 1, ghost: gh, n: 2*array.BlockLen + 77, specials: sp}
					out = append(out, refCase{name: b.String(), blocks: []refBlock{b}})
				}
			}
		}
	}
	for _, n := range []int{0, 1, array.BlockLen - 1, array.BlockLen, array.BlockLen + 1} {
		b := refBlock{dtype: array.Float32, layout: array.SOA, comps: 1, ghost: "uint8", n: n}
		out = append(out, refCase{name: b.String(), blocks: []refBlock{b}})
	}
	b := refBlock{dtype: array.Float64, layout: array.SOA, comps: 3, ghost: "uint8", n: 700, specials: true}
	out = append(out, refCase{name: b.String(), blocks: []refBlock{b}})
	out = append(out, refCase{name: "multiblock-mixed", blocks: []refBlock{
		{dtype: array.Float64, layout: array.AOS, comps: 1, n: 600, specials: true},
		{dtype: array.Int32, layout: array.SOA, comps: 1, ghost: "uint8", n: 300},
		{dtype: array.Float32, layout: array.AOS, comps: 1, ghost: "float32", n: 1100, specials: true},
		{dtype: array.Uint8, layout: array.SOA, comps: 1, n: 5},
	}})
	return out
}

// stepAdaptor serves a dataset as it is: a MultiBlock carries its arrays on
// its blocks, which is where ScalarSources looks.
type stepAdaptor struct{ meshAdaptor }

func (*stepAdaptor) AddArray(grid.Dataset, grid.Association, string) error { return nil }

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestKernelsMatchValueReference(t *testing.T) {
	for ci, c := range refCases() {
		t.Run(c.name, func(t *testing.T) {
			mesh := c.mesh(int64(ci) + 1)
			sources, err := ScalarSources(mesh, grid.CellData, "data")
			if err != nil {
				t.Fatal(err)
			}

			h := NewHistogram(nil, "data", grid.CellData, 16)
			lo, hi, err := h.GlobalRange(mesh)
			if err != nil {
				t.Fatal(err)
			}
			rlo, rhi := refRange(sources)
			if !sameFloat(lo, rlo) || !sameFloat(hi, rhi) {
				t.Fatalf("histogram range [%v %v], reference [%v %v]", lo, hi, rlo, rhi)
			}
			counts, err := h.PartialCounts(mesh, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if want := refCounts(sources, lo, hi, 16); fmt.Sprint(counts) != fmt.Sprint(want) {
				t.Fatalf("histogram counts %v, reference %v", counts, want)
			}

			ix := NewBinnedIndex(nil, "data", grid.CellData, 8)
			if _, err := ix.Execute(&stepAdaptor{meshAdaptor{mesh: mesh}}); err != nil {
				t.Fatal(err)
			}
			ilo, ihi, bitmaps := refIndex(sources, 8)
			if !sameFloat(ix.lo, ilo) || !sameFloat(ix.hi, ihi) || fmt.Sprint(ix.bitmaps) != fmt.Sprint(bitmaps) {
				t.Fatalf("index [%v %v] differs from reference [%v %v] or in its bitmaps", ix.lo, ix.hi, ilo, ihi)
			}

			cp := NewCompression(nil, "data", grid.CellData, 10)
			cp.KeepPayload = true
			if _, err := cp.Execute(&stepAdaptor{meshAdaptor{mesh: mesh}}); err != nil {
				t.Fatal(err)
			}
			payload, maxErr := refCompress(t, sources, 10)
			if !bytes.Equal(cp.payload, payload) || !sameFloat(cp.Last.MaxError, maxErr) {
				t.Fatalf("compression payload or max error %v differs from reference (%v)", cp.Last.MaxError, maxErr)
			}

			scalar := true
			for _, src := range sources {
				scalar = scalar && src.Values.Components() == 1
			}
			if !scalar {
				return // autocorrelation refuses vector arrays
			}
			// Fewer steps than the window, then past it.
			for _, w := range []struct{ window, steps int }{{5, 3}, {3, 7}} {
				ac := NewAutocorrelation(nil, "data", grid.CellData, w.window, 2)
				ref := &refAutocorrelation{window: w.window}
				for s := 0; s < w.steps; s++ {
					step := c.mesh(int64(ci)*100 + int64(s) + 1)
					if _, err := ac.Execute(&stepAdaptor{meshAdaptor{mesh: step}}); err != nil {
						t.Fatal(err)
					}
					ssrc, err := ScalarSources(step, grid.CellData, "data")
					if err != nil {
						t.Fatal(err)
					}
					ref.execute(ssrc)
				}
				for d := range ref.buf {
					if !sameFloats(ac.buf[d], ref.buf[d]) || !sameFloats(ac.corr[d], ref.corr[d]) {
						t.Fatalf("window %d after %d steps: history or correlation %d differs from reference", w.window, w.steps, d)
					}
				}
				if ac.head != ref.head || ac.steps != ref.steps {
					t.Fatalf("window %d: head/steps %d/%d, reference %d/%d", w.window, ac.head, ac.steps, ref.head, ref.steps)
				}
			}
		})
	}
}

// TestAutocorrelationStepAllocatesNothingPerCell: after its first step
// allocates the windows, a step's allocations do not grow with the field —
// the reader converts into a block on the stack, not a per-step copy.
func TestAutocorrelationStepAllocatesNothingPerCell(t *testing.T) {
	perStep := func(n int, dt array.DataType) float64 {
		b := refBlock{dtype: dt, layout: array.SOA, comps: 1, n: n}
		d := &meshAdaptor{mesh: b.block(1)}
		ac := NewAutocorrelation(nil, "data", grid.CellData, 4, 2)
		if _, err := ac.Execute(d); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ac.Execute(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, dt := range []array.DataType{array.Float64, array.Float32} {
		small, large := perStep(100, dt), perStep(100*array.BlockLen, dt)
		if large != small || large > 2 {
			t.Errorf("%v: %v allocs per step at 100 cells, %v at %d: want the same few", dt, small, large, 100*array.BlockLen)
		}
	}
}
