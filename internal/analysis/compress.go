package analysis

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

func init() {
	core.RegisterFactory("compress", func(attrs *core.Attrs, b *core.Bridge) (core.AnalysisAdaptor, error) {
		bits := attrs.Int("bits", 12, 1)
		if bits > 32 {
			return nil, fmt.Errorf("attribute %q: %d is above the maximum of 32", "bits", bits)
		}
		c := NewCompression(b.Comm, attrs.String("array", "data"), attrs.Association(), bits)
		c.Memory = b.Memory
		return c, nil
	})
}

// CompressionResult summarizes one compressed step (valid on rank 0).
type CompressionResult struct {
	Step int
	// RawBytes and CompressedBytes are global sums.
	RawBytes        int64
	CompressedBytes int64
	// MaxError is the global maximum absolute reconstruction error.
	MaxError float64
	// Ratio is RawBytes / CompressedBytes.
	Ratio float64
}

// Compression is the "compression" member of the paper's SDMAV operation
// list: an in situ, error-bounded reduction of one scalar field. Each rank
// quantizes its local values to Bits bits over the global range (giving a
// hard error bound of half a quantization step) and deflates the quantized
// stream; the compressed extract — not the field — is what a post hoc
// workflow would store.
type Compression struct {
	Comm      *mpi.Comm
	ArrayName string
	Assoc     grid.Association
	// Bits per value after quantization (1..32).
	Bits int
	// Memory, when set, accounts for the compressed buffer.
	Memory *metrics.Tracker

	// Last holds the most recent result (rank 0; every rank when Comm nil).
	Last *CompressionResult
	// KeepPayload retains the last compressed payload, so that its bytes
	// can be inspected; off by default to stay memory-light.
	KeepPayload bool
	payload     []byte
}

// NewCompression builds the analysis.
func NewCompression(c *mpi.Comm, name string, assoc grid.Association, bits int) *Compression {
	if bits < 1 || bits > 32 {
		panic(fmt.Sprintf("analysis: compression bits must be in [1,32], got %d", bits))
	}
	return &Compression{Comm: c, ArrayName: name, Assoc: assoc, Bits: bits}
}

// Execute implements core.AnalysisAdaptor.
func (cp *Compression) Execute(d core.DataAdaptor) (bool, error) {
	mesh, err := core.FetchArray(d, cp.Assoc, cp.ArrayName)
	if err != nil {
		return false, err
	}
	sources, err := ScalarSources(mesh, cp.Assoc, cp.ArrayName)
	if err != nil {
		return false, fmt.Errorf("analysis: compression: %w", err)
	}
	// Global range (one fused min/max reduction, like the histogram).
	lo, hi := math.Inf(1), math.Inf(-1)
	var rd array.Reader
	for _, src := range sources {
		rd.Reset(src.Values, nil)
		for at, n := 0, src.Values.Tuples(); at < n; at += array.BlockLen {
			for _, v := range rd.Values(at, min(at+array.BlockLen, n)) {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
	}
	if cp.Comm != nil {
		gLo, gHi := []float64{lo}, []float64{hi}
		if err := mpi.AllreduceMinMax(cp.Comm, gLo, gHi); err != nil {
			return false, err
		}
		lo, hi = gLo[0], gHi[0]
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 0
	}

	// Quantize to Bits bits and measure the true reconstruction error.
	levels := uint64(1)<<cp.Bits - 1
	span := hi - lo
	maxErr := 0.0
	var quant bytes.Buffer
	scratch := make([]byte, 4)
	n := 0
	for _, src := range sources {
		rd.Reset(src.Values, nil)
		for at, m := 0, src.Values.Tuples(); at < m; at += array.BlockLen {
			for _, v := range rd.Values(at, min(at+array.BlockLen, m)) {
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
				quant.Write(scratch[:4]) // byte-aligned storage; deflate removes the slack
				n++
			}
		}
	}
	var compressed bytes.Buffer
	zw := zlib.NewWriter(&compressed)
	if _, err := zw.Write(quant.Bytes()); err != nil {
		return false, err
	}
	if err := zw.Close(); err != nil {
		return false, err
	}
	if cp.Memory != nil {
		cp.Memory.FreeAll("compress/payload")
		cp.Memory.Alloc("compress/payload", int64(compressed.Len()))
	}
	if cp.KeepPayload {
		cp.payload = compressed.Bytes()
	}

	raw := int64(n) * 8
	comp := int64(compressed.Len())
	res := &CompressionResult{Step: d.TimeStep(), RawBytes: raw, CompressedBytes: comp, MaxError: maxErr}
	if cp.Comm != nil {
		out := make([]int64, 2)
		if err := mpi.Allreduce(cp.Comm, []int64{raw, comp}, out, mpi.OpSum); err != nil {
			return false, err
		}
		res.RawBytes, res.CompressedBytes = out[0], out[1]
		e := make([]float64, 1)
		if err := mpi.Allreduce(cp.Comm, []float64{maxErr}, e, mpi.OpMax); err != nil {
			return false, err
		}
		res.MaxError = e[0]
	}
	if res.CompressedBytes > 0 {
		res.Ratio = float64(res.RawBytes) / float64(res.CompressedBytes)
	}
	if cp.Comm == nil || cp.Comm.Rank() == 0 {
		cp.Last = res
	}
	return true, nil
}

// Report implements core.Reporter: the last step's global sizes and error.
func (cp *Compression) Report(w io.Writer) {
	if r := cp.Last; r != nil {
		fmt.Fprintf(w, "compress %s: step=%d raw=%d compressed=%d max-error=%.17g\n",
			cp.ArrayName, r.Step, r.RawBytes, r.CompressedBytes, r.MaxError)
	}
}

// Finalize implements core.AnalysisAdaptor.
func (cp *Compression) Finalize() error {
	if cp.Memory != nil {
		cp.Memory.FreeAll("compress/payload")
	}
	return nil
}
