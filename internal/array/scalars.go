package array

// Scalars returns the storage of a single-component array of element type T:
// in either layout that is one flat slice, aliasing the array's (and so the
// simulation's) memory. It returns nil for anything else — another element
// type, several components, an absent array.
func Scalars[T Element](a Array) []T {
	t, ok := a.(*Typed[T])
	if !ok || t.comps != 1 {
		return nil
	}
	if t.lay == SOA {
		return t.soa[0]
	}
	return t.aos
}

// BlockLen is the longest run a Reader converts at once.
const BlockLen = 512

// noGhosts is the ghost run of a dataset without a ghost array.
var noGhosts [BlockLen]uint8

// Reader hands a kernel one scalar array — component 0 of every tuple — as
// []float64 runs, and the dataset's ghost levels beside it as []uint8 runs,
// so that a kernel keeps one loop body whatever the element type and layout.
// A values run aliases the array when it is a single-component
// Typed[float64]; otherwise it is converted into the reader's block buffer
// and holds exactly what Value returns. A ghost run aliases a
// single-component Typed[uint8] and otherwise holds 1 where Value is
// non-zero, 0 elsewhere (always 0 without a ghost array). Runs are read-only
// and at most BlockLen long; a converted run is valid until the next call
// of the same kind. A Reader is a few KiB and meant to live on its kernel's
// stack, one per goroutine.
type Reader struct {
	vals, ghost Array
	f64         []float64 // vals' storage when it aliases
	u8          []uint8   // ghost's storage when it aliases
	vbuf        [BlockLen]float64
	gbuf        [BlockLen]uint8
}

// Reset points the reader at a values array and its ghost array (nil: no
// ghosts).
func (r *Reader) Reset(vals, ghost Array) {
	r.vals, r.ghost = vals, ghost
	r.f64, r.u8 = Scalars[float64](vals), Scalars[uint8](ghost)
}

// Values returns the values of tuples [lo, hi), hi-lo <= BlockLen.
func (r *Reader) Values(lo, hi int) []float64 {
	if r.f64 != nil {
		return r.f64[lo:hi:hi]
	}
	dst := r.vbuf[:hi-lo]
	switch {
	case widen(dst, Scalars[float32](r.vals), lo):
	case widen(dst, Scalars[int64](r.vals), lo):
	case widen(dst, Scalars[int32](r.vals), lo):
	case widen(dst, Scalars[uint8](r.vals), lo):
	default:
		for i := range dst {
			dst[i] = r.vals.Value(lo+i, 0)
		}
	}
	return dst
}

// Ghosts returns the ghost levels of tuples [lo, hi), hi-lo <= BlockLen.
func (r *Reader) Ghosts(lo, hi int) []uint8 {
	switch {
	case r.u8 != nil:
		return r.u8[lo:hi:hi]
	case r.ghost == nil:
		return noGhosts[: hi-lo : hi-lo]
	}
	dst := r.gbuf[:hi-lo]
	for i := range dst {
		dst[i] = 0
		if r.ghost.Value(lo+i, 0) != 0 {
			dst[i] = 1
		}
	}
	return dst
}

// At returns the value of tuple i: the random-access form of Values, for
// kernels that gather rather than stream.
func (r *Reader) At(i int) float64 {
	if r.f64 != nil {
		return r.f64[i]
	}
	return r.Values(i, i+1)[0]
}

// GhostAt returns the ghost level of tuple i, as Ghosts would.
func (r *Reader) GhostAt(i int) uint8 {
	if r.u8 != nil {
		return r.u8[i]
	}
	return r.Ghosts(i, i+1)[0]
}

// widen converts src[lo:lo+len(dst)] into dst and reports true, or reports
// false for a nil src (the array is not of that element type).
func widen[T Element](dst []float64, src []T, lo int) bool {
	if src == nil {
		return false
	}
	for i, v := range src[lo : lo+len(dst)] {
		dst[i] = float64(v)
	}
	return true
}

// AppendValues appends component 0 of every tuple of a, as Value returns
// it, to dst.
func AppendValues(dst []float64, a Array) []float64 {
	var r Reader
	r.Reset(a, nil)
	for lo, n := 0, a.Tuples(); lo < n; lo += BlockLen {
		dst = append(dst, r.Values(lo, min(lo+BlockLen, n))...)
	}
	return dst
}
