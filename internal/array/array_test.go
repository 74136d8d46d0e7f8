package array

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	a := New[float64]("data", 3, 5)
	if a.Tuples() != 5 || a.Components() != 3 || a.lay != AOS {
		t.Fatalf("shape: tuples=%d comps=%d layout=%v", a.Tuples(), a.Components(), a.lay)
	}
	for i := 0; i < 5; i++ {
		for c := 0; c < 3; c++ {
			if a.At(i, c) != 0 {
				t.Fatalf("not zero at (%d,%d)", i, c)
			}
		}
	}
}

func TestWrapAOSZeroCopy(t *testing.T) {
	buf := []float64{1, 2, 3, 4, 5, 6}
	a := WrapAOS("v", 2, buf)
	if a.Tuples() != 3 {
		t.Fatalf("tuples=%d", a.Tuples())
	}
	// Mutation through the wrapper is visible in the simulation buffer.
	a.Set(1, 1, 99)
	if buf[3] != 99 {
		t.Fatal("wrapper did not alias the buffer (AOS)")
	}
	// Mutation of the buffer is visible through the wrapper.
	buf[0] = -7
	if a.At(0, 0) != -7 {
		t.Fatal("buffer mutation invisible through wrapper (AOS)")
	}
}

func TestWrapSOAZeroCopy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	a := WrapSOA("v", x, y)
	if a.lay != SOA || a.Components() != 2 || a.Tuples() != 3 {
		t.Fatalf("shape wrong: %v %d %d", a.lay, a.Components(), a.Tuples())
	}
	a.Set(2, 0, 42)
	if x[2] != 42 {
		t.Fatal("wrapper did not alias plane")
	}
	y[0] = -1
	if a.At(0, 1) != -1 {
		t.Fatal("plane mutation invisible")
	}
}

func TestAOSSOAEquivalence(t *testing.T) {
	// Property: an AOS array and an SOA array filled with the same tuples
	// agree element-wise under At and Range.
	f := func(vals []float64) bool {
		n := len(vals) / 3
		if n == 0 {
			return true
		}
		vals = vals[:n*3]
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		aos := WrapAOS("a", 3, vals)
		planes := make([][]float64, 3)
		for c := range planes {
			planes[c] = make([]float64, n)
			for i := 0; i < n; i++ {
				planes[c][i] = vals[i*3+c]
			}
		}
		soa := WrapSOA("a", planes...)
		for i := 0; i < n; i++ {
			for c := 0; c < 3; c++ {
				if aos.At(i, c) != soa.At(i, c) {
					return false
				}
			}
		}
		for c := 0; c < 3; c++ {
			alo, ahi := aos.Range(c)
			slo, shi := soa.Range(c)
			if alo != slo || ahi != shi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

func TestToAOSCopies(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	soa := WrapSOA("v", x, y)
	aos := soa.ToAOS()
	if aos.lay != AOS {
		t.Fatal("not AOS")
	}
	want := []float64{1, 3, 2, 4}
	for i, w := range want {
		if aos.RawAOS()[i] != w {
			t.Fatalf("aos=%v", aos.RawAOS())
		}
	}
	// It is a copy: mutating the source must not change it.
	x[0] = 100
	if aos.At(0, 0) != 1 {
		t.Fatal("ToAOS aliased an SOA source")
	}
	// ToAOS of an AOS array returns the same object (still zero-copy).
	if aos.ToAOS() != aos {
		t.Fatal("ToAOS of AOS array should be identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := WrapAOS("v", 1, []float64{1, 2, 3})
	b := a.Clone()
	b.(*Typed[float64]).Set(0, 0, 50)
	if a.At(0, 0) != 1 {
		t.Fatal("clone aliased original")
	}
	if b.Name() != "v" || b.Tuples() != 3 {
		t.Fatalf("clone metadata wrong: %s %d", b.Name(), b.Tuples())
	}
	s := WrapSOA("s", []int32{1}, []int32{2})
	sc := s.Clone()
	sc.(*Typed[int32]).Set(0, 1, 9)
	if s.At(0, 1) != 2 {
		t.Fatal("SOA clone aliased original")
	}
}

func TestDataTypes(t *testing.T) {
	if dt := New[float64]("", 1, 1).DataType(); dt != Float64 {
		t.Fatalf("float64 -> %v", dt)
	}
	if dt := New[float32]("", 1, 1).DataType(); dt != Float32 {
		t.Fatalf("float32 -> %v", dt)
	}
	if dt := New[int64]("", 1, 1).DataType(); dt != Int64 {
		t.Fatalf("int64 -> %v", dt)
	}
	if dt := New[int32]("", 1, 1).DataType(); dt != Int32 {
		t.Fatalf("int32 -> %v", dt)
	}
	if dt := New[uint8]("", 1, 1).DataType(); dt != Uint8 {
		t.Fatalf("uint8 -> %v", dt)
	}
}

func TestByteSize(t *testing.T) {
	if n := New[float64]("", 3, 10).ByteSize(); n != 240 {
		t.Fatalf("float64 bytes=%d", n)
	}
	if n := New[uint8]("", 1, 7).ByteSize(); n != 7 {
		t.Fatalf("uint8 bytes=%d", n)
	}
}

func TestRangeMagnitude(t *testing.T) {
	a := WrapAOS("v", 2, []float64{3, 4, 0, 0, -6, 8})
	lo, hi := a.Range(-1)
	if lo != 0 || hi != 10 {
		t.Fatalf("magnitude range = [%v, %v]", lo, hi)
	}
	lo, hi = a.Range(0)
	if lo != -6 || hi != 3 {
		t.Fatalf("comp0 range = [%v, %v]", lo, hi)
	}
}

func TestRangeEmpty(t *testing.T) {
	a := New[float64]("", 1, 0)
	lo, hi := a.Range(0)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range = [%v, %v]", lo, hi)
	}
}

func TestTupleCopy(t *testing.T) {
	a := WrapSOA("v", []float64{1, 2}, []float64{3, 4}, []float64{5, 6})
	out := make([]float64, 3)
	a.Tuple(1, out)
	if out[0] != 2 || out[1] != 4 || out[2] != 6 {
		t.Fatalf("tuple=%v", out)
	}
}

func TestRawAccessors(t *testing.T) {
	aos := WrapAOS("a", 1, []float64{1})
	if aos.RawAOS() == nil || aos.RawSOA() != nil {
		t.Fatal("AOS raw accessors wrong")
	}
	soa := WrapSOA("s", []float64{1})
	if soa.RawSOA() == nil || soa.RawAOS() != nil {
		t.Fatal("SOA raw accessors wrong")
	}
}

func TestWrapAOSBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WrapAOS("v", 3, []float64{1, 2, 3, 4})
}

func TestWrapSOAMismatchedPlanesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WrapSOA("v", []float64{1, 2}, []float64{1})
}

func TestSetValueConversion(t *testing.T) {
	a := New[int32]("", 1, 1)
	a.SetValue(0, 0, 7.9)
	if a.At(0, 0) != 7 { // conversion truncates
		t.Fatalf("got %d", a.At(0, 0))
	}
}

type myFloat float64

func TestDataTypeNamedUnderlying(t *testing.T) {
	// Named types classify by underlying kind (the ~constraint).
	a := New[myFloat]("", 1, 1)
	if a.DataType() != Float64 {
		t.Fatalf("named float64 type -> %v", a.DataType())
	}
}

func TestSetNameAndString(t *testing.T) {
	a := New[float64]("old", 1, 1)
	a.SetName("new")
	if a.Name() != "new" {
		t.Fatal("rename lost")
	}
	for d, want := range map[DataType]string{
		Float64: "float64", Float32: "float32", Int64: "int64",
		Int32: "int32", Uint8: "uint8",
	} {
		if d.String() != want {
			t.Fatalf("%v != %s", d, want)
		}
	}
	if AOS.String() != "AOS" || SOA.String() != "SOA" {
		t.Fatal("layout strings")
	}
	if Float64.Size() != 8 || Uint8.Size() != 1 || Int32.Size() != 4 {
		t.Fatal("sizes")
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[float64]("", 0, 4)
}

// TestReaderAliasesAndConverts: a float64 scalar array is read where it
// lies (a write through the simulation's slice shows in the run), and any
// other element type, layout or component count reads exactly as Value.
func TestReaderAliasesAndConverts(t *testing.T) {
	sim := []float64{1, 2, 3}
	var r Reader
	r.Reset(WrapSOA("f", sim), nil)
	run := r.Values(0, 3)
	sim[1] = 42
	if run[1] != 42 || r.At(1) != 42 {
		t.Fatal("float64 run is a copy, not the simulation's memory")
	}
	if g := r.Ghosts(0, 3); len(g) != 3 || g[0]|g[1]|g[2] != 0 {
		t.Fatalf("no ghost array: ghosts %v, want zeros", g)
	}

	n := BlockLen + 3
	vec := New[float64]("v", 2, n)
	i32 := New[int32]("i", 1, n)
	ghost := New[float32]("g", 1, n)
	for i := 0; i < n; i++ {
		vec.Set(i, 0, float64(i)-0.5)
		vec.Set(i, 1, -1)
		i32.Set(i, 0, int32(3*i-700))
	}
	ghost.Set(1, 0, 0.5)
	ghost.Set(2, 0, float32(math.NaN()))
	ghost.Set(3, 0, float32(math.Copysign(0, -1)))
	for _, a := range []Array{vec, i32} {
		r.Reset(a, ghost)
		for lo := 0; lo < n; lo += BlockLen {
			hi := min(lo+BlockLen, n)
			vals, gs := r.Values(lo, hi), r.Ghosts(lo, hi)
			for i := lo; i < hi; i++ {
				if vals[i-lo] != a.Value(i, 0) || r.At(i) != a.Value(i, 0) {
					t.Fatalf("%s tuple %d: %v, Value says %v", a.Name(), i, vals[i-lo], a.Value(i, 0))
				}
				if want := ghost.Value(i, 0) != 0; (gs[i-lo] != 0) != want || (r.GhostAt(i) != 0) != want {
					t.Fatalf("ghost %d: %d, Value says %v", i, gs[i-lo], ghost.Value(i, 0))
				}
			}
		}
	}
	if got := AppendValues([]float64{7}, i32); len(got) != n+1 || got[0] != 7 || got[n] != i32.Value(n-1, 0) {
		t.Fatalf("AppendValues: %d values", len(got))
	}
}

// SetValue stores v (converted to the element type) at (i, comp).
func (a *Typed[T]) SetValue(i, comp int, v float64) { a.Set(i, comp, T(v)) }

// Tuple copies tuple i into out, which must have length >= Components.
func (a *Typed[T]) Tuple(i int, out []T) {
	if a.lay == AOS {
		copy(out, a.aos[i*a.comps:(i+1)*a.comps])
		return
	}
	for c := 0; c < a.comps; c++ {
		out[c] = a.soa[c][i]
	}
}

// ToAOS returns an AOS-layout copy of the array (or the array itself if it is
// already AOS).
func (a *Typed[T]) ToAOS() *Typed[T] {
	if a.lay == AOS {
		return a
	}
	out := New[T](a.name, a.comps, a.Tuples())
	for i := 0; i < a.Tuples(); i++ {
		for c := 0; c < a.comps; c++ {
			out.Set(i, c, a.At(i, c))
		}
	}
	return out
}
