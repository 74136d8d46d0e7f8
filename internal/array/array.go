// Package array implements the typed data arrays of the reproduction's
// VTK-like data model.
//
// The SC16 SENSEI paper's key enabling mechanism is an enhancement to the VTK
// data model that lets multi-component arrays use arbitrary memory layouts —
// both array-of-structures (AOS, interleaved: xyzxyz...) and
// structure-of-arrays (SOA, planar: xxx... yyy... zzz...) — so that
// simulation buffers can be handed to analysis code with **zero copies**.
// This package reproduces that mechanism literally: WrapAOS and WrapSOA alias
// the caller's slices, and mutations through either view are visible through
// the other. The experiments that show "negligible overhead" depend on this
// being real aliasing, not simulated.
package array

import (
	"fmt"
	"math"
	"unsafe"
)

// DataType identifies the element type of an Array.
type DataType int

// Supported element types.
const (
	Float64 DataType = iota
	Float32
	Int64
	Int32
	Uint8
)

func (d DataType) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Int64:
		return "int64"
	case Int32:
		return "int32"
	case Uint8:
		return "uint8"
	}
	return fmt.Sprintf("DataType(%d)", int(d))
}

// Size returns the element size in bytes.
func (d DataType) Size() int64 {
	switch d {
	case Float64, Int64:
		return 8
	case Float32, Int32:
		return 4
	case Uint8:
		return 1
	}
	return 0
}

// Layout identifies the memory layout of a multi-component Array.
type Layout int

// Memory layouts.
const (
	// AOS interleaves components: t0c0 t0c1 ... t1c0 t1c1 ...
	AOS Layout = iota
	// SOA stores each component contiguously in its own plane.
	SOA
)

func (l Layout) String() string {
	if l == AOS {
		return "AOS"
	}
	return "SOA"
}

// Element constrains the element types storable in a Typed array.
type Element interface {
	~float64 | ~float32 | ~int64 | ~int32 | ~uint8
}

// Array is the layout- and type-erased view used by analysis code that does
// not care about the concrete element type. Values are exposed as float64.
type Array interface {
	// Name returns the array's name (e.g. "data", "velocity").
	Name() string
	// SetName renames the array.
	SetName(string)
	// Components returns the number of components per tuple.
	Components() int
	// Tuples returns the number of tuples.
	Tuples() int
	// ByteSize returns the total payload size in bytes.
	ByteSize() int64
	// Value returns component comp of tuple i, converted to float64.
	Value(i, comp int) float64
	// Range returns the [min, max] of component comp; if comp is negative it
	// returns the range of the L2 magnitude over all components.
	Range(comp int) (min, max float64)
	// Clone returns a deep copy with the same layout.
	Clone() Array
}

// Typed is a concrete array of element type T. It holds either an AOS buffer
// or SOA planes, in both cases possibly aliasing caller-owned memory.
type Typed[T Element] struct {
	name  string
	comps int
	lay   Layout
	aos   []T   // AOS: len == tuples*comps
	soa   [][]T // SOA: comps slices of len tuples
}

// New allocates a zero-filled AOS array.
func New[T Element](name string, comps, tuples int) *Typed[T] {
	if comps <= 0 || tuples < 0 {
		panic(fmt.Sprintf("array: invalid shape comps=%d tuples=%d", comps, tuples))
	}
	return &Typed[T]{name: name, comps: comps, lay: AOS, aos: make([]T, comps*tuples)}
}

// WrapAOS wraps an existing interleaved buffer without copying. The caller
// retains ownership; mutations are visible both ways. len(data) must be a
// multiple of comps.
func WrapAOS[T Element](name string, comps int, data []T) *Typed[T] {
	if comps <= 0 || len(data)%comps != 0 {
		panic(fmt.Sprintf("array: AOS buffer length %d not a multiple of comps %d", len(data), comps))
	}
	return &Typed[T]{name: name, comps: comps, lay: AOS, aos: data}
}

// WrapSOA wraps existing per-component planes without copying. All planes
// must have equal length.
func WrapSOA[T Element](name string, planes ...[]T) *Typed[T] {
	if len(planes) == 0 {
		panic("array: WrapSOA requires at least one plane")
	}
	n := len(planes[0])
	for i, p := range planes {
		if len(p) != n {
			panic(fmt.Sprintf("array: SOA plane %d has length %d, want %d", i, len(p), n))
		}
	}
	return &Typed[T]{name: name, comps: len(planes), lay: SOA, soa: planes}
}

// Name returns the array's name.
func (a *Typed[T]) Name() string { return a.name }

// SetName renames the array.
func (a *Typed[T]) SetName(n string) { a.name = n }

// Components returns the number of components per tuple.
func (a *Typed[T]) Components() int { return a.comps }

// Tuples returns the number of tuples.
func (a *Typed[T]) Tuples() int {
	if a.lay == AOS {
		return len(a.aos) / a.comps
	}
	return len(a.soa[0])
}

// DataType returns the element type of the array. It is derived from the
// element size and integer-ness so that named types (~float64 etc.) classify
// by their underlying kind.
func (a *Typed[T]) DataType() DataType {
	var z T
	size := unsafe.Sizeof(z)
	isInt := T(3)/T(2) == T(1) // integer division truncates
	switch {
	case size == 8 && isInt:
		return Int64
	case size == 8:
		return Float64
	case size == 4 && isInt:
		return Int32
	case size == 4:
		return Float32
	default:
		return Uint8
	}
}

// ByteSize returns the payload size in bytes.
func (a *Typed[T]) ByteSize() int64 {
	return int64(a.Tuples()) * int64(a.comps) * a.DataType().Size()
}

// At returns component comp of tuple i with no conversion.
func (a *Typed[T]) At(i, comp int) T {
	if a.lay == AOS {
		return a.aos[i*a.comps+comp]
	}
	return a.soa[comp][i]
}

// Set stores v at (i, comp).
func (a *Typed[T]) Set(i, comp int, v T) {
	if a.lay == AOS {
		a.aos[i*a.comps+comp] = v
	} else {
		a.soa[comp][i] = v
	}
}

// Value implements Array.
func (a *Typed[T]) Value(i, comp int) float64 { return float64(a.At(i, comp)) }

// RawAOS returns the underlying interleaved buffer, or nil for SOA arrays.
// The returned slice aliases the array's storage.
func (a *Typed[T]) RawAOS() []T {
	if a.lay == AOS {
		return a.aos
	}
	return nil
}

// RawSOA returns the underlying planes, or nil for AOS arrays.
func (a *Typed[T]) RawSOA() [][]T {
	if a.lay == SOA {
		return a.soa
	}
	return nil
}

// Range implements Array. For comp < 0 it returns the range of the Euclidean
// magnitude across components (used for "velocity magnitude" pseudocolors).
func (a *Typed[T]) Range(comp int) (lo, hi float64) {
	n := a.Tuples()
	if n == 0 {
		return 0, 0
	}
	val := func(i int) float64 {
		if comp >= 0 {
			return float64(a.At(i, comp))
		}
		s := 0.0
		for c := 0; c < a.comps; c++ {
			v := float64(a.At(i, c))
			s += v * v
		}
		return math.Sqrt(s)
	}
	lo = val(0)
	hi = lo
	for i := 1; i < n; i++ {
		v := val(i)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Clone implements Array: a deep copy preserving layout.
func (a *Typed[T]) Clone() Array {
	out := &Typed[T]{name: a.name, comps: a.comps, lay: a.lay}
	if a.lay == AOS {
		out.aos = make([]T, len(a.aos))
		copy(out.aos, a.aos)
	} else {
		out.soa = make([][]T, len(a.soa))
		for i, p := range a.soa {
			out.soa[i] = make([]T, len(p))
			copy(out.soa[i], p)
		}
	}
	return out
}
