// Package lib is the imported half of the unreferenced fixture: a package
// some analyzed package imports, so its exported declarations are judged
// like unexported ones.
package lib

// Store is the fixture's module interface. Get is called through it; Put
// never is.
type Store interface {
	Get() int
	Put(v int) // want unreferenced
}

// Mem implements Store. Its methods are exempt although nothing calls them
// directly: each matches a method of Store, so a call through the
// interface may reach it.
type Mem struct{ v int }

func (m *Mem) Get() int { return m.v }

func (m *Mem) Put(v int) { m.v = v }

// New returns an empty Store.
func New() Store { return &Mem{} }

// OnlyTests is exported, but only lib_test.go calls it, and test files refer
// to nothing.
func OnlyTests() int { return 1 } // want unreferenced

// Unused is exported and nothing calls it.
func Unused() {} // want unreferenced
