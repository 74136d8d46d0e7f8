// Package unreferenced exercises the unreferenced rule across two packages:
// this one is imported by no analyzed package, so its exported declarations
// are exempt, while lib is imported here and has its exported surface
// judged.
package unreferenced

import (
	"fmt"
	"io"

	"fixture/unreferenced/lib"
)

// Exported is exempt: no analyzed package imports this one.
func Exported() int {
	s := lib.New()
	var w io.Writer = new(sink)
	fmt.Fprint(w, counter(modeA+modeC))
	return s.Get() + first([]int{1})
}

func dead() {} // want unreferenced

// chainA is referenced only by chainB, which nothing references. Only
// chainB is a finding; chainA becomes one once chainB is deleted.
func chainA() int { return 1 }

func chainB() int { return chainA() } // want unreferenced

// countdown refers only to itself, which does not count.
func countdown(n int) int { // want unreferenced
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

const (
	modeA = iota
	modeB // want unreferenced
	modeC
)

// counter's String and sink's Write are never called by name; fmt.Stringer
// and io.Writer exempt them.
type counter int

func (c counter) String() string { return fmt.Sprint(int(c)) }

type sink struct{}

func (*sink) Write(p []byte) (int, error) { return len(p), nil }

// first is generic and is referenced only through its instantiation
// first[int].
func first[T any](xs []T) T { return xs[0] }

//lint:ignore unreferenced TestFixtures counts this suppression
func oracle() {}
