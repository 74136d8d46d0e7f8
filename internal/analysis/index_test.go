package analysis

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gosensei/internal/array"
	"gosensei/internal/core"
	"gosensei/internal/grid"
	"gosensei/internal/metrics"
	"gosensei/internal/mpi"
)

// The range queries below read the bitmaps Execute builds; they are the
// tests' window onto the index contents.

// popcount sums the set bits of a bitmap.
func popcount(bm []uint64) int64 {
	var n int64
	for _, w := range bm {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// binOf returns the bin containing value v.
func (ix *BinnedIndex) binOf(v float64) int {
	if ix.hi <= ix.lo {
		return 0
	}
	b := int((v - ix.lo) / (ix.hi - ix.lo) * float64(ix.Bins))
	if b < 0 {
		b = 0
	}
	if b >= ix.Bins {
		b = ix.Bins - 1
	}
	return b
}

// CountAbove answers the global range query "how many elements exceed t"
// using the index: whole bins above the threshold bin are counted by bitmap
// popcount; only the single straddling bin would need a candidate check, so
// the result is reported as [lower, upper] bounds, FastBit-style. A global
// sum reduces the local bounds; valid on every rank.
func (ix *BinnedIndex) CountAbove(t float64) (lower, upper int64, err error) {
	if !ix.built {
		return 0, 0, fmt.Errorf("analysis: index: no step indexed yet")
	}
	tb := ix.binOf(t)
	var lowerL, upperL int64
	for b := tb + 1; b < ix.Bins; b++ {
		c := popcount(ix.bitmaps[b])
		lowerL += c
		upperL += c
	}
	upperL += popcount(ix.bitmaps[tb]) // the straddling bin: candidates
	if ix.Comm == nil {
		return lowerL, upperL, nil
	}
	out := make([]int64, 2)
	if err := mpi.Allreduce(ix.Comm, []int64{lowerL, upperL}, out, mpi.OpSum); err != nil {
		return 0, 0, err
	}
	return out[0], out[1], nil
}

// LocalSelection enumerates the local element ids in bins fully above t
// (the guaranteed hits of CountAbove's lower bound).
func (ix *BinnedIndex) LocalSelection(t float64) []int {
	if !ix.built {
		return nil
	}
	var out []int
	tb := ix.binOf(t)
	for b := tb + 1; b < ix.Bins; b++ {
		for wi, w := range ix.bitmaps[b] {
			for ; w != 0; w &= w - 1 {
				bit := trailingZeros(w)
				out = append(out, wi*64+bit)
			}
		}
	}
	return out
}

func trailingZeros(w uint64) int {
	n := 0
	for w&1 == 0 {
		w >>= 1
		n++
	}
	return n
}

// IndexBytes reports the local index size — the "explorable extract" the
// post hoc side would store instead of the field itself.
func (ix *BinnedIndex) IndexBytes() int64 {
	if !ix.built {
		return 0
	}
	return int64(ix.Bins) * int64((ix.n+63)/64) * 8
}

func indexOver(t *testing.T, vals []float64, bins int) *BinnedIndex {
	t.Helper()
	ix := NewBinnedIndex(nil, "data", grid.CellData, bins)
	d := &meshAdaptor{mesh: cellMesh(vals)}
	d.SetStep(1, 0.1)
	if _, err := ix.Execute(d); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestIndexCountBoundsBracketTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	ix := indexOver(t, vals, 16)
	for _, thr := range []float64{-5, 0, 12.5, 50, 99, 105} {
		truth := int64(0)
		for _, v := range vals {
			if v > thr {
				truth++
			}
		}
		lower, upper, err := ix.CountAbove(thr)
		if err != nil {
			t.Fatal(err)
		}
		if truth < lower || truth > upper {
			t.Fatalf("t=%v: truth %d outside index bounds [%d, %d]", thr, truth, lower, upper)
		}
	}
}

func TestIndexBoundsProperty(t *testing.T) {
	f := func(seed int64, binsRaw uint8) bool {
		bins := int(binsRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		ix := NewBinnedIndex(nil, "data", grid.CellData, bins)
		d := &meshAdaptor{mesh: cellMesh(vals)}
		if _, err := ix.Execute(d); err != nil {
			return false
		}
		thr := rng.NormFloat64() * 10
		truth := int64(0)
		for _, v := range vals {
			if v > thr {
				truth++
			}
		}
		lower, upper, err := ix.CountAbove(thr)
		if err != nil {
			return false
		}
		return truth >= lower && truth <= upper && lower >= 0 && upper <= int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexLocalSelectionAreTrueHits(t *testing.T) {
	vals := []float64{1, 9, 3, 8, 2, 7}
	ix := indexOver(t, vals, 4)
	// Bins over [1,9]: width 2. Threshold 5 -> bin 2; guaranteed hits are
	// bins 3: values in [7,9].
	sel := ix.LocalSelection(5)
	for _, id := range sel {
		if vals[id] <= 5 {
			t.Fatalf("selection id %d has value %v <= threshold", id, vals[id])
		}
	}
	if len(sel) == 0 {
		t.Fatal("no guaranteed hits found")
	}
}

func TestIndexParallelCounts(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		// Rank r holds values r*10 .. r*10+4.
		vals := make([]float64, 5)
		for i := range vals {
			vals[i] = float64(c.Rank()*10 + i)
		}
		ix := NewBinnedIndex(c, "data", grid.CellData, 8)
		d := &meshAdaptor{mesh: cellMesh(vals)}
		if _, err := ix.Execute(d); err != nil {
			return err
		}
		lower, upper, err := ix.CountAbove(9.5)
		if err != nil {
			return err
		}
		// Truth: ranks 1 and 2 contribute all 10 values > 9.5.
		if lower > 10 || upper < 10 {
			t.Errorf("rank %d: bounds [%d, %d] exclude truth 10", c.Rank(), lower, upper)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexGhostsExcluded(t *testing.T) {
	mesh := cellMesh([]float64{1, 2, 100})
	gh := array.New[uint8](grid.GhostArrayName, 1, 3)
	gh.Set(2, 0, 1)
	mesh.Attributes(grid.CellData).Add(gh)
	ix := NewBinnedIndex(nil, "data", grid.CellData, 4)
	d := &meshAdaptor{mesh: mesh}
	if _, err := ix.Execute(d); err != nil {
		t.Fatal(err)
	}
	// Ghosts set no bits: at most the one non-ghost candidate (value 2, in
	// the straddling top bin) can appear in the upper bound. If the ghost's
	// 100 leaked in, upper would be 2.
	lower, upper, err := ix.CountAbove(50)
	if err != nil {
		t.Fatal(err)
	}
	if lower != 0 || upper > 1 {
		t.Fatalf("ghost cell leaked into the index: bounds [%d, %d]", lower, upper)
	}
}

func TestIndexMemoryAndRebuild(t *testing.T) {
	mem := metrics.NewTracker()
	ix := NewBinnedIndex(nil, "data", grid.CellData, 8)
	ix.Memory = mem
	d := &meshAdaptor{mesh: cellMesh(make([]float64, 100))}
	if _, err := ix.Execute(d); err != nil {
		t.Fatal(err)
	}
	want := int64(8 * ((100 + 63) / 64) * 8)
	if mem.Current() != want {
		t.Fatalf("tracked=%d want %d", mem.Current(), want)
	}
	if ix.IndexBytes() != want {
		t.Fatalf("IndexBytes=%d", ix.IndexBytes())
	}
	// Rebuilding replaces, not accumulates.
	if _, err := ix.Execute(d); err != nil {
		t.Fatal(err)
	}
	if mem.Current() != want {
		t.Fatalf("rebuild leaked: %d", mem.Current())
	}
	if err := ix.Finalize(); err != nil {
		t.Fatal(err)
	}
	if mem.Current() != 0 {
		t.Fatalf("finalize leaked: %d", mem.Current())
	}
}

func TestIndexQueryBeforeBuild(t *testing.T) {
	ix := NewBinnedIndex(nil, "data", grid.CellData, 4)
	if _, _, err := ix.CountAbove(0); err == nil {
		t.Fatal("query before build accepted")
	}
	if ix.LocalSelection(0) != nil {
		t.Fatal("selection before build")
	}
}

func TestIndexFactory(t *testing.T) {
	b := core.NewBridge(nil, nil, nil)
	doc := []byte(`<sensei><analysis type="index" array="data" bins="16"/></sensei>`)
	if err := core.ConfigureFromXML(b, doc); err != nil {
		t.Fatal(err)
	}
	if b.AnalysisCount() != 1 {
		t.Fatal("index factory missing")
	}
}
