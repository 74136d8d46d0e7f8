package metrics

import (
	"fmt"
	"strings"

	"gosensei/internal/mpi"
)

// RankSummary is the aggregate of one named timer across all ranks of a
// communicator: the minimum, maximum, mean, and sum of per-rank totals.
type RankSummary struct {
	Name string
	Min  float64 // seconds
	Max  float64
	Mean float64
	Sum  float64
}

// Summarize reduces the named timer across all ranks of c. Every rank must
// call Summarize with the same name; the result is valid on every rank.
func Summarize(c *mpi.Comm, r *Registry, name string) (RankSummary, error) {
	v := r.Timer(name).Total().Seconds()
	lo, hi := []float64{v}, []float64{v}
	if err := mpi.AllreduceMinMax(c, lo, hi); err != nil {
		return RankSummary{}, err
	}
	sum := make([]float64, 1)
	if err := mpi.Allreduce(c, []float64{v}, sum, mpi.OpSum); err != nil {
		return RankSummary{}, err
	}
	return RankSummary{
		Name: name,
		Min:  lo[0],
		Max:  hi[0],
		Mean: sum[0] / float64(c.Size()),
		Sum:  sum[0],
	}, nil
}

// SumHighWater reduces each rank's memory high-water mark to a global sum,
// matching the paper's "sum of high water marks from all MPI ranks" metric.
// The result is valid on every rank.
func SumHighWater(c *mpi.Comm, t *Tracker) (int64, error) {
	recv := make([]int64, 1)
	if err := mpi.Allreduce(c, []int64{t.HighWater()}, recv, mpi.OpSum); err != nil {
		return 0, err
	}
	return recv[0], nil
}

// Table is a simple column-aligned table used by the experiment harnesses to
// print paper-style rows.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; cells beyond the column count are an error caught at
// render time.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-form footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// FormatBytes renders a byte count with a binary-prefixed unit.
func FormatBytes(b int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case b >= gib:
		return fmt.Sprintf("%.2f GiB", float64(b)/gib)
	case b >= mib:
		return fmt.Sprintf("%.2f MiB", float64(b)/mib)
	case b >= kib:
		return fmt.Sprintf("%.2f KiB", float64(b)/kib)
	}
	return fmt.Sprintf("%d B", b)
}

// FormatSeconds renders a duration in seconds with sensible precision.
func FormatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1f µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	case s < 100:
		return fmt.Sprintf("%.2f s", s)
	}
	return fmt.Sprintf("%.0f s", s)
}
