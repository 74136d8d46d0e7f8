// BenchmarkCollectives sweeps the collective engine across communicator
// sizes P in {4, 16, 64} and payload sizes {8B, 4KiB, 256KiB, 4MiB}.
// BENCH_4.json records the sweep, next to the naive shapes the engine
// replaced (reduce+bcast Allreduce, gather+double-bcast Allgather).
package mpi

import (
	"fmt"
	"testing"
)

var benchSizes = []struct {
	name  string
	bytes int
}{
	{"8B", 8},
	{"4KiB", 4 << 10},
	{"256KiB", 256 << 10},
	{"4MiB", 4 << 20},
}

var benchRanks = []int{4, 16, 64}

// benchWorld runs body b.N times on every rank of a fresh world and reports
// per-op allocations across all ranks.
func benchWorld(b *testing.B, p int, body func(c *Comm, send, recv []float64) error, n int) {
	b.ReportAllocs()
	err := Run(p, func(c *Comm) error {
		send := make([]float64, n)
		recv := make([]float64, n)
		for i := range send {
			send[i] = float64(c.Rank()*n + i)
		}
		for iter := 0; iter < b.N; iter++ {
			if err := body(c, send, recv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * 8))
}

func BenchmarkCollectives(b *testing.B) {
	for _, p := range benchRanks {
		for _, sz := range benchSizes {
			n := sz.bytes / 8
			tag := fmt.Sprintf("p=%d/%s", p, sz.name)
			b.Run("allreduce/"+tag, func(b *testing.B) {
				benchWorld(b, p, func(c *Comm, send, recv []float64) error {
					return Allreduce(c, send, recv, OpSum)
				}, n)
			})
			b.Run("bcast/"+tag, func(b *testing.B) {
				benchWorld(b, p, func(c *Comm, send, recv []float64) error {
					return Bcast(c, send, 0)
				}, n)
			})
			// Allgather payloads are per-rank blocks: divide so the result,
			// not the contribution, has the target size.
			an := n / p
			if an == 0 {
				an = 1
			}
			b.Run("allgather/"+tag, func(b *testing.B) {
				benchWorld(b, p, func(c *Comm, send, recv []float64) error {
					_, err := Allgather(c, send[:an])
					return err
				}, n)
			})
		}
	}
}

// BenchmarkFusedMinMax measures the satellite claim directly: the fused
// OpMinMax round against the separate min + max pair every analysis step
// used to issue.
func BenchmarkFusedMinMax(b *testing.B) {
	const p = 16
	b.Run("pair", func(b *testing.B) {
		benchWorld(b, p, func(c *Comm, send, recv []float64) error {
			if err := Allreduce(c, send[:1], recv[:1], OpMin); err != nil {
				return err
			}
			return Allreduce(c, send[:1], recv[:1], OpMax)
		}, 1)
	})
	b.Run("fused", func(b *testing.B) {
		benchWorld(b, p, func(c *Comm, send, recv []float64) error {
			lo, hi := recv[:1], send[:1]
			return AllreduceMinMax(c, lo, hi)
		}, 1)
	})
}
