package live

import (
	"fmt"
	"testing"
)

const benchPNGBytes = 16 << 10 // a plausible 64×64 rendered-slice PNG

var viewerCounts = []int{1, 10, 100, 1000}

// BenchmarkPublish measures the publish path alone with N attached viewers
// that never drain — the simulation-side cost of having an audience. The
// acceptance criterion is flatness: within 2× from 1 to 1000 subscribers
// (BENCH_9.json records the seed hub's 9.4× degradation).
func BenchmarkPublish(b *testing.B) {
	png := pseudoPNG(1, benchPNGBytes)
	for _, n := range viewerCounts {
		b.Run(fmt.Sprintf("viewers-%d", n), func(b *testing.B) {
			h := NewHub()
			defer h.Close()
			for i := 0; i < n; i++ {
				defer h.SubscribeRef().Cancel()
			}
			b.SetBytes(benchPNGBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(Frame{Step: i, Width: 64, Height: 64, PNG: png})
			}
		})
	}
}

// BenchmarkFanout measures aggregate frame delivery: one publish fully
// drained by N viewers, each producing the wire bytes its connection would
// write. Every viewer is handed the same sealed buffer; BENCH_9.json
// records the 179× over the seed hub's per-viewer re-encode at 1000 viewers.
func BenchmarkFanout(b *testing.B) {
	png := pseudoPNG(1, benchPNGBytes)
	for _, n := range viewerCounts {
		b.Run(fmt.Sprintf("viewers-%d", n), func(b *testing.B) {
			h := NewHub()
			defer h.Close()
			subs := make([]*Subscription, n)
			for i := range subs {
				subs[i] = h.SubscribeRef()
				defer subs[i].Cancel()
			}
			var sink int
			b.SetBytes(int64(n) * benchPNGBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(Frame{Step: i, Width: 64, Height: 64, PNG: png})
				for _, sub := range subs {
					ref := sub.Next()
					sink += len(ref.Wire())
					ref.Release()
				}
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("no bytes delivered")
			}
		})
	}
}
