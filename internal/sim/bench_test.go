package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/ue"
)

// BenchmarkServeTraffic is one scale-up serving phase: n UEs placed on
// FLAT the way the scenario layer places them, 1 s of on-off traffic at
// 100 kb/s per UE, 10 ms TTI stride. Building the world is untimed.
func BenchmarkServeTraffic(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("ues=%d", n), func(b *testing.B) {
			surf := terrain.ByName("FLAT", 1)
			area := surf.Bounds().Inset(surf.Bounds().Width() * 0.08)
			minSep := min(15, math.Sqrt(area.Area()/float64(4*n)))
			ues := ue.PlaceRandomOpen(n, area, surf.IsOpen, minSep, rand.New(rand.NewSource(1)))
			w, err := New(Config{Terrain: surf, Seed: 1, FastRanging: true}, ues)
			if err != nil {
				b.Fatal(err)
			}
			spec := traffic.Spec{Model: traffic.ModelOnOff, RateBps: 1e5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.ServeTraffic(1, 10, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
