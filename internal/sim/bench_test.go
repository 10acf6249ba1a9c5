package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/enb"
	"repro/internal/interference"
	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/ue"
)

// BenchmarkServeTraffic is one serving phase. The ues=n cases are the
// single UAV at scale: n UEs placed on FLAT the way the scenario layer
// places them, 1 s of on-off traffic at 100 kb/s per UE. The
// fleet-4cell case is the fleet shape of the loop, as in the benchmark
// workload of that name: 4 co-channel cells over 96 mobile UEs on
// CAMPUS, 3 s of Poisson traffic at 100 kb/s per UE, so every report
// tick refills every UE's link row and every TTI plans and commits each
// cell. fleet-4cell-static is the same fleet with Mobile false: its
// rows are filled once per phase, and its report ticks only draw
// noise and run the A3 sweep. All use a 10 ms TTI stride; building the
// world is untimed.
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
	for _, mobile := range []bool{true, false} {
		name := "fleet-4cell"
		if !mobile {
			name += "-static"
		}
		b.Run(name, func(b *testing.B) {
			surf := terrain.ByName("CAMPUS", 31)
			area := surf.Bounds().Inset(surf.Bounds().Width() * 0.08)
			ues := ue.PlaceRandomOpen(96, area, surf.IsOpen, 15, rand.New(rand.NewSource(31)))
			for _, u := range ues {
				u.Mobility = ue.NewRandomWaypoint(area, 3, 0)
			}
			m, err := NewMultiCell(Config{Terrain: surf, Seed: 31, FastRanging: true}, 4, interference.PlanCochannel, enb.DefaultHandoverConfig(), ues, 1)
			if err != nil {
				b.Fatal(err)
			}
			m.Mobile = mobile
			spec := traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ServeTraffic(3, 10, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
