package interference

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/terrain"
	"repro/internal/traj"
	"repro/internal/uav"
	"repro/internal/ue"
)

// benchFleet is the fleet-4cell world at any cell count: 96 UEs on
// CAMPUS (seed 31, 15 m apart in the 8%-inset area) and n co-channel
// cells at their k-means centroids at maximum altitude, as
// sim.MultiCell.PlaceCells seeds them.
func benchFleet(b *testing.B, n int) (*Graph, []geom.Vec2) {
	surf := terrain.ByName("CAMPUS", 31)
	area := surf.Bounds().Inset(surf.Bounds().Width() * 0.08)
	us, err := ue.TryPlaceRandomOpen(96, area, surf.IsOpen, 15, rand.New(rand.NewSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]geom.Vec2, len(us))
	for i, u := range us {
		pts[i] = u.Pos
	}
	centers := traj.KMeans(pts, n, rand.New(rand.NewSource(31)))
	cells := make([]geom.Vec3, n)
	for c, ctr := range centers {
		cells[c] = ctr.WithZ(uav.DefaultConfig().MaxAltitudeM)
	}
	return NewGraph(PlanCochannel, radio.NewModel(surf, radio.DefaultParams(), 31), cells), pts
}

// BenchmarkSINRLoop times what a fleet's serving loop pays for SINR at
// 2, 4 and 8 co-channel cells, per op:
//   - refill: a mobile report tick's row refill, every UE's link row
//     through the uncached model (as MultiCell.reportTick does after
//     its Step);
//   - penalty: one TTI's Links.PenaltyDB for every UE over filled rows,
//     against its serving cell with every other cell partly loaded.
//
// Run it with go test -bench BenchmarkSINRLoop ./internal/interference.
func BenchmarkSINRLoop(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		g, ues := benchFleet(b, n)
		moving := *g
		moving.Model = g.Model.Uncached()
		links := g.NewLinks(len(ues))
		b.Run(fmt.Sprintf("refill/cells%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, u := range ues {
					moving.Fill(links, k, u)
				}
			}
		})
		occ := make([]int, n)
		for j := range occ {
			occ[j] = 20 + 10*j
		}
		b.Run(fmt.Sprintf("penalty/cells%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				for k := range ues {
					sink += links.PenaltyDB(k, k%n, PRBInterval{Start: (k * 5) % 50, N: 10}, occ)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkPlaceMaxMinSINR times one fleet-4cell placement descent with
// PlaceCells' arguments: 40 m steps, at most 8 rounds, one worker, from
// the k-means seed. After the first op every obstruction ray hits the
// shared cache, so it times shadowing, dBm→mW and the descent itself.
func BenchmarkPlaceMaxMinSINR(b *testing.B) {
	g, ues := benchFleet(b, 4)
	seed := append([]geom.Vec3(nil), g.Cells...)
	area := g.Model.Terrain.Bounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(g.Cells, seed)
		if _, err := PlaceMaxMinSINR(g, ues, area, 40, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}
