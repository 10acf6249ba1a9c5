package interference

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/terrain"
)

// BenchmarkSINRLoop measures the per-TTI cost of the SINR inner loop at
// fleet sizes 2/4/8: for every UE, one RB-granular SINR query against
// its serving cell with every other cell loaded. This is the hot path
// the multicell serving loop adds on top of the legacy scheduler; run
// it with go test -bench BenchmarkSINRLoop ./internal/interference.
func BenchmarkSINRLoop(b *testing.B) {
	for _, nCells := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("cells%d", nCells), func(b *testing.B) {
			surf := terrain.ByName("FLAT", 1)
			m := radio.NewModel(surf, radio.DefaultParams(), 1)
			bounds := surf.Bounds()
			cells := make([]geom.Vec3, nCells)
			for i := range cells {
				fr := (float64(i) + 0.5) / float64(nCells)
				cells[i] = geom.V2(bounds.MinX+fr*bounds.Width(), bounds.Center().Y).WithZ(60)
			}
			g := NewGraph(PlanCochannel, m, cells)
			const nUEs = 40
			ues := make([]geom.Vec2, nUEs)
			for i := range ues {
				fx := float64(i%8)/8 + 0.0625
				fy := float64(i/8)/5 + 0.1
				ues[i] = geom.V2(bounds.MinX+fx*bounds.Width(), bounds.MinY+fy*bounds.Height())
			}
			occ := make([]int, nCells)
			for j := range occ {
				occ[j] = 50
			}
			// Warm the obstruction cache so the steady-state TTI cost is
			// what gets measured, as in the serving loop after TTI 0.
			for i, u := range ues {
				g.SINRdB(i%nCells, u, PRBInterval{Start: 0, N: 10}, occ)
			}
			b.ResetTimer()
			var sink float64
			for n := 0; n < b.N; n++ {
				for i, u := range ues {
					sink += g.SINRdB(i%nCells, u, PRBInterval{Start: (i * 5) % 50, N: 10}, occ)
				}
			}
			_ = sink
		})
	}
}
