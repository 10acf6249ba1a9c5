package interference

import (
	"math"

	"repro/internal/engine"
	"repro/internal/geom"
)

// Fleet placement under interference. The paper's §3.4 objective is
// per-cell max-min SNR; with co-channel cells that objective is blind
// to the interference the fleet inflicts on itself — two UAVs parked
// close together maximize their own sectors' SNR while destroying each
// other's cell edge. The fleet objective therefore becomes max-min
// SINR: the worst UE's wideband SINR from its best serving cell, with
// every cell assumed fully loaded (the conservative reuse-1 picture).
//
// PlaceMaxMinSINR improves a placement by greedy coordinate descent
// over that objective. Candidate evaluations fan out over the
// deterministic parallel engine; each evaluation is a pure function of
// (positions, UE positions), so the result is byte-identical at any
// worker count. A candidate moves one cell, so it changes one column
// of the fleet's link rows: the descent fills every UE's row once and
// each candidate refills only the moved cell's entry of each row.

// MinSINRdB is the fleet placement objective value: the minimum over
// UEs of the best-cell fully-loaded wideband SINR. With one cell (or
// separate carriers) it degenerates to the paper's max-min SNR
// objective value.
func (g *Graph) MinSINRdB(ues []geom.Vec2) float64 {
	l := g.NewLinks(1)
	min := math.Inf(1)
	for _, u := range ues {
		g.Fill(l, 0, u)
		if best := l.bestSINRdB(0); best < min {
			min = best
		}
	}
	return min
}

// bestSINRdB is row i's best fully-loaded wideband SINR over its cells.
func (l *Links) bestSINRdB(i int) float64 {
	best := math.Inf(-1)
	for j := 0; j < l.cells; j++ {
		if s := l.WidebandSINRdB(i, j, nil, 0); s > best {
			best = s
		}
	}
	return best
}

// copyRow copies row i of l into dst, a one-row matrix over the same
// cells.
func (l *Links) copyRow(dst *Links, i int) {
	copy(dst.snr, l.snr[i*l.cells:])
	if l.mw != nil {
		copy(dst.mw, l.mw[i*l.cells:])
	}
}

// PlaceMaxMinSINR runs rounds of greedy coordinate descent: each cell
// in index order tries staying put and stepping stepM in the four
// cardinal directions (clamped to area, altitude preserved), keeping
// the move that most improves the fleet min-SINR. Strict improvement
// is required and candidates are compared in a fixed order, so the
// outcome is deterministic; candidate scoring fans out over workers.
// It returns the improved positions (the graph is updated in place).
func PlaceMaxMinSINR(g *Graph, ues []geom.Vec2, area geom.Rect, stepM float64, rounds, workers int) ([]geom.Vec3, error) {
	if stepM <= 0 || rounds <= 0 || len(g.Cells) == 0 || len(ues) == 0 {
		return g.Cells, nil
	}
	offsets := [...]geom.Vec2{{X: 0, Y: 0}, {X: stepM, Y: 0}, {X: -stepM, Y: 0}, {X: 0, Y: stepM}, {X: 0, Y: -stepM}}
	// base holds every UE's row at the current positions. Candidate k
	// scores each row in a one-row copy with entry c refilled at
	// cands[k]; a move refills base's column c at the winner.
	pts := make([]geom.Vec3, len(ues))
	base := g.NewLinks(len(ues))
	for i, u := range ues {
		pts[i] = g.Model.UEPoint(u)
		g.Fill(base, i, u)
	}
	var cands [len(offsets)]geom.Vec3
	for r := 0; r < rounds; r++ {
		improved := false
		for c := range g.Cells {
			cur := g.Cells[c]
			for k, off := range offsets {
				p := area.Clamp(geom.V2(cur.X+off.X, cur.Y+off.Y))
				cands[k] = p.WithZ(cur.Z)
			}
			scores, err := engine.ParallelMap(engine.WorkerCount(workers), len(cands), func(k int) (float64, error) {
				var buf [2 * rowCells]float64
				row := g.links(1, buf[:])
				min := math.Inf(1)
				for i, pt := range pts {
					base.copyRow(&row, i)
					g.fillCell(&row, 0, c, cands[k], pt)
					if best := row.bestSINRdB(0); best < min {
						min = best
					}
				}
				return min, nil
			})
			if err != nil {
				return nil, err
			}
			bestK := 0 // offset 0 is "stay": moves must strictly beat it
			for k := 1; k < len(scores); k++ {
				if scores[k] > scores[bestK] {
					bestK = k
				}
			}
			if bestK != 0 {
				g.Cells[c] = cands[bestK]
				for i, pt := range pts {
					g.fillCell(base, i, c, cands[bestK], pt)
				}
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return g.Cells, nil
}
