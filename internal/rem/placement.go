package rem

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Objective selects the placement criterion applied to the per-UE
// REMs. The paper places at the max-min SNR cell (§3.4) but notes the
// system accommodates other objectives.
type Objective int

const (
	// MaxMin maximises the minimum SNR across UEs (the paper default).
	MaxMin Objective = iota
	// MaxMean maximises the mean SNR across UEs.
	MaxMean
	// MaxWeighted maximises a weighted mean SNR (weights supplied to
	// PlaceMasked).
	MaxWeighted
	// Sum is the plain cell-wise sum of the per-UE maps: the aggregate
	// REM whose gradient steers the measurement trajectory (Step 6.1 of
	// §3.3.2). It stays a sum because a mean would rescale that
	// gradient.
	Sum
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxMin:
		return "max-min"
	case MaxMean:
		return "max-mean"
	case MaxWeighted:
		return "max-weighted"
	case Sum:
		return "sum"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ObjectiveMap folds per-UE grids, which must share geometry, into the
// per-cell objective: the minimum for MaxMin, the mean for MaxMean, the
// weighted mean for MaxWeighted (weights index-aligned with grids) and
// the sum for Sum. It is the one place these are computed, for
// estimated REMs and ground truth alike. The fold clones the first
// grid and visits the rest in order; the mean is the sum scaled by
// 1/n, and the minimum keeps the earlier value unless a later one is
// strictly smaller. The inputs are not modified. No grids, no map: it
// returns nil.
func ObjectiveMap(grids []*geom.Grid, obj Objective, weights []float64) *geom.Grid {
	if len(grids) == 0 {
		return nil
	}
	out := grids[0].Clone()
	ov := out.Values()
	switch obj {
	case MaxMin:
		for _, g := range grids[1:] {
			for i, v := range g.Values() {
				if v < ov[i] {
					ov[i] = v
				}
			}
		}
	case MaxMean, Sum:
		for _, g := range grids[1:] {
			for i, v := range g.Values() {
				ov[i] += v
			}
		}
		if obj == MaxMean {
			inv := 1 / float64(len(grids))
			for i := range ov {
				ov[i] *= inv
			}
		}
	case MaxWeighted:
		var wsum float64
		for _, w := range weights {
			wsum += w
		}
		if wsum == 0 {
			wsum = 1
		}
		for i := range ov {
			ov[i] *= weights[0]
		}
		for k, g := range grids[1:] {
			w := weights[k+1]
			for i, v := range g.Values() {
				ov[i] += w * v
			}
		}
		for i := range ov {
			ov[i] /= wsum
		}
	}
	return out
}

// NearMeasurement returns, per cell, whether the cell lies within
// radiusM of any directly measured cell of m — the confidence mask
// used to keep placement away from purely extrapolated regions. It is
// a multi-source BFS over the grid (4-connected), so cost is linear in
// grid size.
func (m *Map) NearMeasurement(radiusM float64) []bool {
	nx, ny := m.grid.NX, m.grid.NY
	maxSteps := int(radiusM / m.grid.Cell)
	dist := make([]int, nx*ny)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, nx*ny)
	for i, c := range m.count {
		if c > 0 {
			dist[i] = 0
			queue = append(queue, i)
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		if dist[i] >= maxSteps {
			continue
		}
		cx, cy := i%nx, i/nx
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			x, y := cx+d[0], cy+d[1]
			if x < 0 || x >= nx || y < 0 || y >= ny {
				continue
			}
			j := y*nx + x
			if dist[j] < 0 {
				dist[j] = dist[i] + 1
				queue = append(queue, j)
			}
		}
	}
	out := make([]bool, nx*ny)
	for i, d := range dist {
		out[i] = d >= 0
	}
	return out
}

// PlaceMasked evaluates the objective over the given per-UE REMs and
// returns the centre and value of the best cell among those where mask
// is true (e.g. the NearMeasurement confidence mask); a nil mask allows
// every cell. The best cell is the first strict maximum in row-major
// order. When the mask excludes every cell it falls back to the
// unmasked optimum. weights is only used by MaxWeighted and must then
// match len(rems). All REMs must share grid geometry.
func PlaceMasked(rems []*Map, obj Objective, weights []float64, mask []bool) (geom.Vec2, float64, error) {
	if len(rems) == 0 {
		return geom.Vec2{}, 0, fmt.Errorf("rem: no REMs to place over")
	}
	g0 := rems[0].grid
	if mask != nil && len(mask) != g0.NX*g0.NY {
		return geom.Vec2{}, 0, fmt.Errorf("rem: mask length %d for %d cells", len(mask), g0.NX*g0.NY)
	}
	grids := make([]*geom.Grid, len(rems))
	for i, r := range rems {
		if r.grid.NX != g0.NX || r.grid.NY != g0.NY {
			return geom.Vec2{}, 0, fmt.Errorf("rem: REM grid geometry mismatch")
		}
		grids[i] = r.grid
	}
	if obj == MaxWeighted && len(weights) != len(rems) {
		return geom.Vec2{}, 0, fmt.Errorf("rem: %d weights for %d REMs", len(weights), len(rems))
	}
	score := ObjectiveMap(grids, obj, weights)
	bi, bv := -1, math.Inf(-1)
	for i, v := range score.Values() {
		if mask != nil && !mask[i] {
			continue
		}
		if v > bv {
			bi, bv = i, v
		}
	}
	if bi < 0 {
		cx, cy, v := score.MaxCell()
		return score.CellCenter(cx, cy), v, nil
	}
	return score.CellCenter(bi%g0.NX, bi/g0.NX), bv, nil
}
