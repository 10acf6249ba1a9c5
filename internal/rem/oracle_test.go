package rem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// This file keeps the original interpolators, which walk the bucket
// rings again for every unmeasured cell, as the oracle the per-bucket
// neighbour lists in rem.go must match bit for bit.

func oracleInterpolate(m *Map) error {
	type pt struct {
		x, y, v float64
	}
	var measured []pt
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				c := m.grid.CellCenter(cx, cy)
				measured = append(measured, pt{c.X, c.Y, m.grid.Values()[i]})
			}
		}
	}
	if len(measured) == 0 {
		return ErrNoMeasurements
	}

	// Coarse bucket index over measured points.
	b := m.grid.Bounds()
	const bucketsPerSide = 32
	bw := b.Width() / bucketsPerSide
	bh := b.Height() / bucketsPerSide
	if bw <= 0 {
		bw = 1
	}
	if bh <= 0 {
		bh = 1
	}
	buckets := make([][]int, bucketsPerSide*bucketsPerSide)
	bidx := func(x, y float64) (int, int) {
		bx := int((x - b.MinX) / bw)
		by := int((y - b.MinY) / bh)
		if bx < 0 {
			bx = 0
		} else if bx >= bucketsPerSide {
			bx = bucketsPerSide - 1
		}
		if by < 0 {
			by = 0
		} else if by >= bucketsPerSide {
			by = bucketsPerSide - 1
		}
		return bx, by
	}
	for i, p := range measured {
		bx, by := bidx(p.x, p.y)
		buckets[by*bucketsPerSide+bx] = append(buckets[by*bucketsPerSide+bx], i)
	}

	const minNeighbors = 6
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				continue
			}
			c := m.grid.CellCenter(cx, cy)
			bx, by := bidx(c.X, c.Y)
			// Expand bucket rings until enough neighbours are found,
			// then take one extra ring so no nearer point in a
			// diagonal bucket is missed.
			var idxs []int
			lastRing := -1 // ring index after which to stop
			for r := 0; r < 2*bucketsPerSide; r++ {
				added := collectRing(buckets, bucketsPerSide, bx, by, r, &idxs)
				if added < 0 && len(idxs) > 0 {
					break // ring fully outside the index; no more points anywhere
				}
				if lastRing < 0 && len(idxs) >= minNeighbors {
					lastRing = r + 1
				}
				if lastRing >= 0 && r >= lastRing {
					break
				}
			}
			var num, den float64
			exact := false
			nearest2 := 1e300
			for _, mi := range idxs {
				p := measured[mi]
				d2 := (p.x-c.X)*(p.x-c.X) + (p.y-c.Y)*(p.y-c.Y)
				if d2 < 1e-12 {
					num, den = p.v, 1
					exact = true
					break
				}
				if d2 < nearest2 {
					nearest2 = d2
				}
				w := 1 / d2
				num += w * p.v
				den += w
			}
			if den <= 0 {
				continue
			}
			v := num / den
			if m.BlendPrior && m.hasPrior && !exact {
				// Optional: relax towards the model prior as the
				// nearest real measurement recedes, α = 1/(1+(d/R)²).
				// Off by default — the paper's estimated REM is pure
				// IDW over measurements (§3.3.3); the prior fill only
				// seeds planning before data exists (§3.5). Blending
				// helps placement safety but caps whole-map accuracy
				// at the model's (poor) NLOS fidelity, so the
				// placement mask is the default safeguard instead.
				pr := m.PriorRangeM
				if pr <= 0 {
					pr = 25
				}
				alpha := 1 / (1 + nearest2/(pr*pr))
				v = alpha*v + (1-alpha)*m.prior[i]
			}
			m.grid.Set(cx, cy, v)
		}
	}
	return nil
}

func oracleInterpolateKriging(m *Map, maxNeighbors int) error {
	if maxNeighbors <= 0 {
		maxNeighbors = 12
	}
	type pt struct{ x, y, v float64 }
	var measured []pt
	var xs, ys, vs []float64
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				c := m.grid.CellCenter(cx, cy)
				measured = append(measured, pt{c.X, c.Y, m.grid.Values()[i]})
				xs = append(xs, c.X)
				ys = append(ys, c.Y)
				vs = append(vs, m.grid.Values()[i])
			}
		}
	}
	if len(measured) == 0 {
		return ErrNoMeasurements
	}
	vg := FitVariogram(xs, ys, vs, 20000)

	// Reuse the IDW bucket index for neighbour search.
	b := m.grid.Bounds()
	const bucketsPerSide = 32
	bw := math.Max(b.Width()/bucketsPerSide, 1e-9)
	bh := math.Max(b.Height()/bucketsPerSide, 1e-9)
	buckets := make([][]int, bucketsPerSide*bucketsPerSide)
	bidx := func(x, y float64) (int, int) {
		bx := clamp(int((x-b.MinX)/bw), 0, bucketsPerSide-1)
		by := clamp(int((y-b.MinY)/bh), 0, bucketsPerSide-1)
		return bx, by
	}
	for i, p := range measured {
		bx, by := bidx(p.x, p.y)
		buckets[by*bucketsPerSide+bx] = append(buckets[by*bucketsPerSide+bx], i)
	}

	// Scratch buffers for the per-cell linear system.
	nb := maxNeighbors
	a := make([]float64, (nb+1)*(nb+1))
	rhs := make([]float64, nb+1)
	neigh := make([]int, 0, 4*nb)

	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				continue
			}
			c := m.grid.CellCenter(cx, cy)
			bx, by := bidx(c.X, c.Y)
			neigh = neigh[:0]
			lastRing := -1
			for r := 0; r < 2*bucketsPerSide; r++ {
				added := collectRing(buckets, bucketsPerSide, bx, by, r, &neigh)
				if added < 0 && len(neigh) > 0 {
					break
				}
				if lastRing < 0 && len(neigh) >= nb {
					lastRing = r + 1
				}
				if lastRing >= 0 && r >= lastRing {
					break
				}
			}
			// Keep the nb nearest.
			sort.Slice(neigh, func(p, q int) bool {
				dp := sq(measured[neigh[p]].x-c.X) + sq(measured[neigh[p]].y-c.Y)
				dq := sq(measured[neigh[q]].x-c.X) + sq(measured[neigh[q]].y-c.Y)
				return dp < dq
			})
			use := neigh
			if len(use) > nb {
				use = use[:nb]
			}
			k := len(use)
			if k == 0 {
				continue
			}
			// Ordinary kriging system: [Γ 1; 1ᵀ 0] [λ; μ] = [γ; 1].
			dim := k + 1
			for r := 0; r < k; r++ {
				pr := measured[use[r]]
				for col := 0; col < k; col++ {
					pc := measured[use[col]]
					a[r*dim+col] = vg.Eval(math.Hypot(pr.x-pc.x, pr.y-pc.y))
				}
				a[r*dim+k] = 1
				rhs[r] = vg.Eval(math.Hypot(pr.x-c.X, pr.y-c.Y))
			}
			for col := 0; col < k; col++ {
				a[k*dim+col] = 1
			}
			a[k*dim+k] = 0
			rhs[k] = 1
			lam, ok := solveDense(a[:dim*dim], rhs[:dim], dim)
			var v float64
			if !ok {
				// Degenerate geometry (coincident points): fall back
				// to the nearest measurement.
				v = measured[use[0]].v
			} else {
				for r := 0; r < k; r++ {
					v += lam[r] * measured[use[r]].v
				}
			}
			if m.BlendPrior && m.hasPrior {
				pr := m.PriorRangeM
				if pr <= 0 {
					pr = 25
				}
				d2 := sq(measured[use[0]].x-c.X) + sq(measured[use[0]].y-c.Y)
				alpha := 1 / (1 + d2/(pr*pr))
				v = alpha*v + (1-alpha)*m.prior[i]
			}
			m.grid.Values()[i] = v
		}
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// oracleMap builds a map over a random area and cell size and fills it
// with one of five sample layouts: a sparse flight polyline, a dense
// random scatter, a single sample, every cell but one, or nothing.
// maxCells bounds the grid so the oracle stays quick.
func oracleMap(rng *rand.Rand, layout, maxCells int) *Map {
	cell := 0.5 + rng.Float64()*4.5
	w := 5 + rng.Float64()*295
	h := 5 + rng.Float64()*295
	if cells := (w / cell) * (h / cell); cells > float64(maxCells) {
		s := math.Sqrt(float64(maxCells) / cells)
		w, h = w*s, h*s
	}
	ox, oy := rng.Float64()*200-100, rng.Float64()*200-100
	area := geom.Rect{MinX: ox, MinY: oy, MaxX: ox + w, MaxY: oy + h}
	m := New(area, cell)
	field := func(p geom.Vec2) float64 {
		return 20*math.Sin((p.X-ox)/17)*math.Cos((p.Y-oy)/29) + rng.NormFloat64()*3
	}
	g := m.Grid()
	switch layout {
	case 0:
		p := geom.V2(ox+rng.Float64()*w, oy+rng.Float64()*h)
		for leg := 1 + rng.Intn(5); leg > 0; leg-- {
			q := geom.V2(ox+rng.Float64()*w, oy+rng.Float64()*h)
			step := 0.5 + rng.Float64()*2.5
			for d := 0.0; d < p.Dist(q); d += step {
				s := p.Add(q.Sub(p).Scale(d / p.Dist(q)))
				m.AddMeasurement(s, field(s))
			}
			p = q
		}
	case 1:
		n := int(float64(g.NX*g.NY) * (0.05 + rng.Float64()*0.55))
		for i := 0; i < n; i++ {
			s := geom.V2(ox+rng.Float64()*w, oy+rng.Float64()*h)
			m.AddMeasurement(s, field(s))
		}
	case 2:
		s := geom.V2(ox+rng.Float64()*w, oy+rng.Float64()*h)
		m.AddMeasurement(s, field(s))
	case 3:
		skip := rng.Intn(g.NX * g.NY)
		for i := 0; i < g.NX*g.NY; i++ {
			if i != skip {
				s := g.CellCenter(i%g.NX, i/g.NX)
				m.AddMeasurement(s, field(s))
			}
		}
	}
	if rng.Intn(2) == 0 {
		m.FillFrom(func(p geom.Vec2) float64 { return 40 - 20*math.Log10(1+p.Dist(area.Center())) })
	}
	m.BlendPrior = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		m.PriorRangeM = 5 + rng.Float64()*45
	}
	return m
}

func sameValues(a, b *Map) bool {
	av, bv := a.Grid().Values(), b.Grid().Values()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

// TestInterpolateMatchesOracle checks that IDW over the per-bucket
// neighbour lists fills every cell with exactly the bits the per-cell
// ring walk did, and returns the same error.
func TestInterpolateMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := oracleMap(rng, rng.Intn(5), 40000)
		got, want := base.Clone(), base.Clone()
		err, oerr := got.Interpolate(), oracleInterpolate(want)
		if err != oerr || !sameValues(got, want) {
			t.Logf("seed %d: err %v, oracle err %v", seed, err, oerr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// TestInterpolateKrigingMatchesOracle is the same check for kriging,
// whose per-cell nearest-first sort now runs on a copy of the bucket's
// list.
func TestInterpolateKrigingMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := oracleMap(rng, rng.Intn(5), 2500)
		nb := []int{0, 1, 4, 6, 16}[rng.Intn(5)]
		got, want := base.Clone(), base.Clone()
		err, oerr := got.InterpolateKriging(nb), oracleInterpolateKriging(want, nb)
		if err != oerr || !sameValues(got, want) {
			t.Logf("seed %d: err %v, oracle err %v", seed, err, oerr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// The per-UE grid objective used to be written out in seven places:
// ObjectiveMap over Maps, Place, PlaceMasked and OptimalPlacement here,
// AggregateREMs/MinREM/MeanREM in internal/radio, core's Step 6.1
// aggregate and Fig 6's inline sum. ObjectiveMap over grids and
// PlaceMasked replaced them all; the copies below are those functions
// as they were, and TestObjectiveMapMatchesOracles holds the survivors
// to their bits.

func oracleObjectiveMap(rems []*Map, obj Objective, weights []float64) *geom.Grid {
	g0 := rems[0].grid
	out := g0.Clone()
	ov := out.Values()
	switch obj {
	case MaxMin:
		for _, r := range rems[1:] {
			for i, v := range r.grid.Values() {
				if v < ov[i] {
					ov[i] = v
				}
			}
		}
	case MaxMean:
		for _, r := range rems[1:] {
			for i, v := range r.grid.Values() {
				ov[i] += v
			}
		}
		inv := 1 / float64(len(rems))
		for i := range ov {
			ov[i] *= inv
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
		for k, r := range rems[1:] {
			w := weights[k+1]
			for i, v := range r.grid.Values() {
				ov[i] += w * v
			}
		}
		for i := range ov {
			ov[i] /= wsum
		}
	}
	return out
}

func oraclePlace(rems []*Map, obj Objective, weights []float64) (geom.Vec2, float64, error) {
	if len(rems) == 0 {
		return geom.Vec2{}, 0, fmt.Errorf("rem: no REMs to place over")
	}
	g0 := rems[0].grid
	for _, r := range rems[1:] {
		if r.grid.NX != g0.NX || r.grid.NY != g0.NY {
			return geom.Vec2{}, 0, fmt.Errorf("rem: REM grid geometry mismatch")
		}
	}
	if obj == MaxWeighted {
		if len(weights) != len(rems) {
			return geom.Vec2{}, 0, fmt.Errorf("rem: %d weights for %d REMs", len(weights), len(rems))
		}
	}

	score := oracleObjectiveMap(rems, obj, weights)
	cx, cy, v := score.MaxCell()
	return score.CellCenter(cx, cy), v, nil
}

func oraclePlaceMasked(rems []*Map, obj Objective, weights []float64, mask []bool) (geom.Vec2, float64, error) {
	if len(rems) == 0 {
		return geom.Vec2{}, 0, fmt.Errorf("rem: no REMs to place over")
	}
	g0 := rems[0].grid
	if mask != nil && len(mask) != g0.NX*g0.NY {
		return geom.Vec2{}, 0, fmt.Errorf("rem: mask length %d for %d cells", len(mask), g0.NX*g0.NY)
	}
	for _, r := range rems[1:] {
		if r.grid.NX != g0.NX || r.grid.NY != g0.NY {
			return geom.Vec2{}, 0, fmt.Errorf("rem: REM grid geometry mismatch")
		}
	}
	if obj == MaxWeighted && len(weights) != len(rems) {
		return geom.Vec2{}, 0, fmt.Errorf("rem: %d weights for %d REMs", len(weights), len(rems))
	}
	score := oracleObjectiveMap(rems, obj, weights)
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
		return oraclePlace(rems, obj, weights)
	}
	return score.CellCenter(bi%g0.NX, bi/g0.NX), bv, nil
}

func oracleOptimalPlacement(truths []*geom.Grid, obj Objective) (geom.Vec2, float64) {
	if len(truths) == 0 {
		return geom.Vec2{}, math.Inf(-1)
	}
	out := truths[0].Clone()
	ov := out.Values()
	switch obj {
	case MaxMin:
		for _, t := range truths[1:] {
			for i, v := range t.Values() {
				if v < ov[i] {
					ov[i] = v
				}
			}
		}
	default: // mean
		for _, t := range truths[1:] {
			for i, v := range t.Values() {
				ov[i] += v
			}
		}
		inv := 1 / float64(len(truths))
		for i := range ov {
			ov[i] *= inv
		}
	}
	cx, cy, v := out.MaxCell()
	return out.CellCenter(cx, cy), v
}

// oracleAggregateREMs is radio.AggregateREMs; core's Step 6.1
// aggregate was the same loop without the empty check.
func oracleAggregateREMs(rems []*geom.Grid) *geom.Grid {
	if len(rems) == 0 {
		return nil
	}
	out := rems[0].Clone()
	ov := out.Values()
	for _, r := range rems[1:] {
		for i, v := range r.Values() {
			ov[i] += v
		}
	}
	return out
}

func oracleMinREM(rems []*geom.Grid) *geom.Grid {
	if len(rems) == 0 {
		return nil
	}
	out := rems[0].Clone()
	ov := out.Values()
	for _, r := range rems[1:] {
		for i, v := range r.Values() {
			if v < ov[i] {
				ov[i] = v
			}
		}
	}
	return out
}

func oracleMeanREM(rems []*geom.Grid) *geom.Grid {
	if len(rems) == 0 {
		return nil
	}
	out := oracleAggregateREMs(rems)
	inv := 1 / float64(len(rems))
	v := out.Values()
	for i := range v {
		v[i] *= inv
	}
	return out
}

// oracleFig06Aggregate is Fig 6's inline Step 6.1 sum.
func oracleFig06Aggregate(grids []*geom.Grid) *geom.Grid {
	agg := grids[0].Clone()
	for _, g := range grids[1:] {
		for i, v := range g.Values() {
			agg.Values()[i] += v
		}
	}
	return agg
}

// objectiveStack draws 1-8 maps of one random geometry whose cells mix
// ordinary SNRs with ties, ±0, ±Inf and NaN.
func objectiveStack(rng *rand.Rand) []*Map {
	w := 5 + rng.Float64()*60
	h := 5 + rng.Float64()*60
	area := geom.NewRect(geom.V2(0, 0), geom.V2(w, h))
	cell := 2 + rng.Float64()*8
	special := []float64{0, math.Copysign(0, -1), 7, -7, 12.5, math.Inf(1), math.Inf(-1), math.NaN()}
	pSpecial := rng.Float64()
	out := make([]*Map, 1+rng.Intn(8))
	for k := range out {
		m := New(area, cell)
		vals := m.Grid().Values()
		for i := range vals {
			if rng.Float64() < pSpecial {
				vals[i] = special[rng.Intn(len(special))]
			} else {
				vals[i] = -40 + rng.Float64()*90
			}
		}
		out[k] = m
	}
	return out
}

func sameBits(a, b *geom.Grid) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NX != b.NX || a.NY != b.NY || a.Bounds() != b.Bounds() {
		return false
	}
	av, bv := a.Values(), b.Values()
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

// TestObjectiveMapMatchesOracles checks, for random grid stacks, that
// ObjectiveMap and PlaceMasked give exactly the bits of every copy
// they replaced, on nil, random and all-excluding masks, and leave
// their inputs untouched.
func TestObjectiveMapMatchesOracles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maps := objectiveStack(rng)
		grids := make([]*geom.Grid, len(maps))
		before := make([]*geom.Grid, len(maps))
		for i, m := range maps {
			grids[i] = m.Grid()
			before[i] = m.Grid().Clone()
		}
		weights := make([]float64, len(maps))
		for i := range weights {
			weights[i] = []float64{0, 1, -1, 0.25, rng.Float64() * 3}[rng.Intn(5)]
		}
		for _, c := range []struct {
			name      string
			got, want *geom.Grid
		}{
			{"min", ObjectiveMap(grids, MaxMin, nil), oracleObjectiveMap(maps, MaxMin, nil)},
			{"mean", ObjectiveMap(grids, MaxMean, nil), oracleObjectiveMap(maps, MaxMean, nil)},
			{"weighted", ObjectiveMap(grids, MaxWeighted, weights), oracleObjectiveMap(maps, MaxWeighted, weights)},
			{"radio min", ObjectiveMap(grids, MaxMin, nil), oracleMinREM(grids)},
			{"radio mean", ObjectiveMap(grids, MaxMean, nil), oracleMeanREM(grids)},
			{"radio sum", ObjectiveMap(grids, Sum, nil), oracleAggregateREMs(grids)},
			{"fig 6 sum", ObjectiveMap(grids, Sum, nil), oracleFig06Aggregate(grids)},
		} {
			if !sameBits(c.got, c.want) {
				t.Logf("seed %d: %s map differs from its oracle", seed, c.name)
				return false
			}
		}
		for _, obj := range []Objective{MaxMin, MaxMean} {
			score := ObjectiveMap(grids, obj, nil)
			cx, cy, v := score.MaxCell()
			wpos, wv := oracleOptimalPlacement(grids, obj)
			if score.CellCenter(cx, cy) != wpos || math.Float64bits(v) != math.Float64bits(wv) {
				t.Logf("seed %d: %v optimum %v=%v, oracle %v=%v", seed, obj, score.CellCenter(cx, cy), v, wpos, wv)
				return false
			}
		}
		cells := len(grids[0].Values())
		some := make([]bool, cells)
		for i := range some {
			some[i] = rng.Intn(3) == 0
		}
		for _, mask := range [][]bool{nil, some, make([]bool, cells)} {
			for _, obj := range []Objective{MaxMin, MaxMean, MaxWeighted} {
				pos, v, err := PlaceMasked(maps, obj, weights, mask)
				wpos, wv, werr := oraclePlaceMasked(maps, obj, weights, mask)
				if pos != wpos || math.Float64bits(v) != math.Float64bits(wv) || (err == nil) != (werr == nil) {
					t.Logf("seed %d: %v placement %v=%v (%v), oracle %v=%v (%v)", seed, obj, pos, v, err, wpos, wv, werr)
					return false
				}
			}
		}
		for i, g := range grids {
			if !sameBits(g, before[i]) {
				t.Logf("seed %d: input grid %d modified", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
	if ObjectiveMap(nil, MaxMin, nil) != nil || ObjectiveMap([]*geom.Grid{}, Sum, nil) != nil {
		t.Error("no grids should give no map")
	}
}
