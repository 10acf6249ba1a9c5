package rem

import (
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
