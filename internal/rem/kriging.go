package rem

import (
	"fmt"
	"math"
	"sort"
)

// This file implements Ordinary Kriging as an alternative to IDW. The
// paper selects IDW for cost, citing [30] that Kriging/GPR offer only
// marginal REM improvement (§3.3.3 footnote 3); implementing both lets
// the ablation bench verify that trade-off on our substrate.

// Variogram is an exponential semivariogram model
// γ(d) = Nugget + Sill·(1 − exp(−d/Range)).
type Variogram struct {
	Nugget float64
	Sill   float64
	RangeM float64
}

// Eval returns γ(d).
func (v Variogram) Eval(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return v.Nugget + v.Sill*(1-math.Exp(-d/v.RangeM))
}

// FitVariogram estimates an exponential variogram from samples by the
// method of moments: pair semivariances are binned by distance and the
// model parameters chosen to minimise squared error over a small
// parameter grid. Inputs are (x, y, value) triples.
func FitVariogram(xs, ys, vs []float64, maxPairs int) Variogram {
	n := len(vs)
	if n < 3 {
		return Variogram{Nugget: 1, Sill: 10, RangeM: 50}
	}
	// Collect (distance, semivariance) pairs, sub-sampled
	// deterministically for large inputs.
	type pair struct{ d, g float64 }
	var pairs []pair
	stride := 1
	total := n * (n - 1) / 2
	if maxPairs > 0 && total > maxPairs {
		stride = total/maxPairs + 1
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k++
			if k%stride != 0 {
				continue
			}
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d := math.Hypot(dx, dy)
			dv := vs[i] - vs[j]
			pairs = append(pairs, pair{d, dv * dv / 2})
		}
	}
	if len(pairs) == 0 {
		return Variogram{Nugget: 1, Sill: 10, RangeM: 50}
	}
	// Bin by distance (12 bins to the 60th-percentile distance).
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })
	maxD := pairs[len(pairs)*6/10].d
	if maxD <= 0 {
		maxD = pairs[len(pairs)-1].d
	}
	const bins = 12
	sumG := make([]float64, bins)
	cnt := make([]int, bins)
	for _, p := range pairs {
		b := int(p.d / maxD * bins)
		if b >= bins {
			continue
		}
		sumG[b] += p.g
		cnt[b]++
	}
	var ds, gs []float64
	for b := 0; b < bins; b++ {
		if cnt[b] > 0 {
			ds = append(ds, (float64(b)+0.5)*maxD/bins)
			gs = append(gs, sumG[b]/float64(cnt[b]))
		}
	}
	if len(ds) < 2 {
		return Variogram{Nugget: 1, Sill: 10, RangeM: 50}
	}
	// Grid-search sill/range/nugget against the empirical curve.
	gMax := 0.0
	for _, g := range gs {
		gMax = math.Max(gMax, g)
	}
	best := Variogram{Nugget: 0, Sill: gMax, RangeM: maxD / 3}
	bestErr := math.Inf(1)
	for _, nf := range []float64{0, 0.1, 0.25} {
		for _, sf := range []float64{0.5, 0.75, 1.0, 1.25} {
			for _, rf := range []float64{0.15, 0.3, 0.5, 0.8, 1.2} {
				v := Variogram{Nugget: nf * gMax, Sill: sf * gMax, RangeM: rf * maxD}
				var e float64
				for i := range ds {
					d := v.Eval(ds[i]) - gs[i]
					e += d * d
				}
				if e < bestErr {
					bestErr, best = e, v
				}
			}
		}
	}
	if best.RangeM <= 0 {
		best.RangeM = maxD / 3
	}
	return best
}

// InterpolateKriging fills every unmeasured cell by ordinary kriging
// over the nearest measured cells (local neighbourhood of size
// maxNeighbors, default 12) with a variogram fitted from the data.
// The model prior, when present, blends in exactly as for IDW.
func (m *Map) InterpolateKriging(maxNeighbors int) error {
	if maxNeighbors <= 0 {
		maxNeighbors = 12
	}
	measured := m.measuredPoints()
	if len(measured) == 0 {
		return ErrNoMeasurements
	}
	xs := make([]float64, len(measured))
	ys := make([]float64, len(measured))
	vs := make([]float64, len(measured))
	for i, p := range measured {
		xs[i], ys[i], vs[i] = p.x, p.y, p.v
	}
	vg := FitVariogram(xs, ys, vs, 20000)
	ix := newNeighbourIndex(m.grid.Bounds(), measured, maxNeighbors)

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
			// Keep the nb nearest: sort a copy, the bucket's list is
			// shared with its other cells.
			neigh = append(neigh[:0], ix.neighbours(c)...)
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

func sq(x float64) float64 { return x * x }

// solveDense solves an n×n system by Gaussian elimination with partial
// pivoting, destroying a. It returns false for singular systems.
func solveDense(a []float64, rhs []float64, n int) ([]float64, bool) {
	if len(a) != n*n || len(rhs) != n {
		panic(fmt.Sprintf("rem: solveDense size mismatch %d %d %d", len(a), len(rhs), n))
	}
	x := make([]float64, n)
	copy(x, rhs)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[p*n+col]) {
				p = r
			}
		}
		if math.Abs(a[p*n+col]) < 1e-10 {
			return nil, false
		}
		if p != col {
			for cc := 0; cc < n; cc++ {
				a[p*n+cc], a[col*n+cc] = a[col*n+cc], a[p*n+cc]
			}
			x[p], x[col] = x[col], x[p]
		}
		inv := 1 / a[col*n+col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				a[r*n+cc] -= f * a[col*n+cc]
			}
			x[r] -= f * x[col]
		}
	}
	for r := 0; r < n; r++ {
		x[r] /= a[r*n+r]
	}
	return x, true
}
