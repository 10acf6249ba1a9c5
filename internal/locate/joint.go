package locate

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/ranging"
)

// scanOffset coarse-to-fine scans the shared offset b. For each
// candidate b it solves every UE by fixed-offset trilateration and
// scores the summed robust cost; the best b and its per-UE positions
// are written into xs/ys.
func scanOffset(perUE [][]ranging.Tuple, opts Options, xs, ys []float64) (float64, error) {
	// Plausible b range from the data: the smallest measured range
	// bounds b above (true distance is positive); below, allow the
	// offset to be negative by up to the area diagonal.
	minR := math.Inf(1)
	for _, ts := range perUE {
		for _, tp := range ts {
			minR = math.Min(minR, tp.RangeM)
		}
	}
	span := 300.0
	if opts.Bounds.Area() > 0 {
		span = math.Hypot(opts.Bounds.Width(), opts.Bounds.Height())
	}
	lo, hi := minR-span, minR
	if pr := opts.OffsetPrior; pr != nil && pr.SigmaM > 0 {
		lo = math.Max(lo, pr.MeanM-4*pr.SigmaM)
		hi = math.Min(hi, pr.MeanM+4*pr.SigmaM)
		if lo > hi {
			lo, hi = pr.MeanM-4*pr.SigmaM, pr.MeanM+4*pr.SigmaM
		}
	}

	// Everything about a UE that does not depend on b is computed once,
	// before the scan.
	ues := make([]scanUE, len(perUE))
	for i, ts := range perUE {
		ues[i] = newScanUE(ts)
	}
	candXs := make([]float64, len(ues))
	candYs := make([]float64, len(ues))
	bestB, bestCost := 0.0, math.Inf(1)
	// eval scores candidate b: the prior term, then each UE's cost in
	// UE order. Every term is ≥ 0, and adding a non-negative term never
	// lowers a floating-point sum, so once the running total reaches
	// bestCost the candidate cannot pass c < bestCost; eval returns
	// that total without solving the remaining UEs.
	eval := func(b float64) (float64, error) {
		var total float64
		if pr := opts.OffsetPrior; pr != nil && pr.SigmaM > 0 {
			total += (b - pr.MeanM) * (b - pr.MeanM) / (pr.SigmaM * pr.SigmaM)
		}
		for i := range ues {
			if total >= bestCost {
				return total, nil
			}
			x, y, cost, err := ues[i].solveFixedOffset(b, opts)
			if err != nil {
				return 0, err
			}
			total += cost
			candXs[i], candYs[i] = x, y
		}
		return total, nil
	}

	// Each finer pass starts, centres and ends on values the coarser
	// pass usually produced bit for bit. A candidate already tried
	// cannot beat the best, which only ever falls, so it is skipped;
	// the best candidate's fixes are kept as it is found. The scan
	// fails only if every candidate fails, so no prune has fired, and
	// it reports the first candidate's error.
	tried := make(map[uint64]bool)
	var firstErr error
	for _, step := range []float64{10, 2, 0.5} {
		for b := lo; b <= hi+1e-9; b += step {
			if tried[math.Float64bits(b)] {
				continue
			}
			tried[math.Float64bits(b)] = true
			c, err := eval(b)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if c < bestCost {
				bestCost, bestB = c, b
				copy(xs, candXs)
				copy(ys, candYs)
			}
		}
		lo, hi = bestB-step, bestB+step
	}
	if math.IsInf(bestCost, 1) {
		return 0, fmt.Errorf("locate: offset scan found no feasible solution: %w", firstErr)
	}
	return bestB, nil
}

// scanUE is one UE's tuples as the offset scan reads them: UAV
// positions and ranges in column slices, the ranges sorted once, and
// the flight centroid and aperture, none of which depend on b.
type scanUE struct {
	px, py, pz, r []float64
	sorted        []float64
	centroid      geom.Vec2
	aperture      float64
}

func newScanUE(ts []ranging.Tuple) scanUE {
	n := len(ts)
	u := scanUE{
		px: make([]float64, n), py: make([]float64, n), pz: make([]float64, n), r: make([]float64, n),
		aperture: flightAperture(ts),
	}
	for k, tp := range ts {
		u.px[k], u.py[k], u.pz[k], u.r[k] = tp.UAVPos.X, tp.UAVPos.Y, tp.UAVPos.Z, tp.RangeM
		u.centroid = u.centroid.Add(tp.UAVPos.XY())
	}
	u.centroid = u.centroid.Scale(1 / float64(n))
	u.sorted = sortedCopy(u.r)
	return u
}

// medianShifted returns median(r_i − b). Subtracting b is monotone in
// floating point, so the shifted sorted ranges are the sorted shifted
// ranges and their middle holds exactly the values a sort of r_i − b
// would.
func (u *scanUE) medianShifted(b float64) float64 {
	s := u.sorted
	n := len(s)
	if n%2 == 1 {
		return s[n/2] - b
	}
	return ((s[n/2-1] - b) + (s[n/2] - b)) / 2
}

// solveFixedOffset runs 2-unknown trilateration for the UE with the
// offset pinned at b, multi-starting from the flight centroid and a
// ring around it so that a short flight's mirror fix cannot trap it.
func (u *scanUE) solveFixedOffset(b float64, opts Options) (x, y, cost float64, err error) {
	if u.aperture < 1 {
		return 0, 0, 0, ErrDegenerateGeometry
	}
	c := u.centroid
	ring := math.Max(u.medianShifted(b)*0.8, 5)
	inits := [9]geom.Vec2{c}
	for a := 0; a < 8; a++ {
		th := float64(a) * math.Pi / 4
		p := c.Add(geom.V2(math.Cos(th), math.Sin(th)).Scale(ring))
		if opts.Bounds.Area() > 0 {
			p = opts.Bounds.Clamp(p)
		}
		inits[a+1] = p
	}
	bestCost := math.Inf(1)
	for _, init := range inits {
		xx, yy, cc, e := u.descendFixedOffset(b, opts, init)
		if e != nil {
			err = e
			continue
		}
		if cc < bestCost {
			x, y, bestCost = xx, yy, cc
		}
	}
	if math.IsInf(bestCost, 1) {
		if err == nil {
			err = fmt.Errorf("locate: fixed-offset solve failed")
		}
		return 0, 0, 0, err
	}
	return x, y, bestCost, nil
}

// descendFixedOffset is a damped 2-parameter Gauss-Newton descent.
func (u *scanUE) descendFixedOffset(b float64, opts Options, init geom.Vec2) (x, y, cost float64, err error) {
	// Equal lengths let the compiler drop the bounds checks in the loop.
	px := u.px
	py, pz, r := u.py[:len(px)], u.pz[:len(px)], u.r[:len(px)]
	delta := opts.HuberDeltaM
	x, y = init.X, init.Y
	lambda := 1e-3
	prev := math.Inf(1)
	// An iteration is a function of the (x, y, λ, prev) it starts from.
	// When one starts from exactly the state the previous one started
	// from, the previous one neither erred nor met Tol, so neither will
	// this one or any later one, and MaxIter would return (x, y, prev)
	// as they are now. Descents clamped at the area bound with λ at its
	// floor end so.
	var last [4]uint64
	for it := 0; it < opts.MaxIter; it++ {
		state := [4]uint64{math.Float64bits(x), math.Float64bits(y), math.Float64bits(lambda), math.Float64bits(prev)}
		if state == last {
			return x, y, prev, nil
		}
		last = state
		z := opts.GroundZ(geom.V2(x, y))
		var a00, a01, a11, g0, g1, c float64
		for k := range px {
			dx := x - px[k]
			dy := y - py[k]
			dz := z - pz[k]
			d := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if d < 1e-6 {
				d = 1e-6
			}
			e := d + b - r[k]
			w := huberWeight(e, delta)
			c += w * e * e
			jx, jy := dx/d, dy/d
			a00 += w * jx * jx
			a01 += w * jx * jy
			a11 += w * jy * jy
			g0 += w * jx * e
			g1 += w * jy * e
		}
		if c > prev*1.000001 {
			lambda *= 10
		} else {
			lambda = math.Max(lambda/3, 1e-9)
			prev = c
		}
		a00d := a00 * (1 + lambda)
		a11d := a11 * (1 + lambda)
		det := a00d*a11d - a01*a01
		if math.Abs(det) < 1e-12 {
			return 0, 0, 0, fmt.Errorf("locate: singular 2x2 system")
		}
		dx := (-g0*a11d + g1*a01) / det
		dy := (g0*a01 - g1*a00d) / det
		x += dx
		y += dy
		if opts.Bounds.Area() > 0 {
			p := opts.Bounds.Clamp(geom.V2(x, y))
			x, y = p.X, p.Y
		}
		if math.Abs(dx)+math.Abs(dy) < opts.Tol {
			break
		}
	}
	return x, y, prev, nil
}

// SolveJoint localizes several UEs from one localization flight while
// estimating a single shared processing-delay offset. The offset is a
// property of the eNodeB processing chain, not of any UE (§3.2.3), so
// ranges to every UE constrain the same b. Jointly solving all UEs
// breaks the radial/offset near-degeneracy that limits single-UE fixes
// from short flights: UEs in different directions pull the shared
// offset in conflicting directions unless it is right.
//
// The parameter vector is (x₁,y₁, …, x_K,y_K, b); the damped normal
// equations have arrow structure and are solved by a Schur complement
// on b. Initial per-UE guesses come from independent single-UE solves.
func SolveJoint(perUE [][]ranging.Tuple, opts Options) ([]Result, error) {
	opts.defaults()
	k := len(perUE)
	if k == 0 {
		return nil, fmt.Errorf("locate: no UEs to solve")
	}
	for i, ts := range perUE {
		if len(ts) < 4 {
			return nil, fmt.Errorf("locate: UE %d: %w", i, ErrInsufficientData)
		}
	}

	// Initialisation: 1-D scan over the shared offset. With b fixed,
	// each UE reduces to classic 2-unknown trilateration, which is
	// well-conditioned even for short flights; the scan picks the b
	// whose per-UE fits have the lowest total robust cost. This evades
	// the radial/offset valley that traps a cold joint descent.
	xs := make([]float64, k)
	ys := make([]float64, k)
	b, err := scanOffset(perUE, opts, xs, ys)
	if err != nil {
		return nil, err
	}

	lambda := 1e-3
	prevCost := math.Inf(1)
	for it := 0; it < opts.MaxIter; it++ {
		// Per-UE blocks D_i (2×2), coupling c_i (2), gradient g_i (2);
		// offset scalar s and gradient gb.
		type block struct {
			d [2][2]float64
			c [2]float64
			g [2]float64
		}
		blocks := make([]block, k)
		var s, gb, cost float64
		if pr := opts.OffsetPrior; pr != nil && pr.SigmaM > 0 {
			wp := 1 / (pr.SigmaM * pr.SigmaM)
			s += wp
			gb += wp * (b - pr.MeanM)
			cost += wp * (b - pr.MeanM) * (b - pr.MeanM)
		}
		for i, ts := range perUE {
			z := opts.GroundZ(geom.V2(xs[i], ys[i]))
			bl := &blocks[i]
			for _, tp := range ts {
				dx := xs[i] - tp.UAVPos.X
				dy := ys[i] - tp.UAVPos.Y
				dz := z - tp.UAVPos.Z
				d := math.Sqrt(dx*dx + dy*dy + dz*dz)
				if d < 1e-6 {
					d = 1e-6
				}
				e := d + b - tp.RangeM
				w := huberWeight(e, opts.HuberDeltaM)
				cost += w * e * e
				jx, jy := dx/d, dy/d
				bl.d[0][0] += w * jx * jx
				bl.d[0][1] += w * jx * jy
				bl.d[1][0] += w * jy * jx
				bl.d[1][1] += w * jy * jy
				bl.c[0] += w * jx
				bl.c[1] += w * jy
				bl.g[0] += w * jx * e
				bl.g[1] += w * jy * e
				s += w
				gb += w * e
			}
		}
		if cost > prevCost*1.000001 {
			lambda *= 10
		} else {
			lambda = math.Max(lambda/3, 1e-9)
			prevCost = cost
		}

		// Schur complement on b with Levenberg damping on diagonals.
		schur := s * (1 + lambda)
		rhs := -gb
		type inv2 struct{ a, bb, c, d float64 }
		invs := make([]inv2, k)
		for i := range blocks {
			bl := &blocks[i]
			a00 := bl.d[0][0] * (1 + lambda)
			a11 := bl.d[1][1] * (1 + lambda)
			a01 := bl.d[0][1]
			det := a00*a11 - a01*a01
			if math.Abs(det) < 1e-12 {
				return nil, fmt.Errorf("locate: UE %d: singular geometry in joint solve", i)
			}
			iv := inv2{a: a11 / det, bb: -a01 / det, c: -a01 / det, d: a00 / det}
			invs[i] = iv
			// cᵀ D⁻¹ c and cᵀ D⁻¹ g
			dc0 := iv.a*bl.c[0] + iv.bb*bl.c[1]
			dc1 := iv.c*bl.c[0] + iv.d*bl.c[1]
			schur -= bl.c[0]*dc0 + bl.c[1]*dc1
			dg0 := iv.a*bl.g[0] + iv.bb*bl.g[1]
			dg1 := iv.c*bl.g[0] + iv.d*bl.g[1]
			rhs += bl.c[0]*dg0 + bl.c[1]*dg1
		}
		if math.Abs(schur) < 1e-12 {
			return nil, fmt.Errorf("locate: offset unobservable in joint solve")
		}
		db := rhs / schur

		var maxStep float64
		for i := range blocks {
			bl := &blocks[i]
			r0 := -bl.g[0] - bl.c[0]*db
			r1 := -bl.g[1] - bl.c[1]*db
			iv := invs[i]
			dx := iv.a*r0 + iv.bb*r1
			dy := iv.c*r0 + iv.d*r1
			xs[i] += dx
			ys[i] += dy
			if opts.Bounds.Area() > 0 {
				p := opts.Bounds.Clamp(geom.V2(xs[i], ys[i]))
				xs[i], ys[i] = p.X, p.Y
			}
			maxStep = math.Max(maxStep, math.Abs(dx)+math.Abs(dy))
		}
		b += db
		if maxStep+math.Abs(db) < opts.Tol {
			break
		}
	}

	// Package results with per-UE residuals.
	out := make([]Result, k)
	for i, ts := range perUE {
		z := opts.GroundZ(geom.V2(xs[i], ys[i]))
		var ss float64
		for _, tp := range ts {
			e := tp.UAVPos.Dist(geom.V3(xs[i], ys[i], z)) + b - tp.RangeM
			ss += e * e
		}
		out[i] = Result{
			UE:           geom.V2(xs[i], ys[i]),
			OffsetM:      b,
			RMSResidualM: math.Sqrt(ss / float64(len(ts))),
		}
	}
	return out, nil
}
