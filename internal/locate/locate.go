// Package locate implements SkyRAN's offset-incorporated
// multilateration (§3.2.3): given GPS-ToF tuples collected along a
// localization flight, recover the UE ground position together with
// the unknown constant processing-delay offset.
//
// Each tuple contributes a residual ‖p_i − u‖ + b − r_i, where p_i is
// the UAV position, u the UE position (on the terrain surface), b the
// offset and r_i the measured range. The system is solved by damped
// Gauss-Newton with Huber robust weighting, which tolerates the
// NLOS-biased, noisy ranges the UAV collects in motion.
package locate

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/ranging"
)

// Options tunes the solver. Zero values select the documented
// defaults.
type Options struct {
	// MaxIter bounds Gauss-Newton iterations (default 100).
	MaxIter int
	// Tol is the convergence threshold on the parameter step in metres
	// (default 1e-4).
	Tol float64
	// HuberDeltaM is the residual scale beyond which measurements are
	// down-weighted (default 15 m, ~3 ToF resolution steps).
	HuberDeltaM float64
	// GroundZ maps a horizontal position to the UE antenna altitude
	// (terrain + antenna height). Nil means a flat ground at z = 1.5.
	GroundZ func(geom.Vec2) float64
	// Bounds clamps the solution to the operating area when non-zero.
	Bounds geom.Rect
	// OffsetPrior, when non-nil, regularises the processing-delay
	// offset towards a calibrated value. The offset is a property of
	// the eNodeB hardware, so a one-time ground calibration gives a
	// tight prior; without it, short localization flights leave the
	// offset weakly observable (σ_b ≈ 15 m for a 40 m aperture) and
	// the radial position error inflates accordingly.
	OffsetPrior *OffsetPrior
}

// OffsetPrior is a Gaussian prior on the shared range offset.
type OffsetPrior struct {
	MeanM  float64
	SigmaM float64
}

func (o *Options) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.HuberDeltaM == 0 {
		o.HuberDeltaM = 15
	}
	if o.GroundZ == nil {
		o.GroundZ = func(geom.Vec2) float64 { return 1.5 }
	}
}

// Result is the solver output.
type Result struct {
	// UE is the estimated UE ground position.
	UE geom.Vec2
	// OffsetM is the recovered constant range offset b.
	OffsetM float64
	// RMSResidualM is the root-mean-square of the final residuals, a
	// quality indicator (large values signal NLOS-dominated data).
	RMSResidualM float64
	// Iterations actually used.
	Iterations int
}

// ErrInsufficientData is returned when fewer than 4 tuples are
// provided; 3 unknowns (x, y, b) need at least 4 ranges for a
// meaningful least-squares fit.
var ErrInsufficientData = errors.New("locate: need at least 4 GPS-ToF tuples")

// ErrDegenerateGeometry is returned when the flight trajectory spans
// less than a metre: range-only multilateration from a single point is
// unobservable (any bearing fits).
var ErrDegenerateGeometry = errors.New("locate: flight trajectory spans < 1 m, geometry unobservable")

// flightAperture returns the diagonal of the bounding box of the UAV
// positions — the geometric aperture of the synthetic array.
func flightAperture(tuples []ranging.Tuple) float64 {
	minP := tuples[0].UAVPos
	maxP := tuples[0].UAVPos
	for _, tp := range tuples[1:] {
		p := tp.UAVPos
		minP.X = math.Min(minP.X, p.X)
		minP.Y = math.Min(minP.Y, p.Y)
		minP.Z = math.Min(minP.Z, p.Z)
		maxP.X = math.Max(maxP.X, p.X)
		maxP.Y = math.Max(maxP.Y, p.Y)
		maxP.Z = math.Max(maxP.Z, p.Z)
	}
	return maxP.Sub(minP).Norm()
}

// Solve runs the multilateration. Tuples should span a trajectory with
// some geometric diversity; a degenerate (single-point) flight yields
// an unobservable system and an error.
//
// A short, nearly straight localization flight leaves a mirror
// ambiguity: the true UE and its reflection across the flight line fit
// the ranges almost equally well, and a single descent can converge to
// the wrong lobe. Solve therefore multi-starts the optimizer from the
// flight centroid plus a ring of candidates at the median measured
// range and keeps the lowest-cost fix.
func Solve(tuples []ranging.Tuple, opts Options) (Result, error) {
	opts.defaults()
	if len(tuples) < 4 {
		return Result{}, ErrInsufficientData
	}
	if flightAperture(tuples) < 1 {
		return Result{}, ErrDegenerateGeometry
	}

	var c geom.Vec2
	for _, tp := range tuples {
		c = c.Add(tp.UAVPos.XY())
	}
	c = c.Scale(1 / float64(len(tuples)))

	ranges := make([]float64, 0, len(tuples))
	for _, tp := range tuples {
		ranges = append(ranges, tp.RangeM)
	}
	ring := median(ranges) * 0.8 // offset b is unknown, stay inside it
	inits := []geom.Vec2{c}
	for a := 0; a < 8; a++ {
		th := float64(a) * math.Pi / 4
		p := c.Add(geom.V2(math.Cos(th), math.Sin(th)).Scale(ring))
		if opts.Bounds.Area() > 0 {
			p = opts.Bounds.Clamp(p)
		}
		inits = append(inits, p)
	}

	best := Result{}
	bestCost := math.Inf(1)
	var lastErr error
	for _, init := range inits {
		res, cost, err := solveFrom(tuples, opts, init)
		if err != nil {
			lastErr = err
			continue
		}
		if cost < bestCost {
			best, bestCost = res, cost
		}
	}
	if math.IsInf(bestCost, 1) {
		if lastErr == nil {
			lastErr = fmt.Errorf("locate: no solution found")
		}
		return Result{}, lastErr
	}

	// Trimmed re-fit: NLOS ranges arrive biased tens of metres late
	// (excess path). Drop tuples whose residual exceeds 3× the median
	// absolute deviation and descend again from the current fix; this
	// recovers most of the bias the Huber weights still admit.
	if trimmed := trimOutliers(tuples, best, opts); len(trimmed) >= 4 && len(trimmed) < len(tuples) {
		if res, cost, err := solveFrom(trimmed, opts, best.UE); err == nil && cost < math.Inf(1) {
			best = res
		}
	}
	return best, nil
}

// trimOutliers returns the tuples whose residual under res is within
// max(3·MAD, HuberDelta) of the median residual.
func trimOutliers(tuples []ranging.Tuple, res Result, opts Options) []ranging.Tuple {
	z := opts.GroundZ(res.UE)
	resid := make([]float64, len(tuples))
	for i, tp := range tuples {
		resid[i] = tp.UAVPos.Dist(res.UE.WithZ(z)) + res.OffsetM - tp.RangeM
	}
	med := median(resid)
	dev := make([]float64, len(resid))
	for i, r := range resid {
		dev[i] = math.Abs(r - med)
	}
	mad := median(dev)
	cut := math.Max(3*1.4826*mad, opts.HuberDeltaM/2)
	var out []ranging.Tuple
	for i, tp := range tuples {
		if math.Abs(resid[i]-med) <= cut {
			out = append(out, tp)
		}
	}
	return out
}

// solveFrom runs one damped Gauss-Newton descent from the given
// initial UE guess and returns the fix plus its robust cost.
func solveFrom(tuples []ranging.Tuple, opts Options, init geom.Vec2) (Result, float64, error) {
	x, y := init.X, init.Y
	b := initialOffset(tuples, geom.V2(x, y), opts)

	lambda := 1e-3 // Levenberg damping
	prevCost := math.Inf(1)
	var it int
	for it = 0; it < opts.MaxIter; it++ {
		ueZ := opts.GroundZ(geom.V2(x, y))
		// Build the damped normal equations JᵀWJ Δ = −JᵀWe.
		var a [3][3]float64
		var g [3]float64
		var cost float64
		if pr := opts.OffsetPrior; pr != nil && pr.SigmaM > 0 {
			wp := 1 / (pr.SigmaM * pr.SigmaM)
			a[2][2] += wp
			g[2] += wp * (b - pr.MeanM)
			cost += wp * (b - pr.MeanM) * (b - pr.MeanM)
		}
		for _, tp := range tuples {
			dx := x - tp.UAVPos.X
			dy := y - tp.UAVPos.Y
			dz := ueZ - tp.UAVPos.Z
			d := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if d < 1e-6 {
				d = 1e-6
			}
			e := d + b - tp.RangeM
			w := huberWeight(e, opts.HuberDeltaM)
			cost += w * e * e
			j := [3]float64{dx / d, dy / d, 1}
			for r := 0; r < 3; r++ {
				g[r] += w * j[r] * e
				for cc := 0; cc < 3; cc++ {
					a[r][cc] += w * j[r] * j[cc]
				}
			}
		}
		if cost > prevCost*1.000001 {
			lambda *= 10 // step rejected: increase damping
		} else {
			lambda = math.Max(lambda/3, 1e-9)
			prevCost = cost
		}
		for r := 0; r < 3; r++ {
			a[r][r] *= 1 + lambda
		}
		step, ok := solve3(a, [3]float64{-g[0], -g[1], -g[2]})
		if !ok {
			return Result{}, 0, fmt.Errorf("locate: singular geometry (flight trajectory too degenerate)")
		}
		x += step[0]
		y += step[1]
		b += step[2]
		if opts.Bounds.Area() > 0 {
			p := opts.Bounds.Clamp(geom.V2(x, y))
			x, y = p.X, p.Y
		}
		if math.Abs(step[0])+math.Abs(step[1])+math.Abs(step[2]) < opts.Tol {
			it++
			break
		}
	}

	// Final residual statistics and robust cost for model selection
	// across multi-starts.
	ueZ := opts.GroundZ(geom.V2(x, y))
	var ss, robust float64
	for _, tp := range tuples {
		d := tp.UAVPos.Dist(geom.V3(x, y, ueZ))
		e := d + b - tp.RangeM
		ss += e * e
		robust += huberWeight(e, opts.HuberDeltaM) * e * e
	}
	return Result{
		UE:           geom.V2(x, y),
		OffsetM:      b,
		RMSResidualM: math.Sqrt(ss / float64(len(tuples))),
		Iterations:   it,
	}, robust, nil
}

// initialOffset estimates b as the median of (r_i − ‖p_i − guess‖), or
// the prior mean when a calibration prior is supplied.
func initialOffset(tuples []ranging.Tuple, guess geom.Vec2, opts Options) float64 {
	if pr := opts.OffsetPrior; pr != nil {
		return pr.MeanM
	}
	z := opts.GroundZ(guess)
	ex := make([]float64, 0, len(tuples))
	for _, tp := range tuples {
		ex = append(ex, tp.RangeM-tp.UAVPos.Dist(guess.WithZ(z)))
	}
	return median(ex)
}

// huberWeight implements the Huber IRLS weight: 1 inside delta,
// delta/|e| outside.
func huberWeight(e, delta float64) float64 {
	ae := math.Abs(e)
	if ae <= delta {
		return 1
	}
	return delta / ae
}

// solve3 solves a 3×3 linear system by Gaussian elimination with
// partial pivoting. ok is false when the matrix is (near) singular.
func solve3(a [3][3]float64, rhs [3]float64) ([3]float64, bool) {
	// Augment.
	var m [3][4]float64
	for r := 0; r < 3; r++ {
		copy(m[r][:3], a[r][:])
		m[r][3] = rhs[r]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return [3]float64{}, false
		}
		m[col], m[p] = m[p], m[col]
		inv := 1 / m[col][col]
		for c := col; c < 4; c++ {
			m[col][c] *= inv
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	return [3]float64{m[0][3], m[1][3], m[2][3]}, true
}

// median returns the middle value of xs (the mean of the two middle
// values for even n), or 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := sortedCopy(xs)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// sortedCopy returns xs sorted ascending by a stable sort under <, so
// equal values (+0 and −0 among them) keep their input order.
func sortedCopy(xs []float64) []float64 {
	cp := append([]float64(nil), xs...)
	slices.SortStableFunc(cp, func(a, b float64) int {
		switch {
		case a < b:
			return -1
		case b < a:
			return 1
		}
		return 0
	})
	return cp
}
