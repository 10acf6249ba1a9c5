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
}

// ErrInsufficientData is returned when fewer than 4 tuples are
// provided; 3 unknowns (x, y, b) need at least 4 ranges for a
// meaningful least-squares fit.
var ErrInsufficientData = errors.New("locate: need at least 4 GPS-ToF tuples")

// ErrDegenerateGeometry is what a UE's fixed-offset solve reports when
// its flight spans less than a metre: range-only multilateration from
// a single point is unobservable (any bearing fits). No offset
// candidate is then feasible, and SolveJoint fails its scan.
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

// huberWeight implements the Huber IRLS weight: 1 inside delta,
// delta/|e| outside.
func huberWeight(e, delta float64) float64 {
	ae := math.Abs(e)
	if ae <= delta {
		return 1
	}
	return delta / ae
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
