package locate

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/ranging"
)

// CRLB computes the Cramér-Rao lower bound on localization accuracy
// for a given flight geometry: no unbiased estimator of (x, y, b) from
// range measurements with i.i.d. Gaussian noise can beat it. It is the
// analysis tool behind this repo's localization design decisions — it
// quantifies how a short straight flight leaves the offset b nearly
// unobservable (huge σ_b) and how a closed loop or a calibration prior
// restores the bound, matching what Figs 18/19 measure empirically.

// CRLBResult reports the per-parameter standard-deviation bounds.
type CRLBResult struct {
	// SigmaXM / SigmaYM bound the UE position axes; SigmaPosM is the
	// RMS of the two.
	SigmaXM, SigmaYM, SigmaPosM float64
	// SigmaBM bounds the shared range offset.
	SigmaBM float64
	// Observable is false when the Fisher information matrix is
	// singular (degenerate geometry).
	Observable bool
}

// CRLBOptions configure the bound.
type CRLBOptions struct {
	// RangeSigmaM is the per-tuple range noise σ (required > 0).
	RangeSigmaM float64
	// UEZ is the assumed UE antenna altitude (default 1.5 m).
	UEZ float64
	// PriorSigmaBM, when > 0, adds a Gaussian calibration prior on the
	// offset to the information matrix (see locate.OffsetPrior).
	PriorSigmaBM float64
}

// CRLB evaluates the bound for a UE at trueUE given the tuple
// geometry. Only tuple positions matter; measured ranges are ignored.
func CRLB(tuples []ranging.Tuple, trueUE geom.Vec2, opts CRLBOptions) CRLBResult {
	if opts.RangeSigmaM <= 0 || len(tuples) == 0 {
		return CRLBResult{}
	}
	ueZ := opts.UEZ
	if ueZ == 0 {
		ueZ = 1.5
	}
	ue3 := trueUE.WithZ(ueZ)

	// Fisher information J = (1/σ²) Σ gᵢ gᵢᵀ with gᵢ = ∂rᵢ/∂(x,y,b).
	var j [3][3]float64
	inv := 1 / (opts.RangeSigmaM * opts.RangeSigmaM)
	for _, tp := range tuples {
		d := tp.UAVPos.Dist(ue3)
		if d < 1e-9 {
			continue
		}
		g := [3]float64{
			(trueUE.X - tp.UAVPos.X) / d,
			(trueUE.Y - tp.UAVPos.Y) / d,
			1,
		}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				j[r][c] += inv * g[r] * g[c]
			}
		}
	}
	if opts.PriorSigmaBM > 0 {
		j[2][2] += 1 / (opts.PriorSigmaBM * opts.PriorSigmaBM)
	}

	cov, ok := invert3(j)
	if !ok || cov[0][0] <= 0 || cov[1][1] <= 0 || cov[2][2] <= 0 {
		return CRLBResult{}
	}
	sx, sy := math.Sqrt(cov[0][0]), math.Sqrt(cov[1][1])
	return CRLBResult{
		SigmaXM:    sx,
		SigmaYM:    sy,
		SigmaPosM:  math.Sqrt((sx*sx + sy*sy) / 2),
		SigmaBM:    math.Sqrt(cov[2][2]),
		Observable: true,
	}
}

// invert3 inverts a symmetric 3×3 matrix via the adjugate.
func invert3(m [3][3]float64) ([3][3]float64, bool) {
	det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	if math.Abs(det) < 1e-12 {
		return [3][3]float64{}, false
	}
	inv := 1 / det
	var out [3][3]float64
	out[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) * inv
	out[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) * inv
	out[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) * inv
	out[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) * inv
	out[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) * inv
	out[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) * inv
	out[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) * inv
	out[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) * inv
	out[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) * inv
	return out, true
}

// loopTuples builds tuples along a circle of the given radius around
// center at altitude alt.
func loopTuples(center geom.Vec2, radius, alt float64, n int) []ranging.Tuple {
	out := make([]ranging.Tuple, n)
	for i := range out {
		th := 2 * math.Pi * float64(i) / float64(n)
		out[i].UAVPos = geom.V3(center.X+radius*math.Cos(th), center.Y+radius*math.Sin(th), alt)
	}
	return out
}

// lineTuples builds tuples along a straight segment.
func lineTuples(a, b geom.Vec3, n int) []ranging.Tuple {
	out := make([]ranging.Tuple, n)
	for i := range out {
		t := float64(i) / float64(n-1)
		out[i].UAVPos = a.Lerp(b, t)
	}
	return out
}

func TestCRLBDegenerateAndInvalidInputs(t *testing.T) {
	if CRLB(nil, geom.V2(0, 0), CRLBOptions{RangeSigmaM: 2}).Observable {
		t.Error("no tuples should be unobservable")
	}
	tuples := loopTuples(geom.V2(0, 0), 10, 60, 50)
	if CRLB(tuples, geom.V2(100, 0), CRLBOptions{}).Observable {
		t.Error("zero sigma should be rejected")
	}
	// All tuples at one point: singular.
	same := make([]ranging.Tuple, 10)
	for i := range same {
		same[i].UAVPos = geom.V3(0, 0, 60)
	}
	if CRLB(same, geom.V2(100, 0), CRLBOptions{RangeSigmaM: 2}).Observable {
		t.Error("single-point geometry should be unobservable")
	}
}

func TestCRLBLoopBeatsLineForOffset(t *testing.T) {
	// The design decision behind traj.LocalizationLoop, in bound form:
	// a closed loop constrains the offset (and hence position) far
	// better than a straight segment of the same span.
	ue := geom.V2(150, 0)
	line := CRLB(lineTuples(geom.V3(-15, 0, 60), geom.V3(15, 0, 60), 120), ue,
		CRLBOptions{RangeSigmaM: 2})
	loop := CRLB(loopTuples(geom.V2(0, 0), 15, 60, 120), ue,
		CRLBOptions{RangeSigmaM: 2})
	if !loop.Observable {
		t.Fatal("loop should be observable")
	}
	if line.Observable && loop.SigmaPosM >= line.SigmaPosM {
		t.Errorf("loop bound %.1f m not better than line %.1f m", loop.SigmaPosM, line.SigmaPosM)
	}
}

func TestCRLBPriorTightensOffset(t *testing.T) {
	ue := geom.V2(150, 30)
	tuples := loopTuples(geom.V2(0, 0), 12, 60, 100)
	free := CRLB(tuples, ue, CRLBOptions{RangeSigmaM: 2})
	prior := CRLB(tuples, ue, CRLBOptions{RangeSigmaM: 2, PriorSigmaBM: 5})
	if !free.Observable || !prior.Observable {
		t.Fatal("both should be observable")
	}
	if prior.SigmaBM >= free.SigmaBM {
		t.Errorf("prior did not tighten σ_b: %.1f vs %.1f", prior.SigmaBM, free.SigmaBM)
	}
	if prior.SigmaBM > 5.01 {
		t.Errorf("σ_b %.2f above the prior itself", prior.SigmaBM)
	}
	if prior.SigmaPosM >= free.SigmaPosM {
		t.Errorf("prior did not help position: %.1f vs %.1f", prior.SigmaPosM, free.SigmaPosM)
	}
}

func TestCRLBScalesWithNoiseAndSamples(t *testing.T) {
	ue := geom.V2(100, 50)
	mk := func(sigma float64, n int) CRLBResult {
		return CRLB(loopTuples(geom.V2(0, 0), 15, 60, n), ue, CRLBOptions{RangeSigmaM: sigma})
	}
	base := mk(2, 100)
	noisy := mk(4, 100)
	dense := mk(2, 400)
	// Doubling noise doubles the bound; 4x samples halve it.
	if math.Abs(noisy.SigmaPosM/base.SigmaPosM-2) > 0.01 {
		t.Errorf("noise scaling: %.3f", noisy.SigmaPosM/base.SigmaPosM)
	}
	if math.Abs(dense.SigmaPosM/base.SigmaPosM-0.5) > 0.01 {
		t.Errorf("sample scaling: %.3f", dense.SigmaPosM/base.SigmaPosM)
	}
}

func TestCRLBConsistentWithMeasuredAccuracy(t *testing.T) {
	// The bound must not exceed what the solver actually achieves in
	// the matching synthetic setup (makeFlight from locate_test).
	rngSetup := loopTuples(geom.V2(110, 140), 12, 60, 120)
	ue := geom.V2(180, 90)
	res := CRLB(rngSetup, ue, CRLBOptions{RangeSigmaM: 4.5, PriorSigmaBM: 5})
	if !res.Observable {
		t.Fatal("setup should be observable")
	}
	// Fig 18-style measured medians are 5-15 m; the bound must sit at
	// or below that order.
	if res.SigmaPosM > 15 {
		t.Errorf("CRLB %.1f m above measured accuracy — bound or model wrong", res.SigmaPosM)
	}
	if res.SigmaPosM < 0.1 {
		t.Errorf("CRLB %.3f m implausibly tight", res.SigmaPosM)
	}
}
