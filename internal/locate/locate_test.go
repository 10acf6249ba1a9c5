package locate

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/ranging"
)

// makeFlight synthesizes tuples along a flight trajectory for a UE at
// ue with range offset b and additive Gaussian range noise sigma.
func makeFlight(ue geom.Vec2, ueZ, b, sigma float64, n int, rng *rand.Rand) []ranging.Tuple {
	ts := make([]ranging.Tuple, 0, n)
	for i := 0; i < n; i++ {
		// A short L-shaped flight (the paper's localization flights are
		// ~20 m random trajectories at altitude).
		t := float64(i) / float64(n-1)
		var p geom.Vec3
		if t < 0.5 {
			p = geom.V3(100+40*t, 130, 60)
		} else {
			p = geom.V3(120, 130+40*(t-0.5), 60)
		}
		d := p.Dist(ue.WithZ(ueZ))
		ts = append(ts, ranging.Tuple{UAVPos: p, RangeM: d + b + rng.NormFloat64()*sigma, Samples: 2})
	}
	return ts
}

// solveOne localizes a single UE through SolveJoint, the only solver
// the product runs.
func solveOne(ts []ranging.Tuple, opts Options) (Result, error) {
	res, err := SolveJoint([][]ranging.Tuple{ts}, opts)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

func TestSolveExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ue := geom.V2(180, 90)
	ts := makeFlight(ue, 1.5, 37.5, 0, 40, rng)
	res, err := solveOne(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.UE.Dist(ue) > 0.1 {
		t.Errorf("UE = %v, want %v (err %.3f m)", res.UE, ue, res.UE.Dist(ue))
	}
	if math.Abs(res.OffsetM-37.5) > 0.1 {
		t.Errorf("offset = %v, want 37.5", res.OffsetM)
	}
	if res.RMSResidualM > 0.01 {
		t.Errorf("residual = %v on noiseless data", res.RMSResidualM)
	}
}

func TestSolveZeroNoiseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(uxr, uyr, br uint16) bool {
		ue := geom.V2(float64(uxr%250), float64(uyr%250))
		b := float64(br%100) - 50
		ts := makeFlight(ue, 1.5, b, 0, 30, rng)
		res, err := solveOne(ts, Options{})
		if err != nil {
			return false
		}
		return res.UE.Dist(ue) < 1 && math.Abs(res.OffsetM-b) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveNoisyAccuracyMedian(t *testing.T) {
	// With 4-5 m range noise (the paper's SRS ranging accuracy) over a
	// 40 m flight, single-UE localization should have a small median
	// error. (The tail can be long: the radial/offset ambiguity blows
	// up for distant UEs — that is exactly why SolveJoint shares the
	// offset across UEs.)
	rng := rand.New(rand.NewSource(3))
	var errs []float64
	for trial := 0; trial < 30; trial++ {
		ue := geom.V2(60+rng.Float64()*140, 60+rng.Float64()*140)
		ts := makeFlight(ue, 1.5, 30, 4.5, 120, rng)
		res, err := solveOne(ts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, res.UE.Dist(ue))
	}
	if med := median(errs); med > 12 {
		t.Errorf("median noisy localization error %.1f m, want <= 12", med)
	}
}

func TestSolveJointSharedOffsetImproves(t *testing.T) {
	// Seven UEs spread around the area, one shared offset: the joint
	// solve should beat the mean single-UE error and recover the
	// offset well (paper: 5-7 m median with 7 UEs).
	rng := rand.New(rand.NewSource(7))
	ues := []geom.Vec2{
		geom.V2(60, 60), geom.V2(220, 70), geom.V2(150, 230), geom.V2(40, 180), geom.V2(200, 200), geom.V2(120, 40), geom.V2(250, 140),
	}
	const trueB = 42.0
	var perUE [][]ranging.Tuple
	for _, ue := range ues {
		perUE = append(perUE, makeFlight(ue, 1.5, trueB, 4.5, 120, rng))
	}
	// With a calibrated offset prior (the controller calibrates the
	// processing delay on the ground), accuracy reaches the paper's
	// 5-7 m band.
	opts := Options{OffsetPrior: &OffsetPrior{MeanM: 40, SigmaM: 5}}
	joint, err := SolveJoint(perUE, opts)
	if err != nil {
		t.Fatal(err)
	}
	var jointSum, singleSum float64
	for i, ue := range ues {
		jointSum += joint[i].UE.Dist(ue)
		single, err := solveOne(perUE[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		singleSum += single.UE.Dist(ue)
	}
	jm, sm := jointSum/float64(len(ues)), singleSum/float64(len(ues))
	if jm > sm+2 {
		t.Errorf("joint mean error %.1f m clearly worse than single %.1f m", jm, sm)
	}
	// 4.5 m per-tuple noise is conservative (the live SRS pipeline
	// averages two ToFs per tuple and is quantization-limited at ~2 m
	// in LOS); the end-to-end median lands in the paper's 5-7 m band,
	// checked in the Fig 18 experiment.
	if jm > 11 {
		t.Errorf("joint mean error %.1f m, want <= 11", jm)
	}
	if math.Abs(joint[0].OffsetM-trueB) > 8 {
		t.Errorf("shared offset = %.1f, want ~%.1f", joint[0].OffsetM, trueB)
	}
}

func TestSolveJointUncalibratedStillReasonable(t *testing.T) {
	// Without a prior the offset is weakly observable from a 40 m
	// aperture (σ_b ≈ 15 m); the fix degrades gracefully rather than
	// diverging.
	rng := rand.New(rand.NewSource(8))
	ues := []geom.Vec2{geom.V2(60, 60), geom.V2(220, 70), geom.V2(150, 230), geom.V2(40, 180), geom.V2(200, 200)}
	var perUE [][]ranging.Tuple
	for _, ue := range ues {
		perUE = append(perUE, makeFlight(ue, 1.5, 42, 4.5, 120, rng))
	}
	joint, err := SolveJoint(perUE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, ue := range ues {
		sum += joint[i].UE.Dist(ue)
	}
	if mean := sum / float64(len(ues)); mean > 25 {
		t.Errorf("uncalibrated joint mean error %.1f m, want <= 25", mean)
	}
}

func TestSolveJointValidation(t *testing.T) {
	if _, err := SolveJoint(nil, Options{}); err == nil {
		t.Error("no UEs should fail")
	}
	if _, err := SolveJoint([][]ranging.Tuple{nil}, Options{}); err == nil {
		t.Error("empty tuple set should fail")
	}
}

func TestSolveRobustToNLOSOutliers(t *testing.T) {
	// A quarter of the ranges biased +40 m (NLOS): Huber weighting and
	// the MAD gate of SolveJointRobust should keep the fix close.
	rng := rand.New(rand.NewSource(4))
	ue := geom.V2(170, 60)
	ts := makeFlight(ue, 1.5, 20, 2, 80, rng)
	for i := 0; i < len(ts); i += 4 {
		ts[i].RangeM += 40
	}
	out, err := SolveJointRobust([][]ranging.Tuple{ts}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := out[0]; res.UE.Dist(ue) > 15 {
		t.Errorf("NLOS-contaminated error %.1f m, want <= 15", res.UE.Dist(ue))
	}
}

func TestSolveInsufficientData(t *testing.T) {
	ts := makeFlight(geom.V2(100, 100), 1.5, 0, 0, 3, rand.New(rand.NewSource(1)))
	for _, ts := range [][]ranging.Tuple{nil, ts} {
		if _, err := solveOne(ts, Options{}); !errors.Is(err, ErrInsufficientData) {
			t.Errorf("%d tuples: err = %v, want ErrInsufficientData", len(ts), err)
		}
	}
}

func TestSolveDegenerateGeometry(t *testing.T) {
	// All tuples at the same point: unobservable. Every offset
	// candidate's fixed-offset solve refuses the sub-metre flight, so
	// the scan finds nothing feasible, says why, and no bogus fix comes
	// out.
	ts := make([]ranging.Tuple, 10)
	for i := range ts {
		ts[i] = ranging.Tuple{UAVPos: geom.V3(100, 100, 60), RangeM: 80}
	}
	_, err := solveOne(ts, Options{})
	if err == nil || !strings.Contains(err.Error(), "offset scan found no feasible solution") {
		t.Errorf("err = %v, want the offset scan's no-feasible-solution error", err)
	}
	if !errors.Is(err, ErrDegenerateGeometry) {
		t.Errorf("err = %v, want it to wrap ErrDegenerateGeometry", err)
	}
	u := newScanUE(ts)
	if _, _, _, err := u.solveFixedOffset(20, Options{}); err != ErrDegenerateGeometry {
		t.Errorf("fixed-offset solve err = %v, want ErrDegenerateGeometry", err)
	}
}

func TestSolveBoundsClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ue := geom.V2(240, 240)
	ts := makeFlight(ue, 1.5, 10, 3, 60, rng)
	res, err := solveOne(ts, Options{Bounds: geom.Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}})
	if err != nil {
		t.Fatal(err)
	}
	if !((geom.Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}).Contains(res.UE)) {
		t.Errorf("solution %v escaped bounds", res.UE)
	}
}

func TestSolveUsesGroundZ(t *testing.T) {
	// UE on a 20 m hill: a solver assuming flat ground misjudges the
	// slant ranges; providing GroundZ should fix it.
	rng := rand.New(rand.NewSource(6))
	ue := geom.V2(150, 150)
	const hillZ = 21.5
	ts := makeFlight(ue, hillZ, 15, 0.5, 60, rng)
	flat, err := solveOne(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hills, err := solveOne(ts, Options{GroundZ: func(geom.Vec2) float64 { return hillZ }})
	if err != nil {
		t.Fatal(err)
	}
	if hills.UE.Dist(ue) > flat.UE.Dist(ue)+0.5 {
		t.Errorf("terrain-aware fix (%.2f m) should not be worse than flat (%.2f m)",
			hills.UE.Dist(ue), flat.UE.Dist(ue))
	}
	if hills.UE.Dist(ue) > 3 {
		t.Errorf("terrain-aware error %.2f m too large", hills.UE.Dist(ue))
	}
}

func TestMedianHelper(t *testing.T) {
	if median(nil) != 0 {
		t.Error("empty median should be 0")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
	if got := median([]float64{0, math.Copysign(0, -1), 1}); !math.Signbit(got) {
		t.Errorf("median(0, -0, 1) = %v, want the -0 a stable sort leaves in the middle", got)
	}

	// The stable sort returns exactly what the original insertion sort
	// did, signed zeros included, for odd and even n with many ties.
	f := func(raw []int8, even bool) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			switch {
			case r == 0:
				xs[i] = math.Copysign(0, -1)
			case r%7 == 0:
				xs[i] = 0
			default:
				xs[i] = float64(r%5) * 0.75
			}
		}
		if even != (len(xs)%2 == 0) {
			xs = append(xs, math.Copysign(0, -1))
		}
		return math.Float64bits(median(xs)) == math.Float64bits(insertionMedian(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSolveJoint solves five UEs jointly from one 200 m square
// tour of about 1,200 tuples each, with the calibrated offset prior,
// bounds and terrain callback the SkyRAN controller passes.
func BenchmarkSolveJoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const offset = 58.6
	ues := []geom.Vec2{geom.V2(40, 60), geom.V2(210, 45), geom.V2(130, 220), geom.V2(30, 190), geom.V2(180, 160)}
	corners := []geom.Vec2{geom.V2(100, 100), geom.V2(150, 100), geom.V2(150, 150), geom.V2(100, 150)}
	const n = 1200
	perUE := make([][]ranging.Tuple, len(ues))
	for i, ue := range ues {
		ts := make([]ranging.Tuple, n)
		for k := range ts {
			leg := 4 * float64(k) / n
			a, c := corners[int(leg)], corners[(int(leg)+1)%4]
			p := a.Add(c.Sub(a).Scale(leg - math.Floor(leg))).WithZ(60)
			r := p.Dist(ue.WithZ(1.5)) + offset + rng.NormFloat64()*4
			if rng.Intn(8) == 0 {
				r += rng.Float64() * 40 // NLOS excess
			}
			ts[k] = ranging.Tuple{UAVPos: p, RangeM: r, Samples: 2}
		}
		perUE[i] = ts
	}
	opts := Options{
		Bounds:      geom.Rect{MaxX: 250, MaxY: 250},
		GroundZ:     func(geom.Vec2) float64 { return 1.5 },
		OffsetPrior: &OffsetPrior{MeanM: offset, SigmaM: 5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveJoint(perUE, opts); err != nil {
			b.Fatal(err)
		}
	}
}
