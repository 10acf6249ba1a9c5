package locate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/ranging"
)

// This file keeps the original offset scan — per-call centroid,
// aperture and insertion-sort median, descent over the tuple structs,
// every candidate summed over every UE and every descent run to Tol or
// MaxIter — as the oracle the per-UE scan in joint.go must match bit
// for bit.

func oracleScanOffset(perUE [][]ranging.Tuple, opts Options, xs, ys []float64) (float64, error) {
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

	eval := func(b float64, store bool) (float64, error) {
		var total float64
		if pr := opts.OffsetPrior; pr != nil && pr.SigmaM > 0 {
			total += (b - pr.MeanM) * (b - pr.MeanM) / (pr.SigmaM * pr.SigmaM)
		}
		for i, ts := range perUE {
			x, y, cost, err := oracleSolveFixedOffset(ts, b, opts)
			if err != nil {
				return 0, err
			}
			total += cost
			if store {
				xs[i], ys[i] = x, y
			}
		}
		return total, nil
	}

	bestB, bestCost := 0.0, math.Inf(1)
	var firstErr error
	for _, step := range []float64{10, 2, 0.5} {
		for b := lo; b <= hi+1e-9; b += step {
			c, err := eval(b, false)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if c < bestCost {
				bestCost, bestB = c, b
			}
		}
		lo, hi = bestB-step, bestB+step
	}
	if math.IsInf(bestCost, 1) {
		return 0, fmt.Errorf("locate: offset scan found no feasible solution: %w", firstErr)
	}
	if _, err := eval(bestB, true); err != nil {
		return 0, err
	}
	return bestB, nil
}

func oracleSolveFixedOffset(ts []ranging.Tuple, b float64, opts Options) (x, y, cost float64, err error) {
	if flightAperture(ts) < 1 {
		return 0, 0, 0, ErrDegenerateGeometry
	}
	var c geom.Vec2
	for _, tp := range ts {
		c = c.Add(tp.UAVPos.XY())
	}
	c = c.Scale(1 / float64(len(ts)))
	ranges := make([]float64, 0, len(ts))
	for _, tp := range ts {
		ranges = append(ranges, tp.RangeM-b)
	}
	ring := math.Max(insertionMedian(ranges)*0.8, 5)
	inits := []geom.Vec2{c}
	for a := 0; a < 8; a++ {
		th := float64(a) * math.Pi / 4
		p := c.Add(geom.V2(math.Cos(th), math.Sin(th)).Scale(ring))
		if opts.Bounds.Area() > 0 {
			p = opts.Bounds.Clamp(p)
		}
		inits = append(inits, p)
	}
	bestCost := math.Inf(1)
	for _, init := range inits {
		xx, yy, cc, e := oracleDescendFixedOffset(ts, b, opts, init)
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

func oracleDescendFixedOffset(ts []ranging.Tuple, b float64, opts Options, init geom.Vec2) (x, y, cost float64, err error) {
	x, y = init.X, init.Y
	lambda := 1e-3
	prev := math.Inf(1)
	for it := 0; it < opts.MaxIter; it++ {
		z := opts.GroundZ(geom.V2(x, y))
		var a00, a01, a11, g0, g1, c float64
		for _, tp := range ts {
			dx := x - tp.UAVPos.X
			dy := y - tp.UAVPos.Y
			dz := z - tp.UAVPos.Z
			d := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if d < 1e-6 {
				d = 1e-6
			}
			e := d + b - tp.RangeM
			w := huberWeight(e, opts.HuberDeltaM)
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

// insertionMedian is the original median: an insertion sort of a
// copy, which is stable under <.
func insertionMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// oracleFlight synthesizes n tuples for a UE at ue along one of three
// flight shapes: a closed loop, a straight line, or a hover whose
// aperture is under a metre. Ranges carry the offset b, Gaussian noise,
// occasional NLOS excess, and are quantized to a ToF step so ties are
// common.
func oracleFlight(rng *rand.Rand, ue geom.Vec2, b float64, n, shape int) []ranging.Tuple {
	c := geom.V2(40+rng.Float64()*170, 40+rng.Float64()*170)
	radius := 5 + rng.Float64()*40
	heading := rng.Float64() * 2 * math.Pi
	length := 10 + rng.Float64()*150
	alt := 30 + rng.Float64()*60
	step := []float64{0, 0.25, 1, 4.9}[rng.Intn(4)]
	ts := make([]ranging.Tuple, n)
	for i := range ts {
		t := float64(i) / float64(n)
		var p geom.Vec2
		switch shape {
		case 0:
			th := heading + 2*math.Pi*t
			p = c.Add(geom.V2(math.Cos(th), math.Sin(th)).Scale(radius))
		case 1:
			p = c.Add(geom.V2(math.Cos(heading), math.Sin(heading)).Scale(length * t))
		default:
			p = c.Add(geom.V2(rng.Float64()-0.5, rng.Float64()-0.5).Scale(0.5))
		}
		pos := p.WithZ(alt + rng.Float64()/2)
		r := pos.Dist(ue.WithZ(1.5)) + b + rng.NormFloat64()*4
		if rng.Intn(10) == 0 {
			r += rng.Float64() * 60
		}
		if step > 0 {
			r = math.Round(r/step) * step
		}
		ts[i] = ranging.Tuple{UAVPos: pos, RangeM: r, Samples: 2}
	}
	return ts
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestScanOffsetMatchesOracle checks that the per-UE scan reproduces the
// original scan bit for bit: the same offset, the same per-UE fixes and
// the same error, over random UE counts, tuple counts, flight shapes,
// priors, bounds and terrain. A second set of rows puts UEs outside
// the bounds, so that descents clamp at the edge and settle there.
func TestScanOffsetMatchesOracle(t *testing.T) {
	hills := func(p geom.Vec2) float64 { return 1.5 + 6*math.Sin(p.X/23)*math.Cos(p.Y/31) }
	var failed, large int
	check := func(seed int64, outside bool) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{}
		if rng.Intn(2) == 0 || outside {
			opts.Bounds = geom.Rect{MaxX: 250, MaxY: 250}
		}
		if rng.Intn(2) == 0 {
			opts.GroundZ = hills
		}
		b := 20 + rng.Float64()*60
		if rng.Intn(2) == 0 {
			opts.OffsetPrior = &OffsetPrior{MeanM: b + rng.NormFloat64()*3, SigmaM: 1 + rng.Float64()*8}
		}
		opts.defaults()
		k := 1 + rng.Intn(6)
		hover := -1
		if rng.Intn(5) == 0 {
			hover = rng.Intn(k)
		}
		perUE := make([][]ranging.Tuple, k)
		for i := range perUE {
			n := 4 + rng.Intn(60)
			if rng.Intn(6) == 0 {
				n = 4 + rng.Intn(1497)
				large++
			}
			shape := rng.Intn(2)
			if i == hover {
				shape = 2
			}
			ue := geom.V2(rng.Float64()*250, rng.Float64()*250)
			if outside && rng.Intn(3) != 0 {
				ue = outsideBounds(rng, ue)
			}
			perUE[i] = oracleFlight(rng, ue, b, n, shape)
		}

		// One fixed-offset solve per UE at a random offset.
		bb := b + rng.NormFloat64()*20
		for i, ts := range perUE {
			u := newScanUE(ts)
			x, y, c, err := u.solveFixedOffset(bb, opts)
			ox, oy, oc, oerr := oracleSolveFixedOffset(ts, bb, opts)
			if !sameFloat(x, ox) || !sameFloat(y, oy) || !sameFloat(c, oc) || !sameErr(err, oerr) {
				t.Logf("seed %d UE %d b %v: (%v, %v, %v, %v), oracle (%v, %v, %v, %v)", seed, i, bb, x, y, c, err, ox, oy, oc, oerr)
				return false
			}
		}

		xs, ys := make([]float64, k), make([]float64, k)
		oxs, oys := make([]float64, k), make([]float64, k)
		got, err := scanOffset(perUE, opts, xs, ys)
		want, oerr := oracleScanOffset(perUE, opts, oxs, oys)
		if !sameFloat(got, want) || !sameErr(err, oerr) {
			t.Logf("seed %d: b %v err %v, oracle b %v err %v", seed, got, err, want, oerr)
			return false
		}
		if err != nil {
			failed++
		}
		for i := range xs {
			if !sameFloat(xs[i], oxs[i]) || !sameFloat(ys[i], oys[i]) {
				t.Logf("seed %d UE %d: (%v, %v), oracle (%v, %v)", seed, i, xs[i], ys[i], oxs[i], oys[i])
				return false
			}
		}
		return true
	}
	n := 40
	if testing.Short() {
		n = 8
	}
	f := func(seed int64) bool { return check(seed, false) }
	if err := quick.Check(f, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
	if !testing.Short() && (failed == 0 || large == 0) {
		t.Errorf("cases covered %d failing scans and %d UEs with over 64 tuples, want both > 0", failed, large)
	}
	g := func(seed int64) bool { return check(seed, true) }
	if err := quick.Check(g, &quick.Config{MaxCount: n / 2, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// outsideBounds moves ue 5–150 m past one or two edges of the 250 m
// test area.
func outsideBounds(rng *rand.Rand, ue geom.Vec2) geom.Vec2 {
	past := func() float64 {
		d := 5 + rng.Float64()*145
		if rng.Intn(2) == 0 {
			return -d
		}
		return 250 + d
	}
	switch rng.Intn(3) {
	case 0:
		ue.X = past()
	case 1:
		ue.Y = past()
	default:
		ue.X, ue.Y = past(), past()
	}
	return ue
}

// TestDescentFixedPointExit runs fixed-offset descents toward a UE past
// the area's corner. They clamp at the corner with λ at its floor and
// start every later iteration from the same state. With Tol too small
// to meet and MaxIter = 1<<30, only the fixed-point exit lets them
// return; they must return the oracle's bits, which the oracle already
// reaches by its default MaxIter and keeps at twice that.
func TestDescentFixedPointExit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const b = 30
	for _, ue := range []geom.Vec2{geom.V2(420, 380), geom.V2(-60, 300), geom.V2(-90, -40)} {
		ts := oracleFlight(rng, ue, b, 300, 0)
		opts := Options{Bounds: geom.Rect{MaxX: 250, MaxY: 250}, Tol: 1e-300}
		opts.defaults()
		long, twice := opts, opts
		long.MaxIter, twice.MaxIter = 1<<30, 2*opts.MaxIter
		u := newScanUE(ts)
		for _, init := range []geom.Vec2{geom.V2(125, 125), geom.V2(240, 10), geom.V2(5, 245), u.centroid} {
			x, y, c, err := u.descendFixedOffset(b, long, init)
			ox, oy, oc, oerr := oracleDescendFixedOffset(ts, b, opts, init)
			tx, ty, tc, terr := oracleDescendFixedOffset(ts, b, twice, init)
			if err != nil || oerr != nil || terr != nil {
				t.Fatalf("UE %v from %v: errors %v, %v, %v", ue, init, err, oerr, terr)
			}
			if !sameFloat(ox, tx) || !sameFloat(oy, ty) || !sameFloat(oc, tc) {
				t.Fatalf("UE %v from %v: oracle moved between %d and %d iterations: (%v, %v, %v) → (%v, %v, %v)",
					ue, init, opts.MaxIter, twice.MaxIter, ox, oy, oc, tx, ty, tc)
			}
			if !sameFloat(x, ox) || !sameFloat(y, oy) || !sameFloat(c, oc) {
				t.Errorf("UE %v from %v: (%v, %v, %v), oracle (%v, %v, %v)", ue, init, x, y, c, ox, oy, oc)
			}
		}
	}
}
