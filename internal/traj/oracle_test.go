package traj

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// This file keeps the original KMeans — seeding that rescans every
// chosen centre per round, and Lloyd's rounds that scan every centre
// for every point — as the oracle the bounded KMeans must match bit
// for bit.

func oracleKMeans(points []geom.Vec2, k int, rng *rand.Rand) []geom.Vec2 {
	if len(points) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(points) {
		k = len(points)
	}

	centers := make([]geom.Vec2, 0, k)
	centers = append(centers, points[rng.Intn(len(points))])
	d2 := make([]float64, len(points))
	for len(centers) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := p.Sub(c).Dot(p.Sub(c)); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			centers = append(centers, points[rng.Intn(len(points))])
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, points[idx])
	}

	assign := make([]int, len(points))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range points {
			best, bi := math.Inf(1), 0
			for ci, c := range centers {
				if d := p.Sub(c).Dot(p.Sub(c)); d < best {
					best, bi = d, ci
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		sums := make([]geom.Vec2, k)
		counts := make([]int, k)
		for i, p := range points {
			sums[assign[i]] = sums[assign[i]].Add(p)
			counts[assign[i]]++
		}
		for ci := range centers {
			if counts[ci] > 0 {
				centers[ci] = sums[ci].Scale(1 / float64(counts[ci]))
			}
		}
	}
	return centers
}

// oraclePoints draws n points in one of five layouts: uniform scatter,
// Gaussian blobs, an integer lattice (exact distance ties between
// centres), a few sites repeated many times (duplicates), and a single
// point repeated (all equal). Coordinates are offset and scaled so
// that the bounds' margin sees magnitudes from metres to kilometres.
func oraclePoints(rng *rand.Rand, n, layout int) []geom.Vec2 {
	off := geom.V2(rng.NormFloat64()*500, rng.NormFloat64()*500)
	scale := []float64{1, 10, 250, 2000}[rng.Intn(4)]
	pts := make([]geom.Vec2, n)
	switch layout {
	case 0:
		for i := range pts {
			pts[i] = geom.V2(rng.Float64(), rng.Float64()).Scale(scale).Add(off)
		}
	case 1:
		blobs := make([]geom.Vec2, 1+rng.Intn(8))
		for b := range blobs {
			blobs[b] = geom.V2(rng.Float64(), rng.Float64()).Scale(scale)
		}
		for i := range pts {
			b := blobs[rng.Intn(len(blobs))]
			pts[i] = b.Add(geom.V2(rng.NormFloat64(), rng.NormFloat64()).Scale(scale / 40)).Add(off)
		}
	case 2:
		side := 1 + rng.Intn(12)
		for i := range pts {
			pts[i] = geom.V2(float64(rng.Intn(side)), float64(rng.Intn(side))).Scale(math.Round(scale/10 + 1)).Add(geom.V2(math.Round(off.X), math.Round(off.Y)))
		}
	case 3:
		sites := make([]geom.Vec2, 1+rng.Intn(5))
		for s := range sites {
			sites[s] = geom.V2(rng.Float64(), rng.Float64()).Scale(scale).Add(off)
		}
		for i := range pts {
			pts[i] = sites[rng.Intn(len(sites))]
		}
	default:
		p := geom.V2(rng.Float64(), rng.Float64()).Scale(scale).Add(off)
		for i := range pts {
			pts[i] = p
		}
	}
	return pts
}

// TestKMeansMatchesOracle checks that the bounded KMeans returns the
// original's centres bit for bit and leaves its rng where the original
// does, over 1 to ~3,000 points, k from 1 to 14 (k > n included), and
// layouts with exact ties, duplicates and all-equal points.
func TestKMeansMatchesOracle(t *testing.T) {
	var overK, bigN int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(3000)
			bigN++
		}
		k := 1 + rng.Intn(14)
		if k > n {
			overK++
		}
		pts := oraclePoints(rng, n, rng.Intn(5))
		drawSeed := rng.Int63()
		got, gr := KMeans(pts, k, rand.New(rand.NewSource(drawSeed))), rand.New(rand.NewSource(drawSeed))
		want := oracleKMeans(pts, k, gr)
		if len(got) != len(want) {
			t.Logf("seed %d: %d centres, oracle %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
				t.Logf("seed %d (n %d, k %d): centre %d = %v, oracle %v", seed, n, k, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	n := 300
	if testing.Short() {
		n = 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
	if !testing.Short() && (overK == 0 || bigN == 0) {
		t.Errorf("cases covered %d with k > n and %d with n > 200, want both > 0", overK, bigN)
	}

	// The rng stream must be consumed identically: after the same call,
	// both generators yield the same next draw.
	g := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		pts := oraclePoints(rng, n, rng.Intn(5))
		k := 1 + rng.Intn(14)
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		KMeans(pts, k, a)
		oracleKMeans(pts, k, b)
		return a.Int63() == b.Int63()
	}
	if err := quick.Check(g, &quick.Config{MaxCount: n / 3, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// TestKMeansPlanReusesBuffers checks that one kmeans value run over
// shrinking and growing point sets, as Plan's loop over K would if its
// cells changed, matches fresh oracle runs.
func TestKMeansPlanReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var km kmeans
	for _, n := range []int{500, 40, 1, 900, 900, 3} {
		pts := oraclePoints(rng, n, rng.Intn(5))
		for k := 1; k <= 14; k++ {
			seed := rng.Int63()
			got := km.run(pts, k, rand.New(rand.NewSource(seed)))
			want := oracleKMeans(pts, k, rand.New(rand.NewSource(seed)))
			for i := range want {
				if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) || math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
					t.Fatalf("n %d k %d: centre %d = %v, oracle %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAverageInfoGainMatchesPerUE checks the per-call memo: the average
// must equal the sum of per-UE InfoGains, in UE order, bit for bit,
// whether histories share polylines, are deep copies, differ, are
// empty, or differ only in the sign of a zero vertex.
func TestAverageInfoGainMatchesPerUE(t *testing.T) {
	pl := DefaultPlanner()
	neg0 := math.Copysign(0, -1)
	walk := func(rng *rand.Rand, n int) geom.Polyline {
		p := make(geom.Polyline, n)
		cur := geom.V2(rng.Float64()*250, rng.Float64()*250)
		for i := range p {
			p[i] = cur
			cur = cur.Add(geom.V2(rng.NormFloat64(), rng.NormFloat64()).Scale(3))
		}
		return p
	}
	deepCopy := func(h History) History {
		out := make(History, len(h))
		for i, p := range h {
			out[i] = append(geom.Polyline(nil), p...)
		}
		return out
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flown := []geom.Polyline{walk(rng, 1+rng.Intn(400)), walk(rng, 1+rng.Intn(400))}
		// Vertices at ±0 make two histories that compare equal under ==
		// but not under their bits.
		zero := geom.Polyline{geom.V2(0, 0), geom.V2(0, 100), geom.V2(80, 100)}
		negZero := geom.Polyline{geom.V2(neg0, neg0), geom.V2(neg0, 100), geom.V2(80, 100)}
		shared := History{flown[0], flown[1]}
		var hists []History
		for i := 0; i < 1+rng.Intn(9); i++ {
			var h History
			switch rng.Intn(7) {
			case 0:
				h = shared
			case 1:
				h = append(History(nil), shared...)
			case 2:
				h = deepCopy(shared)
			case 3:
				h = History{flown[rng.Intn(2)]}
			case 4:
				h = nil
			case 5:
				h = History{zero}
			default:
				h = History{negZero}
			}
			hists = append(hists, h)
		}
		cand := walk(rng, 2+rng.Intn(30))
		var sum float64
		for _, h := range hists {
			sum += pl.InfoGain(cand, h)
		}
		want := sum / float64(len(hists))
		got := pl.AverageInfoGain(cand, hists)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("seed %d: %v, per-UE sum %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
	if !sameHistory(History{geom.Polyline{geom.V2(1, 2)}}, History{geom.Polyline{geom.V2(1, 2)}}) {
		t.Error("equal vertex bits in separate arrays should match")
	}
	if sameHistory(History{geom.Polyline{geom.V2(0, 0)}}, History{geom.Polyline{geom.V2(neg0, 0)}}) {
		t.Error("+0 and -0 vertices should not match")
	}
	if sameHistory(History{nil}, History{}) {
		t.Error("histories with different polyline counts should not match")
	}
}
