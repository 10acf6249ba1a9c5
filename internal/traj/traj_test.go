package traj

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rem"
)

func TestKMeansBasicClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two tight blobs.
	var pts []geom.Vec2
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.V2(10+rng.NormFloat64(), 10+rng.NormFloat64()))
		pts = append(pts, geom.V2(90+rng.NormFloat64(), 90+rng.NormFloat64()))
	}
	centers := KMeans(pts, 2, rng)
	if len(centers) != 2 {
		t.Fatalf("centers = %d", len(centers))
	}
	near := func(c geom.Vec2, x, y float64) bool { return c.Dist(geom.V2(x, y)) < 5 }
	ok := (near(centers[0], 10, 10) && near(centers[1], 90, 90)) ||
		(near(centers[0], 90, 90) && near(centers[1], 10, 10))
	if !ok {
		t.Errorf("centers %v not at blob locations", centers)
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if KMeans(nil, 3, rng) != nil {
		t.Error("empty input should return nil")
	}
	pts := []geom.Vec2{geom.V2(1, 1), geom.V2(2, 2)}
	if got := KMeans(pts, 5, rng); len(got) != 2 {
		t.Errorf("k clamped to len(points): %d", len(got))
	}
	if got := KMeans(pts, 0, rng); len(got) != 1 {
		t.Errorf("k clamped to 1: %d", len(got))
	}
	// All identical points must not hang.
	same := []geom.Vec2{geom.V2(5, 5), geom.V2(5, 5), geom.V2(5, 5)}
	if got := KMeans(same, 2, rng); len(got) != 2 {
		t.Errorf("identical points: %d centers", len(got))
	}
}

func TestKMeansAssignmentOptimalityProperty(t *testing.T) {
	// Each point's assigned centre is its nearest centre, by
	// construction of AssignClusters; check WithinClusterSS does not
	// increase when re-running Lloyd's from the returned centres.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pts []geom.Vec2
		n := 20 + r.Intn(60)
		for i := 0; i < n; i++ {
			pts = append(pts, geom.V2(r.Float64()*100, r.Float64()*100))
		}
		k := 1 + r.Intn(6)
		centers := KMeans(pts, k, rng)
		ss1 := WithinClusterSS(pts, centers)
		again := KMeans(pts, k, rng)
		ss2 := WithinClusterSS(pts, again)
		// Different seeding may find different local optima; both must
		// be finite and assignments consistent.
		if math.IsNaN(ss1) || math.IsNaN(ss2) {
			return false
		}
		assign := AssignClusters(pts, centers)
		for i, p := range pts {
			for ci, c := range centers {
				if p.Dist(c) < p.Dist(centers[assign[i]])-1e-9 {
					_ = ci
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTourVisitsAllNodes(t *testing.T) {
	start := geom.V2(0, 0)
	nodes := []geom.Vec2{geom.V2(10, 0), geom.V2(10, 10), geom.V2(0, 10), geom.V2(5, 5)}
	tour := Tour(start, nodes)
	if len(tour) != 5 {
		t.Fatalf("tour length = %d", len(tour))
	}
	if tour[0] != start {
		t.Error("tour must start at start")
	}
	seen := map[geom.Vec2]bool{}
	for _, p := range tour[1:] {
		seen[p] = true
	}
	for _, n := range nodes {
		if !seen[n] {
			t.Errorf("node %v not visited", n)
		}
	}
}

func TestTourEmptyNodes(t *testing.T) {
	tour := Tour(geom.V2(3, 3), nil)
	if len(tour) != 1 || tour[0] != geom.V2(3, 3) {
		t.Errorf("empty tour = %v", tour)
	}
}

func TestTwoOptImproves(t *testing.T) {
	// A deliberately crossed path: 2-opt must not be longer than the
	// naive nearest-neighbour order.
	start := geom.V2(0, 0)
	var nodes []geom.Vec2
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 12; i++ {
		nodes = append(nodes, geom.V2(rng.Float64()*100, rng.Float64()*100))
	}
	tour := Tour(start, nodes)
	// Compare against naive order (start + nodes as given).
	naive := append(geom.Polyline{start}, nodes...)
	if tour.Length() > naive.Length()+1e-9 {
		t.Errorf("tour %.1f longer than naive %.1f", tour.Length(), naive.Length())
	}
}

func TestTourNonWorseningProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		start := geom.V2(rng.Float64()*50, rng.Float64()*50)
		n := 3 + rng.Intn(10)
		nodes := make([]geom.Vec2, n)
		for i := range nodes {
			nodes[i] = geom.V2(rng.Float64()*100, rng.Float64()*100)
		}
		tour := Tour(start, nodes)
		if len(tour) != n+1 || tour[0] != start {
			return false
		}
		// The true invariant: 2-opt starts from the greedy
		// nearest-neighbour construction and only applies improving
		// reversals, so the final tour can never exceed pure NN.
		// (It is NOT guaranteed to beat an arbitrary ordering — 2-opt
		// local optima occasionally lose to a lucky permutation.)
		nn := geom.Polyline{start}
		remaining := append([]geom.Vec2(nil), nodes...)
		cur := start
		for len(remaining) > 0 {
			bi := 0
			for i := 1; i < len(remaining); i++ {
				if cur.Dist(remaining[i]) < cur.Dist(remaining[bi]) {
					bi = i
				}
			}
			cur = remaining[bi]
			nn = append(nn, cur)
			remaining[bi] = remaining[len(remaining)-1]
			remaining = remaining[:len(remaining)-1]
		}
		return tour.Length() <= nn.Length()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInfoGainNewUEGetsIMax(t *testing.T) {
	pl := DefaultPlanner()
	cand := geom.Polyline{geom.V2(0, 0), geom.V2(50, 0)}
	if got := pl.InfoGain(cand, nil); got != pl.IMaxM {
		t.Errorf("new UE gain = %v, want IMax %v", got, pl.IMaxM)
	}
}

func TestInfoGainDecreasesWithOverlap(t *testing.T) {
	pl := DefaultPlanner()
	hist := History{geom.Polyline{geom.V2(0, 0), geom.V2(100, 0)}}
	same := geom.Polyline{geom.V2(0, 0), geom.V2(100, 0)}
	far := geom.Polyline{geom.V2(0, 80), geom.V2(100, 80)}
	gSame := pl.InfoGain(same, hist)
	gFar := pl.InfoGain(far, hist)
	if gSame >= gFar {
		t.Errorf("overlapping gain %v should be below distant gain %v", gSame, gFar)
	}
	if gSame > 1e-9 {
		t.Errorf("identical trajectory should have ~0 gain, got %v", gSame)
	}
	if math.Abs(gFar-80) > 1 {
		t.Errorf("parallel-at-80m gain = %v, want ~80", gFar)
	}
}

func TestInfoGainCappedAtIMax(t *testing.T) {
	pl := DefaultPlanner()
	hist := History{geom.Polyline{geom.V2(0, 0), geom.V2(1, 0)}}
	veryFar := geom.Polyline{geom.V2(5000, 5000), geom.V2(5100, 5000)}
	if got := pl.InfoGain(veryFar, hist); got > pl.IMaxM+1e-9 {
		t.Errorf("gain %v exceeds IMax", got)
	}
}

func TestAverageInfoGain(t *testing.T) {
	pl := DefaultPlanner()
	cand := geom.Polyline{geom.V2(0, 0), geom.V2(100, 0)}
	hists := []History{
		nil, // new UE: IMax
		{geom.Polyline{geom.V2(0, 0), geom.V2(100, 0)}}, // identical: 0
	}
	got := pl.AverageInfoGain(cand, hists)
	want := pl.IMaxM / 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("average gain = %v, want %v", got, want)
	}
	if pl.AverageInfoGain(cand, nil) != pl.IMaxM {
		t.Error("no UEs should yield IMax")
	}
}

func TestPlanPrefersUnexplored(t *testing.T) {
	// Gradient map with two high-gradient regions; history already
	// covers the southern one, so the plan should favour the north.
	g := geom.NewGrid(geom.V2(0, 0), 1, 100, 100)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		g.Set(10+rng.Intn(30), 10+rng.Intn(10), 50+rng.Float64()*10) // south blob
		g.Set(10+rng.Intn(30), 80+rng.Intn(10), 50+rng.Float64()*10) // north blob
	}
	grad := rem.Gradient(g)
	pl := DefaultPlanner()
	pl.KMin, pl.KMax = 2, 6
	southCovered := []History{{geom.Polyline{geom.V2(0, 12), geom.V2(50, 12), geom.V2(50, 18), geom.V2(0, 18)}}}
	plan, err := pl.Plan(grad, southCovered, geom.V2(50, 50), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Plan must reach the unexplored northern region.
	touchesNorth := false
	for _, p := range plan.Resample(2) {
		if p.Y > 70 {
			touchesNorth = true
			break
		}
	}
	if !touchesNorth {
		t.Errorf("plan %v never visits unexplored north", plan)
	}
}

func TestPlanFlatGradientErrors(t *testing.T) {
	g := geom.NewGrid(geom.V2(0, 0), 1, 50, 50)
	g.Fill(5)
	grad := rem.Gradient(g)
	pl := DefaultPlanner()
	if _, err := pl.Plan(grad, nil, geom.V2(25, 25), rand.New(rand.NewSource(1))); err == nil {
		t.Error("flat gradient map should fail planning")
	}
}

func TestZigzagCoversArea(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	z := Zigzag(area, 20)
	if z.Length() < 400 {
		t.Errorf("zigzag length %v too short to cover", z.Length())
	}
	b := z.Bounds()
	if b.Width() < 70 || b.Height() < 70 {
		t.Errorf("zigzag bounds %+v do not span the area", b)
	}
	for _, p := range z {
		if !area.Contains(p) {
			t.Errorf("zigzag point %v outside area", p)
		}
	}
	// Degenerate spacing defaults sanely.
	if Zigzag(area, 0).Length() == 0 {
		t.Error("zero spacing should default, not degenerate")
	}
}

// RandomFlight builds an open random-walk trajectory of the given
// total length starting at start, with 10-25 m legs, kept inside the
// area: the naive localization flight that LocalizationLoop's comment
// compares against.
func RandomFlight(area geom.Rect, start geom.Vec2, lengthM float64, rng *rand.Rand) geom.Polyline {
	p := geom.Polyline{area.Clamp(start)}
	remaining := lengthM
	cur := p[0]
	retries := 0
	for remaining > 1e-9 && retries < 64 {
		leg := math.Min(10+rng.Float64()*15, remaining)
		theta := rng.Float64() * 2 * math.Pi
		next := area.Clamp(cur.Add(geom.V2(math.Cos(theta), math.Sin(theta)).Scale(leg)))
		d := next.Dist(cur)
		if d < 1 {
			retries++ // clamped into a corner; redraw direction
			continue
		}
		retries = 0
		p = append(p, next)
		remaining -= d
		cur = next
	}
	return p
}

func TestRandomFlightLengthAndBounds(t *testing.T) {
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 300, MaxY: 300}
	rng := rand.New(rand.NewSource(6))
	for _, want := range []float64{20, 50, 120} {
		f := RandomFlight(area, geom.V2(150, 150), want, rng)
		got := f.Length()
		if math.Abs(got-want) > 1 {
			t.Errorf("flight length = %v, want ~%v", got, want)
		}
		for _, p := range f {
			if !area.Contains(p) {
				t.Errorf("flight point %v outside area", p)
			}
		}
	}
}

func TestRandomFlightCorneredTerminates(t *testing.T) {
	// A tiny area: every leg clamps. Must terminate, not hang.
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}
	rng := rand.New(rand.NewSource(7))
	f := RandomFlight(area, geom.V2(0.2, 0.2), 100, rng)
	if len(f) == 0 {
		t.Error("flight should at least contain the start")
	}
}

// BenchmarkPlan plans over a random 250 m gradient map, for one UE
// with a short history and for the controller's epoch-2 shape: five
// UEs whose histories hold the same ~1,200-vertex flown polyline.
func BenchmarkPlan(b *testing.B) {
	g := geom.NewGrid(geom.V2(0, 0), 1, 250, 250)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g.Set(rng.Intn(250), rng.Intn(250), rng.Float64()*40)
	}
	grad := rem.Gradient(g)
	pl := DefaultPlanner()
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}
	flown := Zigzag(area, 50).Resample(1)
	shared := make([]History, 5)
	for i := range shared {
		shared[i] = History{flown}
	}
	for _, c := range []struct {
		name  string
		hists []History
	}{
		{"ues=1", []History{{Zigzag(area, 50)}}},
		{"ues=5-shared", shared},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Plan(grad, c.hists, geom.V2(125, 125), rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKMeans clusters 7,800 distinct cells of a 300 m lattice,
// about the high-gradient cell count of the 5-UE controller spec, at
// the planner's smallest and largest K.
func BenchmarkKMeans(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[int]bool)
	var pts []geom.Vec2
	for len(pts) < 7800 {
		c := rng.Intn(300 * 300)
		if !seen[c] {
			seen[c] = true
			pts = append(pts, geom.V2(float64(c%300)+0.5, float64(c/300)+0.5))
		}
	}
	for _, k := range []int{4, 12} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kmeansSink = KMeans(pts, k, rand.New(rand.NewSource(int64(i))))
			}
		})
	}
}

var kmeansSink []geom.Vec2
