package rem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func area100() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100} }

func TestAddMeasurementAverages(t *testing.T) {
	m := New(area100(), 1)
	m.AddMeasurement(geom.V2(10.2, 10.7), 10)
	m.AddMeasurement(geom.V2(10.8, 10.1), 20) // same 1m cell
	if got := m.Value(geom.V2(10.5, 10.5)); got != 15 {
		t.Errorf("cell mean = %v, want 15", got)
	}
	if m.MeasuredCells() != 1 {
		t.Errorf("measured cells = %d", m.MeasuredCells())
	}
	cx, cy := m.Grid().CellOf(geom.V2(10.5, 10.5))
	if !m.Measured(cx, cy) {
		t.Error("cell should be measured")
	}
	if m.Measured(0, 0) {
		t.Error("untouched cell should not be measured")
	}
}

func TestAddMeasurementOutsideIgnored(t *testing.T) {
	m := New(area100(), 1)
	m.AddMeasurement(geom.V2(-5, 50), 10)
	m.AddMeasurement(geom.V2(500, 50), 10)
	if m.MeasuredCells() != 0 {
		t.Error("out-of-area samples must be dropped")
	}
}

func TestFillFromPreservesMeasurements(t *testing.T) {
	m := New(area100(), 1)
	m.AddMeasurement(geom.V2(50, 50), 33)
	m.FillFrom(func(geom.Vec2) float64 { return -7 })
	if m.Value(geom.V2(50, 50)) != 33 {
		t.Error("measured cell overwritten by model fill")
	}
	if m.Value(geom.V2(10, 10)) != -7 {
		t.Error("unmeasured cell not filled")
	}
}

func TestInterpolateExactAtSamplesAndBounded(t *testing.T) {
	m := New(area100(), 1)
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 200; i++ {
		p := geom.V2(rng.Float64()*100, rng.Float64()*100)
		v := rng.Float64()*30 - 5
		m.AddMeasurement(p, v)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if err := m.Interpolate(); err != nil {
		t.Fatal(err)
	}
	// IDW is a convex combination: all values within [lo, hi].
	m.Grid().EachCell(func(cx, cy int, v float64) {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("cell (%d,%d)=%v outside sample range [%v,%v]", cx, cy, v, lo, hi)
		}
	})
}

func TestInterpolateBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 40, MaxY: 40}, 1)
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 3 + rng.Intn(30)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 10
			m.AddMeasurement(geom.V2(rng.Float64()*40, rng.Float64()*40), v)
		}
		// Recompute actual cell means for bounds.
		m.Grid().EachCell(func(cx, cy int, v float64) {
			if m.Measured(cx, cy) {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		})
		if err := m.Interpolate(); err != nil {
			return false
		}
		ok := true
		m.Grid().EachCell(func(cx, cy int, v float64) {
			if v < lo-1e-9 || v > hi+1e-9 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateRecoversSmoothField(t *testing.T) {
	// Sample a smooth field on a coarse lattice; IDW should
	// reconstruct it within a small error.
	field := func(p geom.Vec2) float64 { return 0.2*p.X + 0.1*p.Y }
	m := New(area100(), 1)
	for x := 2.5; x < 100; x += 5 {
		for y := 2.5; y < 100; y += 5 {
			m.AddMeasurement(geom.V2(x, y), field(geom.V2(x, y)))
		}
	}
	if err := m.Interpolate(); err != nil {
		t.Fatal(err)
	}
	var worst float64
	m.Grid().EachCell(func(cx, cy int, v float64) {
		c := m.Grid().CellCenter(cx, cy)
		if e := math.Abs(v - field(c)); e > worst {
			worst = e
		}
	})
	if worst > 2 {
		t.Errorf("worst IDW reconstruction error %v, want <= 2", worst)
	}
}

func TestInterpolateNoMeasurements(t *testing.T) {
	m := New(area100(), 1)
	if err := m.Interpolate(); err != ErrNoMeasurements {
		t.Errorf("err = %v, want ErrNoMeasurements", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(area100(), 1)
	m.AddMeasurement(geom.V2(5, 5), 10)
	c := m.Clone()
	c.AddMeasurement(geom.V2(5, 5), 30)
	if m.Value(geom.V2(5, 5)) != 10 {
		t.Error("clone shares measurement state")
	}
	if c.Value(geom.V2(5, 5)) != 20 {
		t.Error("clone mean wrong")
	}
}

func TestGradient(t *testing.T) {
	g := geom.NewGrid(geom.V2(0, 0), 1, 3, 3)
	// Step edge: left column 0, others 10.
	for cy := 0; cy < 3; cy++ {
		g.Set(1, cy, 10)
		g.Set(2, cy, 10)
	}
	grad := Gradient(g)
	if grad.At(0, 1) != 10 || grad.At(1, 1) != 10 {
		t.Errorf("edge gradients = %v, %v, want 10", grad.At(0, 1), grad.At(1, 1))
	}
	if grad.At(2, 1) != 0 {
		t.Errorf("flat-region gradient = %v, want 0", grad.At(2, 1))
	}
}

func TestGradientFlatFieldZero(t *testing.T) {
	g := geom.NewGrid(geom.V2(0, 0), 1, 10, 10)
	g.Fill(42)
	grad := Gradient(g)
	for _, v := range grad.Values() {
		if v != 0 {
			t.Fatal("flat field should have zero gradient")
		}
	}
	if cells := HighGradientCells(grad); cells != nil {
		t.Errorf("flat field yielded %d high-gradient cells", len(cells))
	}
}

func TestHighGradientCells(t *testing.T) {
	g := geom.NewGrid(geom.V2(0, 0), 1, 10, 10)
	// One hot spot creates a localised gradient bump.
	g.Set(5, 5, 100)
	cells := HighGradientCells(Gradient(g))
	if len(cells) == 0 {
		t.Fatal("expected high-gradient cells")
	}
	// All returned cells should be near the hot spot (within its
	// 4-neighbour halo).
	for _, c := range cells {
		if c.Dist(geom.V2(5.5, 5.5)) > 2.5 {
			t.Errorf("high-gradient cell %v far from hot spot", c)
		}
	}
}

func TestMedianAbsError(t *testing.T) {
	m := New(area100(), 1)
	m.FillFrom(func(geom.Vec2) float64 { return 10 })
	truth := geom.GridOver(area100(), 5)
	truth.Fill(13)
	if got := MedianAbsError(m, truth); got != 3 {
		t.Errorf("median abs error = %v, want 3", got)
	}
	est := geom.GridOver(area100(), 2)
	est.Fill(9)
	if got := MedianAbsErrorGrid(est, truth); got != 4 {
		t.Errorf("grid median abs error = %v, want 4", got)
	}
}

func makeMapFill(v float64) *Map {
	m := New(area100(), 10)
	m.FillFrom(func(geom.Vec2) float64 { return v })
	return m
}

func TestPlaceMaxMin(t *testing.T) {
	a := makeMapFill(10)
	b := makeMapFill(20)
	// Make one cell the clear max-min winner.
	a.Grid().Set(3, 4, 30)
	b.Grid().Set(3, 4, 25)
	pos, v, err := Place([]*Map{a, b}, MaxMin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 25 {
		t.Errorf("max-min value = %v, want 25", v)
	}
	want := a.Grid().CellCenter(3, 4)
	if pos != want {
		t.Errorf("position = %v, want %v", pos, want)
	}
}

func TestPlaceMaxMeanAndWeighted(t *testing.T) {
	a := makeMapFill(10)
	b := makeMapFill(20)
	a.Grid().Set(1, 1, 100) // mean winner at (1,1)
	pos, v, err := Place([]*Map{a, b}, MaxMean, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 60 || pos != a.Grid().CellCenter(1, 1) {
		t.Errorf("max-mean = %v at %v", v, pos)
	}
	// Weighted: weight b heavily; b is flat so any cell ties — value
	// check only.
	_, v, err = Place([]*Map{a, b}, MaxWeighted, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != 20 {
		t.Errorf("weighted value = %v, want 20", v)
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, _, err := Place(nil, MaxMin, nil); err == nil {
		t.Error("empty input should fail")
	}
	a := makeMapFill(1)
	small := New(area100(), 50)
	if _, _, err := Place([]*Map{a, small}, MaxMin, nil); err == nil {
		t.Error("geometry mismatch should fail")
	}
	if _, _, err := Place([]*Map{a}, MaxWeighted, nil); err == nil {
		t.Error("missing weights should fail")
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxMin.String() != "max-min" || MaxMean.String() != "max-mean" || MaxWeighted.String() != "max-weighted" {
		t.Error("objective names")
	}
	if Objective(9).String() == "" {
		t.Error("unknown objective should still print")
	}
}

func TestOptimalPlacement(t *testing.T) {
	g1 := geom.GridOver(area100(), 10)
	g2 := geom.GridOver(area100(), 10)
	g1.Fill(5)
	g2.Fill(8)
	g1.Set(2, 2, 50)
	g2.Set(2, 2, 40)
	pos, v := OptimalPlacement([]*geom.Grid{g1, g2}, MaxMin)
	if v != 40 || pos != g1.CellCenter(2, 2) {
		t.Errorf("optimal = %v at %v", v, pos)
	}
	if _, v := OptimalPlacement(nil, MaxMin); !math.IsInf(v, -1) {
		t.Error("empty optimal should be -Inf")
	}
}

func TestStoreReuseRadius(t *testing.T) {
	s := NewStore(10)
	m := makeMapFill(7)
	s.Put(geom.V2(50, 50), m)
	if s.Lookup(geom.V2(55, 50)) == nil {
		t.Error("lookup within R should hit")
	}
	if s.Lookup(geom.V2(70, 50)) != nil {
		t.Error("lookup beyond R should miss")
	}
	if s.Len() != 1 {
		t.Error("store length")
	}
}

func TestStoreLookupReturnsClone(t *testing.T) {
	s := NewStore(10)
	s.Put(geom.V2(50, 50), makeMapFill(7))
	got := s.Lookup(geom.V2(50, 50))
	got.Grid().Fill(-99)
	again := s.Lookup(geom.V2(50, 50))
	if again.Value(geom.V2(50, 50)) != 7 {
		t.Error("store entries must be immutable to callers")
	}
}

func TestStoreReplacesWithinR(t *testing.T) {
	s := NewStore(10)
	s.Put(geom.V2(50, 50), makeMapFill(1))
	s.Put(geom.V2(52, 50), makeMapFill(2)) // within R: replaces
	if s.Len() != 1 {
		t.Fatalf("store length = %d, want 1", s.Len())
	}
	if got := s.Lookup(geom.V2(50, 50)); got.Value(geom.V2(0, 0)) != 2 {
		t.Error("newer REM should replace within R")
	}
	s.Put(geom.V2(80, 50), makeMapFill(3)) // outside R: new entry
	if s.Len() != 2 {
		t.Error("distinct position should append")
	}
	if len(s.Positions()) != 2 {
		t.Error("positions accessor")
	}
}

func TestStoreNearestWins(t *testing.T) {
	s := NewStore(10)
	s.Put(geom.V2(40, 50), makeMapFill(1))
	s.Put(geom.V2(60, 50), makeMapFill(2))
	got := s.Lookup(geom.V2(56, 50))
	if got == nil || got.Value(geom.V2(0, 0)) != 2 {
		t.Error("nearest stored REM should win")
	}
}

func BenchmarkInterpolate250(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := New(geom.Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}, 1)
		for j := 0; j < 800; j++ {
			m.AddMeasurement(geom.V2(rng.Float64()*250, rng.Float64()*250), rng.NormFloat64()*10)
		}
		b.StartTimer()
		if err := m.Interpolate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpolateFlight interpolates a 250 m FLAT-sized map at
// the controller's 2 m cells from samples taken every half metre along
// a ~200 m measurement flight, with a model prior filled first. Sparse
// polyline samples leave most cells far from any measurement, so each
// cell's neighbour search runs over many bucket rings; the uniform
// scatter of BenchmarkInterpolate250 never shows that.
func BenchmarkInterpolateFlight(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}
	tour := []geom.Vec2{geom.V2(60, 80), geom.V2(140, 60), geom.V2(170, 120), geom.V2(120, 150)}
	base := New(area, 2)
	base.FillFrom(func(p geom.Vec2) float64 { return 60 - 20*math.Log10(1+p.Dist(geom.V2(125, 125))) })
	for i := 0; i+1 < len(tour); i++ {
		p, q := tour[i], tour[i+1]
		for d := 0.0; d < p.Dist(q); d += 0.5 {
			s := p.Add(q.Sub(p).Scale(d / p.Dist(q)))
			base.AddMeasurement(s, 30-0.1*s.Dist(geom.V2(125, 125))+rng.NormFloat64()*3)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		b.StartTimer()
		if err := m.Interpolate(); err != nil {
			b.Fatal(err)
		}
	}
}
