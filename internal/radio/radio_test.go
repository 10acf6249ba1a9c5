package radio

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/terrain"
)

func TestFSPL(t *testing.T) {
	// Textbook value: 100 m at 2.6 GHz ≈ 80.75 dB.
	got := FSPL(100, 2.6e9)
	if math.Abs(got-80.75) > 0.1 {
		t.Errorf("FSPL(100m, 2.6GHz) = %v, want ~80.75", got)
	}
	// Doubling distance adds 6.02 dB.
	if d := FSPL(200, 2.6e9) - got; math.Abs(d-6.02) > 0.01 {
		t.Errorf("doubling distance added %v dB, want ~6.02", d)
	}
	// Sub-metre clamp.
	if FSPL(0.01, 2.6e9) != FSPL(1, 2.6e9) {
		t.Error("sub-metre distances should clamp")
	}
}

func TestNoiseFloor(t *testing.T) {
	b := DefaultBudget()
	// -174 + 70 + 9 = -95 dBm for 10 MHz, NF 9.
	if got := b.NoiseFloorDBm(); math.Abs(got-(-95)) > 0.01 {
		t.Errorf("noise floor = %v, want -95", got)
	}
}

func TestSNRPathlossInverse(t *testing.T) {
	b := DefaultBudget()
	f := func(pl float64) bool {
		if math.IsNaN(pl) || math.Abs(pl) > 1e6 {
			return true
		}
		snr := b.SNRFromPathloss(pl)
		return math.Abs(b.PathlossFromSNR(snr)-pl) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmConversions(t *testing.T) {
	if math.Abs(DBmToMilliwatt(0)-1) > 1e-12 {
		t.Error("0 dBm should be 1 mW")
	}
	if math.Abs(DBmToMilliwatt(30)-1000) > 1e-9 {
		t.Error("30 dBm should be 1 W")
	}
	if math.Abs(MilliwattToDBm(DBmToMilliwatt(17.3))-17.3) > 1e-9 {
		t.Error("dBm round trip failed")
	}
}

func flatModel() *Model {
	return NewModel(terrain.Flat("FLAT", 250), DefaultParams(), 1)
}

func TestFlatTerrainIsFreeSpacePlusShadow(t *testing.T) {
	m := flatModel()
	ue := geom.V2(125, 125)
	uav := geom.V3(50, 50, 60)
	pl := m.Pathloss(uav, m.UEPoint(ue))
	fspl := m.FSPLPathloss(uav, ue)
	if math.Abs(pl-fspl) > 3*m.Params.ShadowSigmaDB {
		t.Errorf("flat-terrain pathloss %v too far from FSPL %v", pl, fspl)
	}
}

func TestNoShadowNoObstruction(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	m := NewModel(terrain.Flat("FLAT", 100), p, 1)
	ue := geom.V2(50, 50)
	uav := geom.V3(50, 50, 100)
	pl := m.Pathloss(uav, m.UEPoint(ue))
	want := FSPL(uav.Dist(m.UEPoint(ue)), m.Budget.FreqHz)
	if math.Abs(pl-want) > 1e-9 {
		t.Errorf("pathloss = %v, want pure FSPL %v", pl, want)
	}
}

func TestPathlossSymmetric(t *testing.T) {
	m := NewModel(terrain.Campus(2), DefaultParams(), 2)
	a := geom.V3(40, 220, 55)
	b := geom.V3(200, 100, 1.5)
	if m.Pathloss(a, b) != m.Pathloss(b, a) {
		t.Error("pathloss not symmetric")
	}
}

func TestObstructionBlocksThroughBuilding(t *testing.T) {
	s := terrain.Flat("T", 100)
	m := NewModel(s, DefaultParams(), 1)
	// No obstacle: clear LOS above ground.
	if !m.LOS(geom.V3(10, 50, 30), geom.V3(90, 50, 30)) {
		t.Error("flat terrain should be LOS")
	}
}

// wallTerrain builds a deterministic 200×200 m terrain with a 30 m
// tall, 10 m thick east-west wall across y∈[95,105], broken by a gap
// at x∈[95,105]. Geometry is exact, so LOS/NLOS transitions are
// predictable.
func wallTerrain(t *testing.T) *terrain.Surface {
	t.Helper()
	pc := terrain.PointCloud{}
	for x := 0.5; x < 200; x++ {
		for y := 0.5; y < 200; y++ {
			if y >= 95 && y < 105 && !(x >= 95 && x < 105) {
				pc = append(pc, terrain.Point{X: x, Y: y, Z: 30, Class: terrain.ClassBuilding})
			} else {
				pc = append(pc, terrain.Point{X: x, Y: y, Z: 0, Class: terrain.ClassGround})
			}
		}
	}
	s, err := terrain.FromPointCloud("WALL", pc, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func noShadowParams() Params {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	return p
}

func TestObstructionThroughBuildingAttenuates(t *testing.T) {
	m := NewModel(wallTerrain(t), noShadowParams(), 1)
	low := m.Obstruction(geom.V3(50, 10, 5), geom.V3(50, 190, 5))
	if low <= 0 {
		t.Error("ray through wall should be attenuated")
	}
	if low > m.Params.MaxObstructionDB {
		t.Error("obstruction must be capped")
	}
	high := m.Obstruction(geom.V3(50, 10, 40), geom.V3(50, 190, 40))
	if high != 0 {
		t.Errorf("ray above wall should be clear, got %v dB", high)
	}
	gap := m.Obstruction(geom.V3(100, 10, 5), geom.V3(100, 190, 5))
	if gap != 0 {
		t.Errorf("ray through gap should be clear, got %v dB", gap)
	}
}

func TestFig7PathlossSwingAlongFlight(t *testing.T) {
	// Fig 7: along a 50 m flight segment near obstacles, pathloss to a
	// fixed UE swings by ~20 dB (77 to 95 dB in the paper). Fly past
	// the wall gap: LOS through the gap, deep NLOS either side.
	m := NewModel(wallTerrain(t), noShadowParams(), 1)
	ue := geom.V2(100, 50) // south of the wall
	minPL, maxPL := math.Inf(1), math.Inf(-1)
	for d := 0.0; d <= 50; d++ {
		p := geom.V3(75+d, 150, 20) // north of the wall, below its top
		pl := m.Pathloss(p, m.UEPoint(ue))
		minPL = math.Min(minPL, pl)
		maxPL = math.Max(maxPL, pl)
	}
	if swing := maxPL - minPL; swing < 10 {
		t.Errorf("pathloss swing over 50 m = %.1f dB, want >= 10 (paper shows ~20)", swing)
	}
}

func TestFig8AltitudeUShape(t *testing.T) {
	// Fig 8: pathloss vs altitude has an interior minimum — descending
	// reduces distance until terrain shadowing dominates. Hover north
	// of the wall, UE south of it: low altitudes are wall-shadowed.
	m := NewModel(wallTerrain(t), noShadowParams(), 1)
	ue := geom.V2(100, 50)
	hover := geom.V2(60, 150)
	var pls []float64
	for alt := 5.0; alt <= 120; alt += 5 {
		pls = append(pls, m.Pathloss(hover.WithZ(alt), m.UEPoint(ue)))
	}
	minI := 0
	for i, v := range pls {
		if v < pls[minI] {
			minI = i
		}
	}
	if minI == 0 || minI == len(pls)-1 {
		t.Errorf("pathloss minimum at sweep boundary (index %d of %d): no U-shape", minI, len(pls))
	}
	if pls[0]-pls[minI] < 5 {
		t.Errorf("shadowing penalty at 5 m only %.1f dB", pls[0]-pls[minI])
	}
}

func TestGroundTruthREMGeometry(t *testing.T) {
	m := NewModel(terrain.Flat("FLAT", 100), DefaultParams(), 1)
	g := GroundTruthREM(m, m.Terrain.Bounds(), 2, geom.V2(50, 50), 60)
	if g.NX != 50 || g.NY != 50 {
		t.Fatalf("eval grid dims %dx%d", g.NX, g.NY)
	}
	// SNR should peak near directly above the UE.
	cx, cy, _ := g.MaxCell()
	peak := g.CellCenter(cx, cy)
	if peak.Dist(geom.V2(50, 50)) > 25 {
		t.Errorf("SNR peak at %v, want near UE (50,50)", peak)
	}
}

func TestGroundTruthDeterministicAndParallelSafe(t *testing.T) {
	m := NewModel(terrain.Campus(3), DefaultParams(), 3)
	ue := geom.V2(100, 100)
	a := GroundTruthREM(m, m.Terrain.Bounds(), 5, ue, 60)
	b := GroundTruthREM(m, m.Terrain.Bounds(), 5, ue, 60)
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("ground truth differs at %d: %v vs %v", i, av[i], bv[i])
		}
	}
}

// TestGroundTruthPanicReachesCaller: a model that panics mid-fill (a
// zero Model, which has no terrain) re-raises in the caller's goroutine
// as an *engine.Panic, where a job boundary's recover turns it into one
// failed job, instead of killing the process from a fill goroutine.
func TestGroundTruthPanicReachesCaller(t *testing.T) {
	got := func() (r any) {
		defer func() { r = recover() }()
		GroundTruthREM(&Model{}, geom.Rect{MaxX: 50, MaxY: 50}, 10, geom.V2(25, 25), 60)
		return nil
	}()
	if _, ok := got.(*engine.Panic); !ok {
		t.Fatalf("recovered %v (%T), want an *engine.Panic", got, got)
	}
}

func TestAggregateMinMeanREMs(t *testing.T) {
	g1 := geom.NewGrid(geom.V2(0, 0), 1, 2, 2)
	g2 := geom.NewGrid(geom.V2(0, 0), 1, 2, 2)
	g1.Set(0, 0, 10)
	g2.Set(0, 0, 4)
	g1.Set(1, 1, -5)
	g2.Set(1, 1, 5)

	sum := rem.ObjectiveMap([]*geom.Grid{g1, g2}, rem.Sum, nil)
	if sum.At(0, 0) != 14 || sum.At(1, 1) != 0 {
		t.Errorf("aggregate wrong: %v %v", sum.At(0, 0), sum.At(1, 1))
	}
	min := rem.ObjectiveMap([]*geom.Grid{g1, g2}, rem.MaxMin, nil)
	if min.At(0, 0) != 4 || min.At(1, 1) != -5 {
		t.Errorf("min wrong: %v %v", min.At(0, 0), min.At(1, 1))
	}
	mean := rem.ObjectiveMap([]*geom.Grid{g1, g2}, rem.MaxMean, nil)
	if mean.At(0, 0) != 7 || mean.At(1, 1) != 0 {
		t.Errorf("mean wrong: %v %v", mean.At(0, 0), mean.At(1, 1))
	}
	if rem.ObjectiveMap(nil, rem.Sum, nil) != nil || rem.ObjectiveMap(nil, rem.MaxMin, nil) != nil || rem.ObjectiveMap(nil, rem.MaxMean, nil) != nil {
		t.Error("empty input should return nil")
	}
	// Inputs must not be mutated.
	if g1.At(0, 0) != 10 {
		t.Error("aggregate mutated its input")
	}
}

func TestFig4FSPLWorseOnComplexTerrain(t *testing.T) {
	// Fig 4: the propagation-model map error exceeds the data-driven
	// error, more so on complex terrain. Here: FSPL-vs-truth median
	// error should be clearly larger on NYC than on flat ground.
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 250, MaxY: 250}
	ue := geom.V2(125, 125)

	flat := NewModel(terrain.Flat("FLAT", 250), DefaultParams(), 1)
	nyc := NewModel(terrain.NYC(1), DefaultParams(), 1)

	med := func(m *Model) float64 {
		truth := GroundTruthREM(m, area, 10, ue, 60)
		fspl := FSPLREM(m, area, 10, ue, 60)
		var errs []float64
		tv, fv := truth.Values(), fspl.Values()
		for i := range tv {
			errs = append(errs, math.Abs(tv[i]-fv[i]))
		}
		return medianOf(errs)
	}
	if f, n := med(flat), med(nyc); n < f+2 {
		t.Errorf("FSPL error NYC %.1f dB vs flat %.1f dB: want NYC clearly worse", n, f)
	}
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp) == 0 {
		return math.NaN()
	}
	return cp[len(cp)/2]
}

func BenchmarkPathloss(b *testing.B) {
	m := NewModel(terrain.Campus(1), DefaultParams(), 1)
	ue := m.UEPoint(geom.V2(200, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Pathloss(geom.V3(float64(i%300), 150, 60), ue)
	}
}

func BenchmarkGroundTruthREM(b *testing.B) {
	m := NewModel(terrain.Campus(1), DefaultParams(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroundTruthREM(m, m.Terrain.Bounds(), 5, geom.V2(100, 100), 60)
	}
}

func TestDipoleElevationLoss(t *testing.T) {
	uav := geom.V3(0, 0, 60)
	// Horizontal link: no elevation loss.
	if got := DipoleElevationLossDB(uav, geom.V3(100, 0, 60)); got > 0.01 {
		t.Errorf("horizontal loss = %v", got)
	}
	// Directly below: capped null.
	if got := DipoleElevationLossDB(uav, geom.V3(0, 0, 0)); got != 20 {
		t.Errorf("nadir loss = %v, want 20 (cap)", got)
	}
	// Oblique link: between the extremes, monotone with elevation.
	prev := -1.0
	for horiz := 200.0; horiz >= 10; horiz -= 10 {
		got := DipoleElevationLossDB(uav, geom.V3(horiz, 0, 0))
		if got < prev-1e-9 {
			t.Fatalf("elevation loss not monotone at horiz=%v", horiz)
		}
		prev = got
	}
	// Degenerate zero-length link.
	if DipoleElevationLossDB(uav, uav) != 0 {
		t.Error("zero-length link should have zero loss")
	}
}

func TestAntennaPatternOptIn(t *testing.T) {
	flat := terrain.Flat("FLAT", 200)
	off := NewModel(flat, noShadowParams(), 1)
	pOn := noShadowParams()
	pOn.AntennaPattern = true
	on := NewModel(flat, pOn, 1)
	uav := geom.V3(100, 100, 60)
	under := geom.V2(100, 100) // directly below: pattern null
	d := on.Pathloss(uav, on.UEPoint(under)) - off.Pathloss(uav, off.UEPoint(under))
	if d < 15 {
		t.Errorf("pattern null adds %v dB, want ~20", d)
	}
	side := geom.V2(190, 100) // near-horizontal: little extra loss
	d = on.Pathloss(uav, on.UEPoint(side)) - off.Pathloss(uav, off.UEPoint(side))
	if d > 3 {
		t.Errorf("near-horizontal pattern loss %v dB too large", d)
	}
}
