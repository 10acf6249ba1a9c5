package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/locate"
	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/ue"
)

func testWorld(t *testing.T, fast bool, ues []*ue.UE) *World {
	t.Helper()
	w, err := New(Config{
		Terrain:     terrain.Campus(1),
		Seed:        1,
		FastRanging: fast,
	}, ues)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func campusUEs() []*ue.UE {
	// Mirror the paper's UE 1 (open lot), UE 6 (beside the office
	// building) and UE 7 (forest), plus a few more.
	return []*ue.UE{
		ue.New(0, geom.V2(80, 250)),  // parking lot, open
		ue.New(1, geom.V2(195, 160)), // beside office building
		ue.New(2, geom.V2(150, 30)),  // inside forest strip
		ue.New(3, geom.V2(250, 120)),
		ue.New(4, geom.V2(60, 120)),
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("missing terrain should fail")
	}
}

func TestWorldAttachesUEs(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	if got := w.Core.ActiveSessions(); got != 5 {
		t.Errorf("sessions = %d, want 5", got)
	}
	if len(w.Cells[0].Snapshot().UEs) != 5 {
		t.Error("not all UEs connected")
	}
}

func TestStepAdvancesClockAndUAV(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	start := w.UAV.Position()
	w.UAV.SetRoute([]geom.Vec3{geom.V3(0, 0, 60)})
	w.Step(1)
	if w.Clock != 1 {
		t.Error("clock")
	}
	if w.UAV.Position() == start {
		t.Error("UAV did not move")
	}
}

func TestMeasuredSNRNoisyAroundTruth(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	truth := w.TrueSNR(0)
	var sum, sumSq float64
	n := 2000
	for i := 0; i < n; i++ {
		d := w.MeasuredSNR(0) - truth
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.2 {
		t.Errorf("measurement bias %v", mean)
	}
	if math.Abs(std-2) > 0.3 {
		t.Errorf("measurement σ = %v, want ~2", std)
	}
}

func TestFlyMeasureCollectsSamples(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	path := geom.Polyline{geom.V2(50, 50), geom.V2(250, 50), geom.V2(250, 250)}
	samples, flown := w.FlyMeasure(path, 60, 0)
	if flown < path.Length()*0.9 {
		t.Errorf("flew %v of %v", flown, path.Length())
	}
	// ~8.33 m/s at 50 Hz → ≈6 samples per metre of path... actually
	// 50 samples/s / 8.33 m/s ≈ 6 samples per metre.
	if len(samples) < int(flown*3) {
		t.Errorf("only %d samples over %v m", len(samples), flown)
	}
	for _, s := range samples {
		if len(s.SNRs) != 5 {
			t.Fatal("sample missing UEs")
		}
	}
}

func TestFlyMeasureBudgetStops(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	path := geom.Polyline{geom.V2(10, 10), geom.V2(290, 10), geom.V2(290, 290)}
	_, flown := w.FlyMeasure(path, 60, 100)
	if flown < 99 || flown > 110 {
		t.Errorf("budget-limited flight flew %v, want ~100", flown)
	}
	if !w.UAV.Hovering() {
		t.Error("route should be cancelled at budget exhaustion")
	}
}

func TestLocalizationFlightEndToEnd(t *testing.T) {
	// The headline integration test: full SRS PHY + GPS noise +
	// multilateration recovers UE positions with paper-like accuracy
	// (§4.3: median 5-7 m over a 20 m flight; we allow a margin for
	// the harder forest UE).
	w := testWorld(t, false, campusUEs())
	rng := rand.New(rand.NewSource(9))
	path := randomLoop(w.Area(), geom.V2(150, 150), 30, rng)
	tuples, flown := w.LocalizationFlight(path, 60)
	if flown < 25 {
		t.Fatalf("flew only %v m", flown)
	}
	results, err := locate.SolveJoint(tuples, locate.Options{
		Bounds:      w.Area(),
		GroundZ:     func(p geom.Vec2) float64 { return w.Radio.GroundZ(p) + 1.5 },
		OffsetPrior: &locate.OffsetPrior{MeanM: w.Cfg.ProcOffsetM, SigmaM: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for i, r := range results {
		errs = append(errs, r.UE.Dist(w.UEs[i].Pos))
	}
	sort.Float64s(errs)
	med := errs[len(errs)/2]
	if med > 10 {
		t.Errorf("median localization error %.1f m, want <= 10 (paper: 5-7)", med)
	}
}

func TestFastRangingMatchesSlowStatistics(t *testing.T) {
	// The fast error model must produce ranging errors in the same
	// band as the PHY chain (medians within 3 m of each other).
	med := func(fast bool) float64 {
		w := testWorld(t, fast, campusUEs())
		rng := rand.New(rand.NewSource(4))
		path := randomLoop(w.Area(), geom.V2(150, 150), 25, rng)
		tuples, _ := w.LocalizationFlight(path, 60)
		var errs []float64
		for i, ts := range tuples {
			uePt := w.Radio.UEPoint(w.UEs[i].Pos)
			for _, tp := range ts {
				true3 := tp.UAVPos.Dist(uePt) // GPS noise folded in; fine for stats
				errs = append(errs, math.Abs(tp.RangeM-w.Cfg.ProcOffsetM-true3))
			}
		}
		sort.Float64s(errs)
		return errs[len(errs)/2]
	}
	slow, fast := med(false), med(true)
	if math.Abs(slow-fast) > 3 {
		t.Errorf("fast ranging median error %.2f vs PHY %.2f: calibration drifted", fast, slow)
	}
}

func TestServeSecondsDeliversBits(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	// Park somewhere sensible first.
	w.UAV.SetRoute([]geom.Vec3{geom.V3(150, 150, 60)})
	for !w.UAV.Hovering() {
		w.Step(1)
	}
	bits, err := w.ServeSeconds(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range bits {
		total += b
	}
	if total <= 0 {
		t.Fatal("no bits served from a central position")
	}
	if total > w.Num.PeakThroughputBps()*1.01 {
		t.Errorf("served %v bps exceeds cell capacity", total)
	}
	// Strided serving should be within 20%.
	w2 := testWorld(t, false, campusUEs())
	w2.UAV.SetRoute([]geom.Vec3{geom.V3(150, 150, 60)})
	for !w2.UAV.Hovering() {
		w2.Step(1)
	}
	bits2, err := w2.ServeSeconds(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	var total2 float64
	for _, b := range bits2 {
		total2 += b
	}
	if total2 <= 0 || math.Abs(total2-total)/total > 0.25 {
		t.Errorf("strided serving %v vs full %v", total2, total)
	}
}

func TestAvgThroughputAndMinSNRConsistent(t *testing.T) {
	w := testWorld(t, false, campusUEs())
	good := geom.V3(150, 150, 60)
	far := geom.V3(5, 5, 60)
	if w.AvgThroughputAt(good) <= w.AvgThroughputAt(far) {
		t.Error("central position should beat the far corner on average throughput")
	}
	minSNR := func(pos geom.Vec3) float64 {
		min := math.Inf(1)
		for i := range w.UEs {
			if s := w.SNRAt(pos, i); s < min {
				min = s
			}
		}
		return min
	}
	if minSNR(good) <= minSNR(far) {
		t.Error("central position should beat the far corner on min SNR")
	}
}

func TestGroundTruthREMsPerUE(t *testing.T) {
	w := testWorld(t, false, campusUEs()[:2])
	truths := w.GroundTruthREMs(60, 10)
	if len(truths) != 2 {
		t.Fatal("one truth grid per UE")
	}
	// Each truth peaks near its own UE.
	for i, g := range truths {
		cx, cy, _ := g.MaxCell()
		if g.CellCenter(cx, cy).Dist(w.UEs[i].Pos) > 60 {
			t.Errorf("truth %d peak far from UE", i)
		}
	}
}

// randomLoop builds a closed random flight for tests. The loop guard
// stays well above zero: the clamped step distance can round to
// slightly less than the drawn leg, and a `remaining > 0` guard would
// then shrink geometrically without ever terminating.
func randomLoop(area geom.Rect, start geom.Vec2, lengthM float64, rng *rand.Rand) geom.Polyline {
	p := geom.Polyline{start}
	cur := start
	remaining := lengthM
	for remaining > 0.5 {
		leg := math.Min(8+rng.Float64()*8, remaining)
		th := rng.Float64() * 2 * math.Pi
		next := area.Clamp(cur.Add(geom.V2(math.Cos(th), math.Sin(th)).Scale(leg)))
		p = append(p, next)
		remaining -= next.Dist(cur)
		cur = next
	}
	return p
}

func TestFlyMeasureWithRangingTuples(t *testing.T) {
	w := testWorld(t, true, campusUEs())
	path := geom.Polyline{geom.V2(60, 60), geom.V2(240, 60), geom.V2(240, 240)}
	samples, tuples, flown := w.FlyMeasureWithRanging(path, 60, 0)
	if flown < 300 {
		t.Fatalf("flew %v", flown)
	}
	if len(samples) == 0 {
		t.Fatal("no SNR samples")
	}
	if len(tuples) != len(w.UEs) {
		t.Fatal("tuple streams missing")
	}
	// The measurement flight spans hundreds of metres: tuples should be
	// plentiful for most UEs (outage can thin the worst one).
	rich := 0
	for _, ts := range tuples {
		if len(ts) > 100 {
			rich++
		}
	}
	if rich < len(w.UEs)-1 {
		t.Errorf("only %d/%d UEs have a rich tuple stream", rich, len(w.UEs))
	}
	// Aperture check: the tuple positions span the flight.
	var minX, maxX = 1e18, -1e18
	for _, tp := range tuples[0] {
		if tp.UAVPos.X < minX {
			minX = tp.UAVPos.X
		}
		if tp.UAVPos.X > maxX {
			maxX = tp.UAVPos.X
		}
	}
	if maxX-minX < 100 {
		t.Errorf("tuple aperture only %.0f m", maxX-minX)
	}
}

func TestFlyMeasureWithoutRangingSkipsTuples(t *testing.T) {
	w := testWorld(t, true, campusUEs())
	path := geom.Polyline{geom.V2(60, 60), geom.V2(120, 60)}
	samples, flown := w.FlyMeasure(path, 60, 0)
	if len(samples) == 0 || flown <= 0 {
		t.Fatal("measurement flight failed")
	}
}

func TestServeTrafficConservesPackets(t *testing.T) {
	w := testWorld(t, true, campusUEs())
	rep, err := w.ServeTraffic(2, 1, traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.KPIs) != len(w.UEs) {
		t.Fatalf("KPI rows = %d, want %d", len(rep.KPIs), len(w.UEs))
	}
	for _, k := range rep.KPIs {
		if k.OfferedPackets == 0 {
			t.Fatalf("UE %d offered nothing", k.UE)
		}
		// Every offered packet is delivered, dropped, or still queued.
		if k.OfferedPackets != k.DeliveredPackets+k.DroppedPackets+uint64(k.BacklogPackets) {
			t.Fatalf("UE %d: offered %d != delivered %d + dropped %d + backlog %d",
				k.UE, k.OfferedPackets, k.DeliveredPackets, k.DroppedPackets, k.BacklogPackets)
		}
		if k.DeliveredPackets > 0 && k.MeanDelayS <= 0 {
			t.Fatalf("UE %d delivered packets with non-positive mean delay", k.UE)
		}
	}
	if rep.Summary.DeliveredBytes == 0 {
		t.Fatal("nothing delivered in 2 s of serving")
	}
}

func TestServeTrafficDeterministicAcrossWorlds(t *testing.T) {
	spec := traffic.Spec{Model: traffic.ModelOnOff, RateBps: 2e6}
	run := func() []byte {
		w := testWorld(t, true, campusUEs())
		rep, err := w.ServeTraffic(1, 1, spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("identical worlds produced different traffic reports")
	}
}

func TestServeTrafficStridedGrantScaling(t *testing.T) {
	// With a stride the scheduler runs 1/stride as many TTIs but each
	// grant is scaled by the stride; delivered volume must stay within
	// a few percent of the unstrided run.
	spec := traffic.Spec{Model: traffic.ModelCBR, RateBps: 1e6}
	w1 := testWorld(t, true, campusUEs())
	r1, err := w1.ServeTraffic(2, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	w2 := testWorld(t, true, campusUEs())
	r2, err := w2.ServeTraffic(2, 10, spec)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := float64(r1.Summary.DeliveredBytes), float64(r2.Summary.DeliveredBytes)
	if d1 == 0 || math.Abs(d1-d2)/d1 > 0.05 {
		t.Fatalf("strided delivery %g vs %g diverges", d2, d1)
	}
}
