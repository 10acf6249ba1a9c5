package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/ue"
)

func campusWorld(t *testing.T, seed uint64) *sim.World {
	t.Helper()
	ues := []*ue.UE{
		ue.New(0, geom.V2(80, 250)),
		ue.New(1, geom.V2(195, 160)),
		ue.New(2, geom.V2(150, 70)),
		ue.New(3, geom.V2(250, 120)),
		ue.New(4, geom.V2(60, 120)),
	}
	w, err := sim.New(sim.Config{
		Terrain:     terrain.Campus(seed),
		Seed:        seed,
		FastRanging: true, // keep controller tests quick
	}, ues)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// relThroughput returns avg throughput at pos relative to the
// ground-truth optimum.
func relThroughput(w *sim.World, pos geom.Vec3) float64 {
	best, bestVal := BestPosition(w, pos.Z, 5, rem.MaxMean)
	_ = best
	got := w.AvgThroughputAt(pos)
	if bestVal <= 0 {
		return 0
	}
	return got / bestVal
}

func TestSkyRANEpochEndToEnd(t *testing.T) {
	w := campusWorld(t, 1)
	s := NewSkyRAN(Config{Seed: 1, MeasurementBudgetM: 900})
	res, err := s.RunEpoch(w)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Error("epoch counter")
	}
	if res.LocalizationM < 20 {
		t.Errorf("localization flight only %v m", res.LocalizationM)
	}
	if res.MeasurementM <= 0 {
		t.Error("no measurement flight")
	}
	if len(res.REMs) != 5 || len(res.UEEstimates) != 5 {
		t.Error("missing per-UE outputs")
	}
	alt := s.TargetAltitude()
	if alt < 15 || alt > 120 {
		t.Errorf("target altitude %v out of range", alt)
	}
	// UAV parked at the chosen position.
	if w.UAV.Position().Dist(res.Position) > 1 {
		t.Errorf("UAV at %v, chose %v", w.UAV.Position(), res.Position)
	}
	// Quality: well above random, near optimal.
	if rel := relThroughput(w, res.Position); rel < 0.7 {
		t.Errorf("SkyRAN relative throughput %.2f, want >= 0.7 (paper: 0.9-0.95)", rel)
	}
	if s.Store().Len() == 0 {
		t.Error("REM store not populated")
	}
}

func TestSkyRANLocalizationAccuracy(t *testing.T) {
	w := campusWorld(t, 2)
	s := NewSkyRAN(Config{Seed: 2, MeasurementBudgetM: 400})
	res, err := s.RunEpoch(w)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i, est := range res.UEEstimates {
		if e := est.Dist(w.UEs[i].Pos); e > worst {
			worst = e
		}
	}
	if worst > 30 {
		t.Errorf("worst localization error %.1f m", worst)
	}
}

func TestSkyRANSecondEpochReusesState(t *testing.T) {
	w := campusWorld(t, 3)
	s := NewSkyRAN(Config{Seed: 3, MeasurementBudgetM: 500})
	if _, err := s.RunEpoch(w); err != nil {
		t.Fatal(err)
	}
	alt1 := s.TargetAltitude()
	stored := s.Store().Len()
	if _, err := s.RunEpoch(w); err != nil {
		t.Fatal(err)
	}
	if s.TargetAltitude() != alt1 {
		t.Error("target altitude must persist across epochs (§3.3.1)")
	}
	if s.Store().Len() < stored {
		t.Error("store shrank")
	}
	if s.Epoch() != 2 {
		t.Error("epoch counter")
	}
}

func TestUniformEpoch(t *testing.T) {
	w := campusWorld(t, 4)
	u := &Uniform{BudgetM: 1500}
	res, err := u.RunEpoch(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasurementM <= 0 || len(res.REMs) != 5 {
		t.Errorf("uniform result %+v", res)
	}
	if rel := relThroughput(w, res.Position); rel < 0.3 {
		t.Errorf("uniform relative throughput %.2f unreasonably low", rel)
	}
}

func TestCentroidEpoch(t *testing.T) {
	w := campusWorld(t, 5)
	c := &Centroid{Seed: 5}
	res, err := c.RunEpoch(w)
	if err != nil {
		t.Fatal(err)
	}
	// The centroid of the 5 test UEs is around (147, 144).
	trueCentroid := geom.V2(147, 144)
	if res.Position.XY().Dist(trueCentroid) > 40 {
		t.Errorf("centroid placement %v far from true centroid %v", res.Position.XY(), trueCentroid)
	}
}

func TestRandomEpochInArea(t *testing.T) {
	w := campusWorld(t, 6)
	r := &Random{Seed: 6}
	res, err := r.RunEpoch(w)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Area().Contains(res.Position.XY()) {
		t.Error("random position outside area")
	}
}

func TestOracleBeatsEveryone(t *testing.T) {
	// The oracle is the normaliser: nothing may beat it under its own
	// objective at its own altitude.
	w := campusWorld(t, 7)
	o := &Oracle{}
	ores, err := o.RunEpoch(w)
	if err != nil {
		t.Fatal(err)
	}
	oVal := w.AvgThroughputAt(ores.Position)

	w2 := campusWorld(t, 7)
	s := NewSkyRAN(Config{Seed: 7, MeasurementBudgetM: 800})
	sres, err := s.RunEpoch(w2)
	if err != nil {
		t.Fatal(err)
	}
	// Compare at the oracle's altitude for a fair same-plane check.
	sVal := w.AvgThroughputAt(geom.V3(sres.Position.X, sres.Position.Y, ores.Position.Z))
	if sVal > oVal*1.001 {
		t.Errorf("SkyRAN %.0f beat the oracle %.0f under the oracle's objective", sVal, oVal)
	}
}

func TestSkyRANBeatsCentroidOnAverage(t *testing.T) {
	// The paper's headline comparison (Fig 21 vs Fig 23): SkyRAN
	// reaches 0.9-0.95× optimal while Centroid sits at 0.4-0.6×.
	// Averaged over seeds to damp variance.
	var skySum, cenSum float64
	const trials = 3
	for i := uint64(0); i < trials; i++ {
		w := campusWorld(t, 10+i)
		s := NewSkyRAN(Config{Seed: int64(10 + i), MeasurementBudgetM: 900})
		sres, err := s.RunEpoch(w)
		if err != nil {
			t.Fatal(err)
		}
		skySum += relThroughput(w, sres.Position)

		w2 := campusWorld(t, 10+i)
		c := &Centroid{Seed: int64(10 + i)}
		cres, err := c.RunEpoch(w2)
		if err != nil {
			t.Fatal(err)
		}
		cenSum += relThroughput(w2, cres.Position)
	}
	sky, cen := skySum/trials, cenSum/trials
	if sky <= cen {
		t.Errorf("SkyRAN %.2f does not beat Centroid %.2f", sky, cen)
	}
	if sky < 0.75 {
		t.Errorf("SkyRAN mean relative throughput %.2f, want >= 0.75", sky)
	}
}

func TestShouldTrigger(t *testing.T) {
	w := campusWorld(t, 8)
	s := NewSkyRAN(Config{Seed: 8, MeasurementBudgetM: 400})
	if !s.ShouldTrigger(w) {
		t.Error("epoch 0 must always trigger")
	}
	if _, err := s.RunEpoch(w); err != nil {
		t.Fatal(err)
	}
	// Serving from the chosen spot: no trigger expected right away.
	if s.ShouldTrigger(w) {
		t.Error("fresh epoch should not immediately re-trigger")
	}
	// Teleport every UE to a far corner: aggregate collapses.
	for _, u := range w.UEs {
		u.Pos = geom.V2(5, 5)
	}
	if !s.ShouldTrigger(w) {
		t.Error("mass UE movement should trigger a new epoch")
	}
}

func TestFindAltitudeAvoidsExtremes(t *testing.T) {
	w := campusWorld(t, 9)
	s := NewSkyRAN(Config{Seed: 9})
	alt, flown := s.findAltitude(w, geom.V2(150, 150))
	if alt < minAltitudeM || alt > w.UAV.Config().MaxAltitudeM {
		t.Errorf("altitude %v outside bounds", alt)
	}
	if flown <= 0 {
		t.Error("altitude search should cost flight distance")
	}
	if math.Abs(w.UAV.Position().Z-alt) > 0.5 {
		t.Error("UAV should end at the chosen altitude")
	}
}
