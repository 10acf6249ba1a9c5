package core

import (
	"fmt"
	"math"

	"repro/internal/detrand"
	"repro/internal/geom"
	"repro/internal/locate"
	"repro/internal/ranging"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/traj"
)

// The baselines' fixed values (§4.2).
const (
	// baselineAltitudeM is the probing and serving altitude of every
	// baseline, and the default of those whose altitude is a field.
	baselineAltitudeM = 60
	// centroidLocalizationFlightM is Centroid's localization loop
	// length, a shorter loop than SkyRAN's.
	centroidLocalizationFlightM = 25
	// oracleEvalCellM is the oracle's ground-truth grid resolution.
	oracleEvalCellM = 5
)

// Uniform is the paper's REM-based baseline (§4.2): it ignores UE
// locations and probes the area with a boustrophedon zigzag starting
// at a corner, builds per-UE REMs from the measurements, and places at
// the same objective as SkyRAN. Its weakness is spending budget
// uniformly instead of where the REMs are informative.
type Uniform struct {
	// BudgetM caps the measurement flight length (0 = full sweep).
	BudgetM float64
	// AltitudeM is the fixed probing/serving altitude (default 60 m).
	AltitudeM float64
	// REMCellM is the estimation grid cell (default 2 m).
	REMCellM float64
	// Objective mirrors SkyRAN's placement criterion.
	Objective rem.Objective
}

// Name implements Controller.
func (u *Uniform) Name() string { return "Uniform" }

// RunEpoch implements Controller.
func (u *Uniform) RunEpoch(w *sim.World) (EpochResult, error) {
	if u.AltitudeM == 0 {
		u.AltitudeM = baselineAltitudeM
	}
	if u.REMCellM == 0 {
		u.REMCellM = 2
	}
	var res EpochResult

	// Move to the sweep's starting corner, then zigzag with passes a
	// tenth of the area's width apart.
	path := traj.Zigzag(w.Area(), w.Area().Width()/10)
	if u.BudgetM > 0 {
		path = path.Truncate(u.BudgetM)
	}
	path = path.Resample(1)
	moveTo(w, path[0].WithZ(u.AltitudeM))

	maps := make([]*rem.Map, len(w.UEs))
	for i := range maps {
		maps[i] = rem.New(w.Area(), u.REMCellM)
	}
	samples, measM := w.FlyMeasure(path, u.AltitudeM, u.BudgetM)
	res.MeasurementM = measM
	for _, smp := range samples {
		for i, m := range maps {
			m.AddMeasurement(smp.GPS.XY(), smp.SNRs[i])
		}
	}
	for _, m := range maps {
		if err := m.Interpolate(); err != nil {
			return res, fmt.Errorf("core: uniform REM: %w", err)
		}
	}
	res.REMs = maps

	mask := maps[0].NearMeasurement(30)
	pos, val, err := rem.PlaceMasked(maps, u.Objective, nil, mask)
	if err != nil {
		return res, fmt.Errorf("core: uniform placement: %w", err)
	}
	res.ObjectiveValue = val
	res.Position = pos.WithZ(u.AltitudeM)
	moveTo(w, res.Position)
	res.TotalFlightS = w.UAV.Config().FlightTimeFor(res.MeasurementM)
	return res, nil
}

// Centroid is the paper's location-only baseline (§4.2, §4.5.1): it
// localizes the UEs with the same SRS machinery as SkyRAN but uses no
// REMs — it simply hovers over the centroid of the estimated UE
// locations.
type Centroid struct {
	// AltitudeM is the fixed serving altitude (default 60 m).
	AltitudeM float64
	// Seed drives the random localization trajectory.
	Seed int64

	rng *detrand.Rand
}

// Name implements Controller.
func (c *Centroid) Name() string { return "Centroid" }

// RunEpoch implements Controller.
func (c *Centroid) RunEpoch(w *sim.World) (EpochResult, error) {
	if c.AltitudeM == 0 {
		c.AltitudeM = baselineAltitudeM
	}
	if c.rng == nil {
		c.rng = detrand.New(c.Seed + 11)
	}
	var res EpochResult

	path := traj.LocalizationLoop(w.Area(), w.UAV.Position().XY(), centroidLocalizationFlightM, c.rng.Rand)
	tuples, flown := w.LocalizationFlight(path, c.AltitudeM)
	res.LocalizationM = flown

	opts := w.LocateOptions()
	var in [][]ranging.Tuple
	var idxs []int
	for i, ts := range tuples {
		if len(ts) >= 4 {
			idxs = append(idxs, i)
			in = append(in, ts)
		}
	}
	ests := make([]geom.Vec2, 0, len(w.UEs))
	if len(in) > 0 {
		if results, err := locate.SolveJoint(in, opts); err == nil {
			for _, r := range results {
				ests = append(ests, r.UE)
			}
		}
	}
	if len(ests) == 0 {
		// Total localization failure: serve from the area centre.
		ests = append(ests, w.Area().Center())
	}
	res.UEEstimates = ests

	res.Position = geom.Centroid(ests).WithZ(c.AltitudeM)
	moveTo(w, res.Position)
	res.TotalFlightS = w.UAV.Config().FlightTimeFor(res.LocalizationM)
	return res, nil
}

// Random places the UAV uniformly at random in the area, at the
// baselines' 60 m — the "no information" floor mentioned in §2.2.
type Random struct {
	Seed int64
	rng  *detrand.Rand
}

// Name implements Controller.
func (r *Random) Name() string { return "Random" }

// RunEpoch implements Controller.
func (r *Random) RunEpoch(w *sim.World) (EpochResult, error) {
	if r.rng == nil {
		r.rng = detrand.New(r.Seed + 13)
	}
	a := w.Area()
	pos := geom.V2(a.MinX+r.rng.Float64()*a.Width(), a.MinY+r.rng.Float64()*a.Height())
	res := EpochResult{Position: pos.WithZ(baselineAltitudeM)}
	moveTo(w, res.Position)
	return res, nil
}

// Oracle places the UAV at the true optimum computed from exhaustive
// ground-truth REMs — the paper's "optimal" normaliser obtained from
// the detailed zigzag ground-truth flight (§4.2). It cheats by reading
// the propagation model directly; it exists only as the denominator of
// "relative throughput", so it maximises mean throughput (Fig 1's
// view) at the baselines' 60 m over a 5 m grid, the optimum every
// epoch is scored against.
type Oracle struct{}

// Name implements Controller.
func (o *Oracle) Name() string { return "Oracle" }

// RunEpoch implements Controller.
func (o *Oracle) RunEpoch(w *sim.World) (EpochResult, error) {
	pos, val := BestPosition(w, baselineAltitudeM, oracleEvalCellM, rem.MaxMean)
	res := EpochResult{Position: pos.WithZ(baselineAltitudeM), ObjectiveValue: val}
	moveTo(w, res.Position)
	return res, nil
}

// BestPosition scans the ground truth at the given altitude for the
// best cell under the objective. For MaxMin the per-cell value is the
// minimum SNR; for any other objective it is the mean *throughput*
// across UEs (matching Fig 1's colour scale). A world without UEs has
// no optimum: the value is -Inf.
func BestPosition(w *sim.World, alt, evalCell float64, obj rem.Objective) (geom.Vec2, float64) {
	truths := w.GroundTruthREMs(alt, evalCell)
	if obj != rem.MaxMin {
		// GroundTruthREMs allocates fresh grids, so they are mapped to
		// throughput in place.
		for _, g := range truths {
			v := g.Values()
			for i := range v {
				v[i] = w.Num.ThroughputBps(v[i])
			}
		}
		obj = rem.MaxMean
	}
	score := rem.ObjectiveMap(truths, obj, nil)
	if score == nil {
		return geom.Vec2{}, math.Inf(-1)
	}
	cx, cy, v := score.MaxCell()
	return score.CellCenter(cx, cy), v
}
