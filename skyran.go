// Package skyran is the public API of the SkyRAN reproduction: a
// self-organizing UAV-mounted LTE RAN (Chakraborty et al., CoNEXT
// 2018) together with the complete simulated substrate it runs on —
// procedural terrains, ray-traced RF propagation, an SRS/ToF PHY, a
// lightweight LTE stack, and a kinematic UAV.
//
// The typical flow:
//
//	sc, _ := skyran.NewScenario(skyran.ScenarioConfig{
//		Terrain: "CAMPUS", UEs: 6, Seed: 1,
//	})
//	ctrl := skyran.NewController(skyran.ControllerConfig{Budget: 800})
//	res, _ := ctrl.RunEpoch(sc.World)
//	fmt.Println(sc.RelativeThroughput(res.Position))
//
// Lower-level building blocks live in the internal packages; the
// examples/ directory demonstrates the public surface.
package skyran

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/ue"
)

// Re-exported core types so callers rarely need internal imports.
type (
	// Controller is a UAV placement strategy.
	Controller = core.Controller
	// EpochResult summarises one controller epoch.
	EpochResult = core.EpochResult
	// Vec2 and Vec3 are metric coordinates (X east, Y north, Z up).
	Vec2 = geom.Vec2
	// Vec3 is a 3-D position.
	Vec3 = geom.Vec3
	// UE is a ground terminal.
	UE = ue.UE
	// World is the live simulation.
	World = sim.World
	// Report is an experiment result table.
	Report = experiments.Report
)

// V2 constructs a 2-D position.
func V2(x, y float64) Vec2 { return geom.V2(x, y) }

// V3 constructs a 3-D position.
func V3(x, y, z float64) Vec3 { return geom.V3(x, y, z) }

// ScenarioConfig describes a simulation scenario.
type ScenarioConfig struct {
	// Terrain is one of CAMPUS, RURAL, NYC, LARGE, FLAT.
	Terrain string
	// UEs is the number of ground terminals (ignored when Place is
	// non-nil).
	UEs int
	// Clustered places the UEs in a tight pocket (the paper's
	// topology B) instead of uniformly.
	Clustered bool
	// Place, when non-nil, supplies explicit UE positions.
	Place []Vec2
	// Seed drives all randomness.
	Seed int64
	// FullPHY runs the complete SRS signal chain for ranging instead
	// of the calibrated fast error model.
	FullPHY bool
	// Mobile attaches a random-waypoint walk to every UE.
	Mobile bool
	// StreetMobility attaches a street-following walk instead (UEs
	// move along open corridors of gridded urban terrain).
	StreetMobility bool
}

// Scenario is a ready-to-run world.
type Scenario struct {
	World *sim.World
}

// NewScenario builds a scenario.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Terrain == "" {
		cfg.Terrain = "CAMPUS"
	}
	t := terrain.ByName(cfg.Terrain, uint64(cfg.Seed)+1)
	if t == nil {
		return nil, fmt.Errorf("skyran: unknown terrain %q", cfg.Terrain)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var ues []*ue.UE
	switch {
	case len(cfg.Place) > 0:
		for i, p := range cfg.Place {
			ues = append(ues, ue.New(i, p))
		}
	case cfg.Clustered:
		center := ue.PlaceRandomOpen(1, t.Bounds().Inset(t.Bounds().Width()*0.15), t.IsOpen, 0, rng)[0].Pos
		ues = ue.PlaceClustered(max(cfg.UEs, 1), center, t.Bounds().Width()*0.06, t.Bounds(), t.IsOpen, rng)
	default:
		placed, err := ue.TryPlaceRandomOpen(max(cfg.UEs, 1), t.Bounds().Inset(t.Bounds().Width()*0.08), t.IsOpen, 15, rng)
		if err != nil {
			return nil, fmt.Errorf("skyran: %w", err)
		}
		ues = placed
	}
	switch {
	case cfg.StreetMobility:
		for _, u := range ues {
			u.Mobility = ue.NewStreetWalk(t.Bounds().Inset(5), t.IsOpen, 1.2)
		}
	case cfg.Mobile:
		for _, u := range ues {
			u.Mobility = ue.NewRandomWaypoint(t.Bounds().Inset(20), 1.2, 30)
		}
	}
	w, err := sim.New(sim.Config{
		Terrain:     t,
		Seed:        uint64(cfg.Seed) + 1,
		FastRanging: !cfg.FullPHY,
	}, ues)
	if err != nil {
		return nil, err
	}
	return &Scenario{World: w}, nil
}

// ControllerConfig tunes the SkyRAN controller (see core.Config for
// the full surface; zero values select the paper's settings).
type ControllerConfig struct {
	// Budget is the measurement budget per epoch in metres.
	Budget float64
	// Altitude pins the operating altitude; 0 runs the first-epoch
	// altitude search.
	Altitude float64
	// Seed drives the controller's randomness.
	Seed int64
}

// NewController returns the SkyRAN controller.
func NewController(cfg ControllerConfig) *core.SkyRAN {
	return core.NewSkyRAN(core.Config{
		MeasurementBudgetM: cfg.Budget,
		FixedAltitudeM:     cfg.Altitude,
		Seed:               cfg.Seed,
	})
}

// NewUniformBaseline returns the zigzag-probing baseline at the
// default 60 m altitude.
func NewUniformBaseline(budget float64) Controller {
	return &core.Uniform{BudgetM: budget}
}

// NewUniformBaselineAt returns the zigzag-probing baseline at a chosen
// altitude (compare controllers in the same plane).
func NewUniformBaselineAt(budget, altitude float64) Controller {
	return &core.Uniform{BudgetM: budget, AltitudeM: altitude}
}

// NewCentroidBaseline returns the UE-location-only baseline.
func NewCentroidBaseline(seed int64) Controller {
	return &core.Centroid{Seed: seed}
}

// NewOracle returns the ground-truth-optimal placer (the "relative
// throughput" normaliser).
func NewOracle() Controller { return &core.Oracle{} }

// RelativeThroughput returns average UE throughput at pos relative to
// the ground-truth optimum in the same altitude plane (the paper's
// headline metric).
func (s *Scenario) RelativeThroughput(pos Vec3) float64 {
	_, best := core.BestPosition(s.World, pos.Z, 5, rem.MaxMean)
	return metrics.Clamp01(metrics.Relative(s.World.AvgThroughputAt(pos), best))
}

// OptimalPosition returns the true best position and its average
// throughput at the given altitude.
func (s *Scenario) OptimalPosition(alt float64) (Vec2, float64) {
	return core.BestPosition(s.World, alt, 5, rem.MaxMean)
}

// LocalizationErrors returns per-UE distances between estimates and
// the true positions.
func (s *Scenario) LocalizationErrors(ests []Vec2) []float64 {
	out := make([]float64, 0, len(ests))
	for i, e := range ests {
		if i < len(s.World.UEs) {
			out = append(out, e.Dist(s.World.UEs[i].Pos))
		}
	}
	return out
}

// Figures lists every paper-figure reproduction; RunFigure executes
// one by id (e.g. "fig20"). Extensions lists the ablation and
// future-work studies (e.g. "ext-multiuav"), also runnable by id.
func Figures() []experiments.Spec { return experiments.All }

// Extensions lists the ablation/extension studies.
func Extensions() []experiments.Spec { return experiments.Extensions }

// FigureOptions tunes a figure run.
type FigureOptions struct {
	// Seeds is the number of Monte-Carlo instances per configuration
	// (0 means the default of 5).
	Seeds int
	// Quick shrinks sweeps and grid resolutions.
	Quick bool
	// Workers bounds concurrent Monte-Carlo tasks: 0 uses every CPU,
	// 1 forces sequential execution. Rows are identical either way.
	Workers int
}

// RunFigure reproduces a single figure or extension at the given
// Monte-Carlo scale.
func RunFigure(id string, seeds int, quick bool) (*Report, error) {
	return RunFigureWith(id, FigureOptions{Seeds: seeds, Quick: quick})
}

// RunFigureWith reproduces a single figure or extension with full
// control over scale and parallelism.
func RunFigureWith(id string, opts FigureOptions) (*Report, error) {
	spec, ok := experiments.ByID(id)
	if !ok {
		spec, ok = experiments.ExtensionByID(id)
	}
	if !ok {
		return nil, fmt.Errorf("skyran: unknown figure %q", id)
	}
	return spec.Run(experiments.Options{Seeds: opts.Seeds, Quick: opts.Quick, Workers: opts.Workers})
}
