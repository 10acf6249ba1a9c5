// Package core implements the SkyRAN controller — the paper's primary
// contribution (§3): epoch-based self-organization consisting of a UE
// localization flight, first-epoch optimal-altitude search, gradient-
// guided measurement trajectory planning, REM estimation with IDW
// interpolation and store reuse, max-min placement, and dynamic epoch
// triggering on aggregate performance drops. The Uniform, Centroid and
// Random baselines of §4.2 live in baselines.go.
package core

import (
	"context"
	"fmt"

	"repro/internal/detrand"
	"repro/internal/geom"
	"repro/internal/locate"
	"repro/internal/ranging"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traj"
)

// EpochResult summarises one controller epoch.
type EpochResult struct {
	// Position is the chosen serving position (3-D).
	Position geom.Vec3
	// ObjectiveValue is the controller's estimate of its placement
	// objective at Position (e.g. min-SNR in dB for SkyRAN).
	ObjectiveValue float64
	// LocalizationM and MeasurementM are metres flown in the two
	// flight phases; TotalFlightS is the resulting flight time.
	LocalizationM float64
	MeasurementM  float64
	TotalFlightS  float64
	// UEEstimates are the estimated UE positions (nil for controllers
	// that do not localize).
	UEEstimates []geom.Vec2
	// REMs are the per-UE estimated maps (nil for non-REM
	// controllers).
	REMs []*rem.Map
}

// Controller is a UAV placement strategy driven against a world.
type Controller interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// RunEpoch performs one epoch of probing and moves the UAV to its
	// chosen serving position.
	RunEpoch(w *sim.World) (EpochResult, error)
}

// ContextController is implemented by controllers whose epochs can be
// cancelled mid-flight. The serving path (skyrand's job workers) runs
// epochs through this interface so job timeouts and client
// cancellations abort between flight phases instead of blocking a
// worker for the rest of the epoch.
type ContextController interface {
	Controller
	// RunEpochCtx is RunEpoch with cooperative cancellation: it checks
	// ctx at phase boundaries (localization, altitude search, planning,
	// measurement flight, interpolation, placement) and returns
	// ctx.Err() wrapped in the epoch's context if cancelled. The world
	// is left consistent — the UAV simply stays wherever the last
	// completed phase put it.
	RunEpochCtx(ctx context.Context, w *sim.World) (EpochResult, error)
}

// RunEpochCtx runs ctrl's epoch under ctx: controllers that implement
// ContextController get true mid-epoch cancellation, the rest get a
// single up-front check.
func RunEpochCtx(ctx context.Context, ctrl Controller, w *sim.World) (EpochResult, error) {
	if cc, ok := ctrl.(ContextController); ok {
		return cc.RunEpochCtx(ctx, w)
	}
	if err := ctx.Err(); err != nil {
		return EpochResult{}, err
	}
	return ctrl.RunEpoch(w)
}

// The controller's fixed design values (§3).
const (
	// localizationFlightM is the random localization flight length
	// (paper: ~20-30 m, Fig 19 shows no benefit beyond). The paper
	// quotes 20 m as sufficient on the campus testbed; our street-canyon
	// terrains have heavier NLOS ranging bias, and a slightly longer
	// loop buys the multilateration geometry back (see Fig 19's knee)
	// for ~2 s of flight.
	localizationFlightM = 35
	// reuseRadiusM is the REM store radius R (paper: 10 m, Fig 9).
	reuseRadiusM = 10
	// triggerDrop is the aggregate-throughput drop fraction that
	// triggers a new epoch (paper example: 10 %).
	triggerDrop = 0.10
	// altitudeStepM is the descent step of the first-epoch altitude
	// search; minAltitudeM bounds it for safety.
	altitudeStepM = 5
	minAltitudeM  = 15
)

// Graceful-degradation thresholds, consulted only when the world has
// an active fault schedule (fault-free epochs take the exact legacy
// path).
const (
	// minYieldFrac is the fraction of the measurement budget that must
	// actually be flown before the epoch accepts its samples; below it
	// (an aborted leg) the controller replans once and spends the
	// remaining budget on a uniform sweep.
	minYieldFrac = 0.5
	// minMeasuredCells is the minimum number of directly measured REM
	// cells for a fresh map to be trusted; a sparser map falls back to
	// the densest stored map near the UE's estimate.
	minMeasuredCells = 24
	// minConfidence is the robust-localization confidence below which a
	// fix is discarded in favour of the fallback ladder.
	minConfidence = 0.35
)

// Config tunes the SkyRAN controller. Zero values select the paper's
// settings.
type Config struct {
	// MeasurementBudgetM caps metres flown per measurement flight
	// (0 = fly the whole planned trajectory).
	MeasurementBudgetM float64
	// REMCellM is the estimation grid cell size (paper: 1 m).
	REMCellM float64
	// Objective is the placement criterion (paper: max-min SNR).
	Objective rem.Objective
	// Planner tunes trajectory selection.
	Planner traj.Planner
	// FixedAltitudeM skips the altitude search and pins the target
	// altitude — used by experiments that compare controllers in the
	// same plane.
	FixedAltitudeM float64
	// PlacementMaskM restricts placement to cells within this distance
	// of a measured cell (default 30 m).
	PlacementMaskM float64
	// NoLocationRefine disables the free post-measurement-flight
	// localization refinement (ablation switch).
	NoLocationRefine bool
	// AssociationRadiusM snaps a fresh localization fix to the
	// previous (refined) estimate when within this distance, treating
	// the UE as un-moved (default 25 m).
	AssociationRadiusM float64
	// Seed drives the controller's own randomness (localization
	// trajectories, K-means seeding).
	Seed int64
	// Workers bounds how many fleet sectors run their epochs
	// concurrently (read by Fleet, ignored by the single-UAV
	// controller): 0 uses one worker per CPU, 1 forces the sequential
	// order. Results are identical at any worker count.
	Workers int
}

func (c *Config) defaults() {
	if c.REMCellM == 0 {
		c.REMCellM = 2
	}
	if c.Planner == (traj.Planner{}) {
		c.Planner = traj.DefaultPlanner()
	}
	if c.PlacementMaskM == 0 {
		c.PlacementMaskM = 30
	}
	if c.AssociationRadiusM == 0 {
		c.AssociationRadiusM = 25
	}
}

// SkyRAN is the paper's controller. Construct with NewSkyRAN; the
// value carries cross-epoch state (target altitude, REM store,
// trajectory histories).
type SkyRAN struct {
	cfg Config
	rng *detrand.Rand

	// Cross-epoch state (§3.5).
	epoch       int
	targetAlt   float64
	store       *rem.Store
	histories   map[int]traj.History    // by UE ID
	lastEst     map[int]geom.Vec2       // last estimated position by UE ID
	trackers    map[int]*locate.Tracker // per-UE drift predictors
	servingBase float64                 // aggregate objective at epoch start
}

// NewSkyRAN returns a fresh controller with its own REM store.
func NewSkyRAN(cfg Config) *SkyRAN {
	return newSkyRAN(cfg, rem.NewStore(reuseRadiusM))
}

// newSkyRAN returns a fresh controller over the given REM store. A
// fleet member's store is a snapshot of the store the fleet shares
// (§7: "the REM are cooperatively constructed and shared amongst
// multiple SkyRAN UAVs").
func newSkyRAN(cfg Config, store *rem.Store) *SkyRAN {
	cfg.defaults()
	return &SkyRAN{
		cfg:       cfg,
		rng:       detrand.New(cfg.Seed + 7),
		store:     store,
		histories: make(map[int]traj.History),
		lastEst:   make(map[int]geom.Vec2),
		trackers:  make(map[int]*locate.Tracker),
	}
}

// Name implements Controller.
func (s *SkyRAN) Name() string { return "SkyRAN" }

// Epoch returns the number of completed epochs.
func (s *SkyRAN) Epoch() int { return s.epoch }

// TargetAltitude returns the altitude selected by the first-epoch
// search (0 before the first epoch).
func (s *SkyRAN) TargetAltitude() float64 { return s.targetAlt }

// Store exposes the REM store (diagnostics).
func (s *SkyRAN) Store() *rem.Store { return s.store }

// SetMeasurementBudget changes the per-epoch measurement budget for
// subsequent epochs — operators shrink it once the store is warm and
// epochs only need refreshes.
func (s *SkyRAN) SetMeasurementBudget(m float64) { s.cfg.MeasurementBudgetM = m }

// RunEpoch implements Controller, executing steps 1-8 of Fig 10.
func (s *SkyRAN) RunEpoch(w *sim.World) (EpochResult, error) {
	return s.RunEpochCtx(context.Background(), w)
}

// RunEpochCtx implements ContextController: RunEpoch with cooperative
// cancellation at phase boundaries.
func (s *SkyRAN) RunEpochCtx(ctx context.Context, w *sim.World) (EpochResult, error) {
	if err := ctx.Err(); err != nil {
		return EpochResult{}, fmt.Errorf("core: epoch cancelled: %w", err)
	}
	// Steps 1-4: UE localization flight + multilateration.
	ests, locM, err := s.localize(w)
	if err != nil {
		return EpochResult{}, err
	}
	return s.runWithEstimates(ctx, w, ests, locM)
}

// RunEpochWithEstimates runs an epoch with externally supplied UE
// position estimates instead of the localization flight. Experiments
// use it to inject controlled localization error (Fig 9) or perfect
// knowledge (Fig 20's known-location REM study).
func (s *SkyRAN) RunEpochWithEstimates(w *sim.World, ests []geom.Vec2) (EpochResult, error) {
	if len(ests) != len(w.UEs) {
		return EpochResult{}, fmt.Errorf("core: %d estimates for %d UEs", len(ests), len(w.UEs))
	}
	return s.runWithEstimates(context.Background(), w, ests, 0)
}

func (s *SkyRAN) runWithEstimates(ctx context.Context, w *sim.World, ests []geom.Vec2, locM float64) (EpochResult, error) {
	var res EpochResult
	cancelled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: epoch cancelled: %w", err)
		}
		return nil
	}
	res.LocalizationM = locM
	res.UEEstimates = ests

	// Step 5: optimal operating altitude (first epoch only; §3.3.1
	// "this target altitude is not updated every epoch").
	if s.targetAlt == 0 {
		if s.cfg.FixedAltitudeM > 0 {
			s.targetAlt = s.cfg.FixedAltitudeM
		} else {
			alt, climbM := s.findAltitude(w, geom.Centroid(ests))
			s.targetAlt = alt
			res.LocalizationM += climbM
		}
	}

	if err := cancelled(); err != nil {
		return res, err
	}

	// REM initialisation: store reuse within R, else FSPL model fill.
	maps := s.initREMs(w, ests)

	// Step 6: measurement trajectory via gradient map + K-means + TSP.
	grids := make([]*geom.Grid, len(maps))
	for i, m := range maps {
		grids[i] = m.Grid()
	}
	grad := rem.Gradient(rem.ObjectiveMap(grids, rem.Sum, nil))
	hists := make([]traj.History, len(ests))
	for i, u := range w.UEs {
		hists[i] = s.histories[u.ID]
	}
	path, err := s.cfg.Planner.Plan(grad, hists, w.UAV.Position().XY(), s.rng.Rand)
	if err != nil {
		// Perfectly flat prior REMs (e.g. degenerate scenario): fall
		// back to a coarse sweep.
		path = traj.Zigzag(w.Area(), w.Area().Width()/6)
	}
	if s.cfg.MeasurementBudgetM > 0 {
		// Use the whole budget: truncate an over-long tour, pad a
		// short one with a uniform sweep of the unexplored remainder.
		path = traj.ExtendToBudget(path.Truncate(s.cfg.MeasurementBudgetM),
			w.Area(), s.cfg.MeasurementBudgetM)
	}
	path = path.Resample(1)
	if err := cancelled(); err != nil {
		return res, err
	}

	// Step 7: fly, measure, update and interpolate REMs. SRS ranging
	// continues during the flight; its much larger synthetic aperture
	// refines the UE fixes for free (the dedicated localization loop
	// spans tens of metres, the measurement tour spans hundreds).
	samples, measTuples, measM := w.FlyMeasureWithRanging(path, s.targetAlt, s.cfg.MeasurementBudgetM)
	// Degradation: an aborted leg that yielded too little of the budget
	// is replanned once — the remaining budget flies a uniform sweep,
	// and its samples and ranging tuples merge into the epoch's pool.
	if w.Faults != nil && s.cfg.MeasurementBudgetM > 0 && measM < s.cfg.MeasurementBudgetM*minYieldFrac {
		if remaining := s.cfg.MeasurementBudgetM - measM; remaining > 1 {
			w.Faults.NoteReplan()
			replan := traj.Zigzag(w.Area(), w.Area().Width()/6).Resample(1)
			s2, t2, m2 := w.FlyMeasureWithRanging(replan, s.targetAlt, remaining)
			samples = append(samples, s2...)
			for i := range measTuples {
				measTuples[i] = append(measTuples[i], t2[i]...)
			}
			measM += m2
		}
	}
	res.MeasurementM = measM
	if !s.cfg.NoLocationRefine {
		if refined := s.refineLocations(w, measTuples, ests); refined != nil {
			ests = refined
			res.UEEstimates = refined
		}
	}
	for _, smp := range samples {
		for i, m := range maps {
			m.AddMeasurement(smp.GPS.XY(), smp.SNRs[i])
		}
	}
	if err := cancelled(); err != nil {
		return res, err
	}
	for _, m := range maps {
		if err := m.Interpolate(); err != nil {
			return res, fmt.Errorf("core: interpolating REM: %w", err)
		}
	}
	flown := geom.Polyline{}
	for _, smp := range samples {
		flown = append(flown, smp.GPS.XY())
	}
	// Degradation: a map that ended the flight with almost no directly
	// measured cells (dropout/abort-starved) is mostly prior fill;
	// serving from it can be worse than reusing the densest stored map
	// near the UE. Swap before the store write so the sparse map never
	// displaces a good one.
	if w.Faults != nil {
		for i := range maps {
			if maps[i].MeasuredCells() >= minMeasuredCells {
				continue
			}
			if prev := s.store.Lookup(ests[i]); prev != nil && prev.MeasuredCells() > maps[i].MeasuredCells() {
				maps[i] = prev
				w.Faults.NoteREMFallback()
			}
		}
	}
	for i, u := range w.UEs {
		s.store.Put(ests[i], maps[i])
		s.histories[u.ID] = append(s.histories[u.ID], flown)
		s.lastEst[u.ID] = ests[i]
		tr := s.trackers[u.ID]
		if tr == nil {
			tr = locate.NewTracker(4)
			s.trackers[u.ID] = tr
		}
		// Refined fixes carry a few metres of error; the tracker turns
		// the fix history into a drift prediction for the next epoch.
		tr.Observe(ests[i], 4, w.Clock)
	}
	res.REMs = maps
	if err := cancelled(); err != nil {
		return res, err
	}

	// Step 8: max-min placement and move. Candidates are restricted to
	// cells near actual measurements: far cells hold only prior/IDW
	// extrapolation, and trusting them can park the UAV in a radio
	// hole the maps never saw.
	mask := maps[0].NearMeasurement(s.cfg.PlacementMaskM)
	pos, val, err := rem.PlaceMasked(maps, s.cfg.Objective, nil, mask)
	if err != nil && w.Faults != nil {
		// Degradation: a starved flight can leave no cell near a
		// measurement — relax the mask rather than fail the epoch.
		w.Faults.NotePlacementRelaxed()
		pos, val, err = rem.PlaceMasked(maps, s.cfg.Objective, nil, nil)
	}
	if err != nil {
		return res, fmt.Errorf("core: placement: %w", err)
	}
	res.ObjectiveValue = val
	res.Position = pos.WithZ(s.targetAlt)
	moveTo(w, res.Position)

	// Record the serving baseline for the dynamic epoch trigger.
	s.servingBase = s.aggregate(w)
	s.epoch++
	res.TotalFlightS = w.UAV.Config().FlightTimeFor(res.LocalizationM + res.MeasurementM)
	if w.Tracer != nil {
		w.Tracer.Emit(trace.Record{
			Kind: trace.KindEpoch, T: w.Clock, Epoch: s.epoch,
			LocalizationM: res.LocalizationM, MeasurementM: res.MeasurementM,
			Objective: res.ObjectiveValue,
		})
		for i, est := range ests {
			w.Tracer.Emit(trace.Record{Kind: trace.KindFix, T: w.Clock, UE: w.UEs[i].ID, X: est.X, Y: est.Y})
		}
		w.Tracer.Emit(trace.Record{Kind: trace.KindPlacement, T: w.Clock,
			X: res.Position.X, Y: res.Position.Y, Z: res.Position.Z})
	}
	return res, nil
}

// localize flies the random localization flight and multilaterates
// every UE. UEs whose fix fails fall back to their last estimate, or
// the area centre for brand-new UEs.
func (s *SkyRAN) localize(w *sim.World) ([]geom.Vec2, float64, error) {
	alt := s.targetAlt
	if alt == 0 {
		alt = w.UAV.Config().MaxAltitudeM / 2
	}
	path := traj.LocalizationLoop(w.Area(), w.UAV.Position().XY(), localizationFlightM, s.rng.Rand)
	tuples, flown := w.LocalizationFlight(path, alt)
	ests := s.solveTuples(w, tuples, nil)

	// Data association: the short localization loop carries tens of
	// metres of error on NLOS-heavy terrain, while last epoch's
	// estimate was refined over the whole measurement flight's
	// aperture (and, for drifting UEs, extrapolated by the per-UE
	// tracker). When the new fix lands within association range of
	// the predicted position, the UE most plausibly stayed on its
	// track — keep the prediction so the REM store's radius-R reuse
	// (§3.5) can actually hit.
	for i, u := range w.UEs {
		anchor, ok := s.lastEst[u.ID]
		if tr := s.trackers[u.ID]; tr != nil && tr.Initialized() {
			if p, sigma := tr.PredictAt(w.Clock); sigma < s.cfg.AssociationRadiusM {
				anchor, ok = p, true
			}
		}
		if ok && ests[i].Dist(anchor) <= s.cfg.AssociationRadiusM {
			ests[i] = anchor
		}
	}
	return ests, flown, nil
}

// refineLocations re-runs the joint multilateration over the SRS
// tuples gathered during the measurement flight. It returns nil when
// nothing could be refined.
func (s *SkyRAN) refineLocations(w *sim.World, tuples [][]ranging.Tuple, fallback []geom.Vec2) []geom.Vec2 {
	if len(tuples) != len(w.UEs) {
		return nil
	}
	return s.solveTuples(w, tuples, fallback)
}

// solveTuples multilaterates every UE with a viable tuple set and
// substitutes fallbacks (supplied estimates, then last-known, then the
// area centre) for the rest.
func (s *SkyRAN) solveTuples(w *sim.World, tuples [][]ranging.Tuple, fallback []geom.Vec2) []geom.Vec2 {
	opts := w.LocateOptions()
	// Solve jointly over the UEs with viable tuple sets; UEs in outage
	// during the whole flight (too few tuples) fall back to their last
	// known estimate, or the area centre for brand-new UEs.
	var idxs []int
	var in [][]ranging.Tuple
	for i, ts := range tuples {
		if len(ts) >= 4 {
			idxs = append(idxs, i)
			in = append(in, ts)
		}
	}
	solved := make(map[int]geom.Vec2, len(idxs))
	switch {
	case len(idxs) == 0:
	case w.Faults != nil:
		// Under fault injection the ranges carry gross outliers: gate
		// them (MAD) and discard fixes whose confidence is too low —
		// those UEs take the fallback ladder like outage UEs do.
		if results, err := locate.SolveJointRobust(in, opts); err == nil {
			for k, i := range idxs {
				w.Faults.NoteOutliersRejected(results[k].Outliers)
				if results[k].Confidence < minConfidence {
					w.Faults.NoteLowConfFix()
					continue
				}
				solved[i] = results[k].UE
			}
		}
	default:
		if results, err := locate.SolveJoint(in, opts); err == nil {
			for k, i := range idxs {
				solved[i] = results[k].UE
			}
		}
	}
	ests := make([]geom.Vec2, len(w.UEs))
	for i, u := range w.UEs {
		if p, ok := solved[i]; ok {
			ests[i] = p
			continue
		}
		if fallback != nil {
			ests[i] = fallback[i]
			continue
		}
		if p, ok := s.lastEst[u.ID]; ok {
			ests[i] = p
		} else {
			ests[i] = w.Area().Center()
		}
	}
	return ests
}
