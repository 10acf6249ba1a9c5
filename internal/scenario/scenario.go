// Package scenario runs a full SkyRAN scenario end-to-end — build a
// terrain, drop UEs, run controller epochs with UE mobility, score the
// placements — and reports the outcome as plain data. It is the one
// implementation behind both entry points: the skyranctl CLI prints a
// Result (or emits it as JSON with -json), and the skyrand daemon
// serves the very same Result from its job API. Because both paths
// call Run with the same Spec, a job submitted over HTTP is
// byte-identical to the equivalent CLI run.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/metrics"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/ue"
)

// Spec is a scenario description — the same knobs skyranctl exposes as
// flags, in the wire shape the skyrand job API accepts.
type Spec struct {
	// Terrain names a procedural terrain: CAMPUS, RURAL, NYC, LARGE or
	// FLAT.
	Terrain string `json:"terrain"`
	// UEs is the number of ground terminals.
	UEs int `json:"ues"`
	// Topology places the UEs: "uniform" or "clustered".
	Topology string `json:"topology"`
	// Controller selects the placement strategy: skyran, uniform,
	// centroid, random or oracle.
	Controller string `json:"controller"`
	// BudgetM is the measurement budget per epoch in metres.
	BudgetM float64 `json:"budget_m"`
	// Epochs is how many controller epochs to run; half the UEs
	// relocate between epochs.
	Epochs int `json:"epochs"`
	// Seed drives every stochastic element of the scenario.
	Seed int64 `json:"seed"`
	// ServeS is how many seconds of LTE serving to simulate per epoch
	// (0 skips the serving phase).
	ServeS float64 `json:"serve_s"`
	// Traffic selects the serving-phase workload. Nil keeps the
	// pre-traffic-subsystem full-buffer behaviour (byte-identical
	// output); non-nil routes the serving phase through the
	// discrete-event traffic engine and adds per-UE KPIs to each epoch.
	Traffic *traffic.Spec `json:"traffic,omitempty"`
	// Faults declares the fault-injection schedule. Nil — or a schedule
	// with every rate zero, which Normalize nils out — runs fault-free,
	// byte-identical to a spec without the field.
	Faults *fault.Schedule `json:"faults,omitempty"`

	// Cells, when >= 2, runs the cooperative multi-UAV fleet instead of
	// the single-UAV controller: one airborne eNodeB per cell on a
	// shared EPC, interference-aware placement, load-aware selection and
	// A3 handovers. 0 (and 1) keep the single UAV, and every multi-cell
	// field below is omitted from the wire form when unset, so existing
	// spec fingerprints are unchanged.
	Cells int `json:"cells,omitempty"`
	// Carriers names the fleet carrier plan: "cochannel" (default) or
	// "separate". Only meaningful with Cells >= 2.
	Carriers string `json:"carriers,omitempty"`
	// HandoverHysteresisDB and HandoverTTTs override the A3 hysteresis
	// margin (default 3 dB) and time-to-trigger (default 0.16 s).
	HandoverHysteresisDB float64 `json:"handover_hysteresis_db,omitempty"`
	HandoverTTTs         float64 `json:"handover_ttt_s,omitempty"`
	// MobilityMS, when > 0, gives every UE random-waypoint mobility at
	// this speed (m/s) during serving phases — the workload that makes
	// handovers happen.
	MobilityMS float64 `json:"mobility_ms,omitempty"`
}

// Normalize fills defaults (matching skyranctl's flag defaults, except
// ServeS which stays as given) and validates enumerated fields. NaN and
// infinite floats are rejected: they pass every sign and range check.
func (s *Spec) Normalize() error {
	if err := requireFinite([]namedFloat{
		{"budget_m", s.BudgetM},
		{"serve_s", s.ServeS},
		{"handover_hysteresis_db", s.HandoverHysteresisDB},
		{"handover_ttt_s", s.HandoverTTTs},
		{"mobility_ms", s.MobilityMS},
	}); err != nil {
		return err
	}
	if s.Terrain == "" {
		s.Terrain = "CAMPUS"
	}
	if s.UEs <= 0 {
		s.UEs = 6
	}
	if s.Topology == "" {
		s.Topology = "uniform"
	}
	if s.Topology != "uniform" && s.Topology != "clustered" {
		return fmt.Errorf("scenario: unknown topology %q", s.Topology)
	}
	if s.Controller == "" {
		s.Controller = "skyran"
	}
	switch s.Controller {
	case "skyran", "uniform", "centroid", "random", "oracle":
	default:
		return fmt.Errorf("scenario: unknown controller %q", s.Controller)
	}
	if s.BudgetM == 0 {
		s.BudgetM = 800
	}
	if s.BudgetM < 0 {
		return fmt.Errorf("scenario: negative budget %g", s.BudgetM)
	}
	if s.Epochs <= 0 {
		s.Epochs = 1
	}
	if s.Epochs > 100 {
		return fmt.Errorf("scenario: %d epochs exceeds the per-job cap of 100", s.Epochs)
	}
	// Above 200 UEs the per-epoch ground-truth scan and the probing
	// controllers become intractable, so the scale-up regime (up to
	// 20000 UEs, used for traffic stress runs) is only reachable with
	// the random-placement controller.
	if s.UEs > 200 && s.Controller != "random" {
		return fmt.Errorf("scenario: %d UEs exceeds the per-job cap of 200 (controller %q; only \"random\" may scale to 20000)", s.UEs, s.Controller)
	}
	if s.UEs > 20000 {
		return fmt.Errorf("scenario: %d UEs exceeds the scale-up cap of 20000", s.UEs)
	}
	if s.ServeS < 0 || s.ServeS > 600 {
		return fmt.Errorf("scenario: serve_s %g outside [0, 600]", s.ServeS)
	}
	if s.Traffic != nil {
		if err := s.Traffic.Normalize(); err != nil {
			return err
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Normalize(); err != nil {
			return err
		}
		// An all-zero schedule is the same as no schedule; drop it so
		// the spec fingerprint, the wire form and the run are all
		// byte-identical to the fault-free ones.
		if !s.Faults.Active() {
			s.Faults = nil
		}
	}
	if s.Cells < 0 {
		return fmt.Errorf("scenario: negative cells %d", s.Cells)
	}
	if s.Cells > 16 {
		return fmt.Errorf("scenario: %d cells exceeds the fleet cap of 16", s.Cells)
	}
	if s.Cells < 2 {
		if s.Carriers != "" || s.HandoverHysteresisDB != 0 || s.HandoverTTTs != 0 || s.MobilityMS != 0 {
			return fmt.Errorf("scenario: carriers/handover/mobility fields require cells >= 2")
		}
		return nil
	}
	if _, err := interference.ParsePlan(s.Carriers); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.HandoverHysteresisDB < 0 {
		return fmt.Errorf("scenario: negative handover hysteresis %g dB", s.HandoverHysteresisDB)
	}
	if s.HandoverTTTs < 0 {
		return fmt.Errorf("scenario: negative handover time-to-trigger %g s", s.HandoverTTTs)
	}
	if s.MobilityMS < 0 {
		return fmt.Errorf("scenario: negative mobility speed %g m/s", s.MobilityMS)
	}
	// Fleet placement scores every (cell, UE) pair each descent round;
	// the scale-up population is a single-cell traffic regime.
	if s.UEs > 200 {
		return fmt.Errorf("scenario: %d UEs exceeds the multi-cell cap of 200", s.UEs)
	}
	return nil
}

// namedFloat is a spec field by its wire name.
type namedFloat struct {
	name string
	v    float64
}

// requireFinite rejects the first field that is NaN or infinite.
func requireFinite(fields []namedFloat) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s must be finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// TerrainInfo summarises the built terrain.
type TerrainInfo struct {
	Name               string  `json:"name"`
	WidthM             float64 `json:"width_m"`
	HeightM            float64 `json:"height_m"`
	OpenFrac           float64 `json:"open_frac"`
	BuildingFrac       float64 `json:"building_frac"`
	FoliageFrac        float64 `json:"foliage_frac"`
	MaxObstacleHeightM float64 `json:"max_obstacle_height_m"`
}

// UEServed is one UE's serving-phase outcome.
type UEServed struct {
	UE        int     `json:"ue"`
	ServedBps float64 `json:"served_bps"`
}

// CellReport is one fleet cell's per-epoch state: where it hovers, how
// many UEs it serves, the fully-loaded wideband SINR its UEs see from
// it, and — when a serving phase ran — what they got out of it.
type CellReport struct {
	// Cell is 1-based, matching the per-UE KPI column.
	Cell     int       `json:"cell"`
	Position geom.Vec3 `json:"position"`
	UEs      int       `json:"ues"`
	// SINR statistics over the cell's attached UEs (0 when it serves
	// none).
	MinSINRdB  float64 `json:"min_sinr_db"`
	MeanSINRdB float64 `json:"mean_sinr_db"`
	// ServedBps and JainFairness summarise the serving phase across the
	// cell's UEs (0 when Spec.ServeS is 0).
	ServedBps    float64 `json:"served_bps"`
	JainFairness float64 `json:"jain_fairness"`
}

// HandoverReport is one epoch's handover KPI deltas.
type HandoverReport struct {
	Attempts      uint64  `json:"attempts"`
	Successes     uint64  `json:"successes"`
	PingPongs     uint64  `json:"ping_pongs"`
	InterruptionS float64 `json:"interruption_s"`
}

// EpochReport is one controller epoch, scored against ground truth.
type EpochReport struct {
	Epoch     int  `json:"epoch"`
	Relocated bool `json:"relocated"`

	Position       geom.Vec3 `json:"position"`
	ObjectiveValue float64   `json:"objective_value"`
	LocalizationM  float64   `json:"localization_m"`
	MeasurementM   float64   `json:"measurement_m"`
	TotalFlightS   float64   `json:"total_flight_s"`

	// MedianLocErrM is the median UE localization error; nil for
	// controllers that do not localize.
	MedianLocErrM *float64 `json:"median_loc_err_m,omitempty"`

	// Throughput at the chosen position vs the ground-truth optimum in
	// the same altitude plane.
	ThroughputBps      float64   `json:"throughput_bps"`
	OptimalBps         float64   `json:"optimal_bps"`
	OptimalPos         geom.Vec2 `json:"optimal_pos"`
	RelativeThroughput float64   `json:"relative_throughput"`

	// Serving-phase statistics (empty when Spec.ServeS is 0).
	Served             []UEServed `json:"served,omitempty"`
	AggregateServedBps float64    `json:"aggregate_served_bps"`

	// Traffic is the serving-phase KPI report when the scenario ran a
	// traffic workload (Spec.Traffic non-nil).
	Traffic *traffic.Report `json:"traffic,omitempty"`

	// Faults is this epoch's injected-fault and degradation counter
	// deltas; present only when a fault schedule is active and at
	// least one counter moved.
	Faults *fault.Counts `json:"faults,omitempty"`

	// Cells and Handover are the fleet columns, present only on
	// multi-cell runs (Spec.Cells >= 2): per-cell SINR/load/fairness and
	// this epoch's handover KPI deltas.
	Cells    []CellReport    `json:"cells,omitempty"`
	Handover *HandoverReport `json:"handover,omitempty"`

	BatteryFrac float64 `json:"battery_frac"`
	OdometerM   float64 `json:"odometer_m"`
}

// Result is a completed scenario run.
type Result struct {
	Spec           Spec          `json:"spec"`
	Terrain        TerrainInfo   `json:"terrain"`
	Controller     string        `json:"controller"`
	ActiveSessions int           `json:"active_sessions"`
	Epochs         []EpochReport `json:"epochs"`
}

// MarshalResult renders a Result in the canonical wire form — indented
// JSON with a trailing newline. skyranctl -json writes exactly these
// bytes and the skyrand daemon serves exactly these bytes, so the two
// outputs diff clean.
func MarshalResult(r *Result) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding result: %w", err)
	}
	return append(b, '\n'), nil
}

// CheckpointConfig enables epoch-boundary checkpointing of a run.
type CheckpointConfig struct {
	// Dir is the directory checkpoint files are written to (created if
	// missing).
	Dir string
	// EveryEpochs writes a checkpoint after every N completed epochs
	// (default 1).
	EveryEpochs int
	// Retain keeps only the newest N checkpoint files (0 = keep all).
	Retain int
}

// CheckpointEvent describes one written checkpoint (Options.
// OnCheckpoint).
type CheckpointEvent struct {
	// Path is the committed checkpoint file.
	Path string
	// Epoch is the number of completed epochs the file captures.
	Epoch int
	// Bytes is the encoded file size.
	Bytes int64
	// Seconds is how long encoding + committing took.
	Seconds float64
}

// Options tunes a Run beyond the Spec.
type Options struct {
	// Terrain, when non-nil, overrides Spec.Terrain with a pre-built
	// surface (skyranctl's -xyz / -esri paths).
	Terrain *terrain.Surface
	// Tracer, when non-nil, receives the run's flight telemetry.
	Tracer *trace.Recorder
	// OnStart is called once the world is built, with the Result's
	// header fields (Spec, Terrain, ActiveSessions) populated and
	// Epochs still empty.
	OnStart func(*Result)
	// OnEpoch is called after each epoch with its finished report.
	OnEpoch func(EpochReport)
	// Checkpoint, when non-nil, writes epoch-boundary checkpoints the
	// run can later be resumed from. Checkpointing changes nothing
	// about the Result: a checkpointed run and a plain run of the same
	// Spec produce byte-identical output.
	Checkpoint *CheckpointConfig
	// OnCheckpoint is called after each committed checkpoint file.
	OnCheckpoint func(CheckpointEvent)
	// Workers bounds the fleet-placement fan-out on multi-cell runs
	// (0 = one worker per core). It is an execution knob, not part of
	// the Spec, and never changes results.
	Workers int
	// RecordTrace, when non-empty, captures the run's traffic workload
	// (packet arrivals plus phase-start UE positions) into this trace
	// file for later replay via traffic mode "replay", on a single UAV
	// or a fleet. It requires a packet traffic model and no
	// checkpointing; capture never changes the Result.
	RecordTrace string
}

// runEnv is a built scenario: the world, controller and scenario RNG a
// run (or a resumed run) executes against. m is the serving world — a
// fleet, or the single UAV's one cell — and w is set only on
// single-UAV runs, whose controller flies it; fleets keep no
// controller.
type runEnv struct {
	spec Spec
	rng  *detrand.Rand
	w    *sim.World
	m    *sim.MultiCell
	ctrl core.Controller
	res  *Result
}

// build constructs the world and controller for an already-normalized
// spec. The scenario RNG has consumed exactly the UE-placement draws
// on return.
func build(spec Spec, opts Options) (*runEnv, error) {
	t := opts.Terrain
	if t == nil {
		t = terrain.ByName(spec.Terrain, uint64(spec.Seed))
		if t == nil {
			return nil, fmt.Errorf("scenario: unknown terrain %q", spec.Terrain)
		}
	}

	rng := detrand.New(spec.Seed)
	var ues []*ue.UE
	if spec.Topology == "clustered" {
		center, err := ue.TryPlaceRandomOpen(1, t.Bounds().Inset(40), t.IsOpen, 0, rng.Rand)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		ues = ue.PlaceClustered(spec.UEs, center[0].Pos, t.Bounds().Width()*0.06, t.Bounds(), t.IsOpen, rng.Rand)
	} else {
		area := t.Bounds().Inset(t.Bounds().Width() * 0.08)
		minSep := 15.0
		if spec.UEs > 200 {
			// Dense scale-up populations cannot honour the default 15 m
			// separation; shrink it so the expected packing stays
			// feasible. Small populations keep the exact legacy value
			// (and therefore byte-identical placements).
			minSep = min(15, math.Sqrt(area.Width()*area.Height()/float64(4*spec.UEs)))
		}
		placed, err := ue.TryPlaceRandomOpen(spec.UEs, area, t.IsOpen, minSep, rng.Rand)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		ues = placed
	}
	cfg := sim.Config{Terrain: t, Seed: uint64(spec.Seed), FastRanging: true, Faults: spec.Faults}
	env := &runEnv{spec: spec, rng: rng}
	controller := "fleet" // the fleet IS the placement strategy
	if spec.Cells >= 2 {
		m, err := newFleet(spec, cfg, ues, opts.Workers)
		if err != nil {
			return nil, err
		}
		env.m = m
	} else {
		w, err := sim.New(cfg, ues)
		if err != nil {
			return nil, err
		}
		ctrl, err := makeController(spec.Controller, spec.BudgetM, spec.Seed)
		if err != nil {
			return nil, err
		}
		env.w, env.m, env.ctrl, controller = w, w.MultiCell, ctrl, ctrl.Name()
	}
	env.m.Tracer = opts.Tracer
	if opts.Tracer != nil {
		opts.Tracer.Meta(t.Name, spec.Seed)
	}
	st := t.Stats()
	env.res = &Result{
		Spec: spec,
		Terrain: TerrainInfo{
			Name: t.Name, WidthM: t.Bounds().Width(), HeightM: t.Bounds().Height(),
			OpenFrac: st.OpenFrac, BuildingFrac: st.BuildingFrac, FoliageFrac: st.FoliageFrac,
			MaxObstacleHeightM: st.MaxObstacleHeight,
		},
		Controller:     controller,
		ActiveSessions: env.m.Core.ActiveSessions(),
	}
	return env, nil
}

// newFleet constructs the multi-cell fleet: the carrier plan and A3
// knobs come from the spec, and every UE optionally gets
// random-waypoint mobility.
func newFleet(spec Spec, cfg sim.Config, ues []*ue.UE, workers int) (*sim.MultiCell, error) {
	plan, err := interference.ParsePlan(spec.Carriers)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	ho := enb.DefaultHandoverConfig()
	if spec.HandoverHysteresisDB > 0 {
		ho.HysteresisDB = spec.HandoverHysteresisDB
	}
	if spec.HandoverTTTs > 0 {
		ho.TTTs = spec.HandoverTTTs
	}
	if spec.MobilityMS > 0 {
		// The same inset the placement uses, so waypoint targets stay in
		// the populated area.
		area := cfg.Terrain.Bounds().Inset(cfg.Terrain.Bounds().Width() * 0.08)
		for _, u := range ues {
			u.Mobility = ue.NewRandomWaypoint(area, spec.MobilityMS, 0)
		}
	}
	m, err := sim.NewMultiCell(cfg, spec.Cells, plan, ho, ues, workers)
	if err != nil {
		return nil, err
	}
	m.Mobile = spec.MobilityMS > 0
	return m, nil
}

// Run executes the scenario and returns its Result plus the
// controller's REM store (nil for controllers that keep no store).
// Cancelling ctx aborts between epochs and, for the SkyRAN controller,
// between flight phases; the error then wraps ctx.Err().
func Run(ctx context.Context, spec Spec, opts Options) (*Result, *rem.Store, error) {
	if err := spec.Normalize(); err != nil {
		return nil, nil, err
	}
	env, err := build(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := setupTracing(env, opts); err != nil {
		return nil, nil, err
	}
	if opts.OnStart != nil {
		opts.OnStart(env.res)
	}
	res, store, err := runFrom(ctx, env, len(env.res.Epochs), opts)
	if err == nil && opts.RecordTrace != "" {
		if _, werr := env.m.Capture.Trace.WriteFile(opts.RecordTrace); werr != nil {
			return res, store, fmt.Errorf("scenario: writing trace: %w", werr)
		}
	}
	return res, store, err
}

// runFrom executes epochs startEpoch..spec.Epochs-1 against a built
// (or restored) environment. An epoch relocates half the UEs, places
// the world — the controller epoch scored against ground truth for a
// single UAV, fleet placement and load-aware reselection for a fleet —
// serves, and reports. Only placement and the per-kind report columns
// (battery and odometer, or per-cell rows and handover deltas) differ
// between the two.
func runFrom(ctx context.Context, env *runEnv, startEpoch int, opts Options) (*Result, *rem.Store, error) {
	spec, m, res := env.spec, env.m, env.res
	done := func(err error) (*Result, *rem.Store, error) { return res, storeOf(env.ctrl), err }
	// Deltas diff against the counters at loop entry; on a resume the
	// restored injector and handover engine carry the pre-checkpoint
	// totals, so the first resumed epoch's delta starts from them.
	prevFaults, prevHO := m.FaultCounts(), m.HO.Stats()
	for e := startEpoch; e < spec.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return done(fmt.Errorf("scenario: epoch %d: %w", e+1, err))
		}
		relocated := e > 0
		if relocated {
			ue.RelocateHalf(m.UEs, m.Cfg.Terrain.Bounds(), m.Cfg.Terrain.IsOpen, env.rng.Rand)
		}
		rep, err := env.place(ctx, e)
		if err != nil {
			return done(err)
		}
		rep.Epoch, rep.Relocated = e+1, relocated
		if spec.ServeS > 0 {
			if err := env.serve(&rep); err != nil {
				return done(fmt.Errorf("scenario: epoch %d serving: %w", e+1, err))
			}
		}
		if env.w != nil {
			rep.BatteryFrac = env.w.UAV.EnergyFraction()
			rep.OdometerM = env.w.UAV.OdometerM()
		} else {
			rep.Cells = cellReports(m, rep.Served)
			ho := m.HO.Stats()
			rep.Handover = &HandoverReport{
				Attempts:      ho.Attempts - prevHO.Attempts,
				Successes:     ho.Successes - prevHO.Successes,
				PingPongs:     ho.PingPongs - prevHO.PingPongs,
				InterruptionS: ho.InterruptionS - prevHO.InterruptionS,
			}
			prevHO = ho
		}
		if spec.Faults != nil {
			now := m.FaultCounts()
			if delta := now.Sub(prevFaults); !delta.IsZero() {
				d := delta
				rep.Faults = &d
				if m.Tracer != nil {
					for _, nc := range delta.NonZero() {
						m.Tracer.Emit(trace.Record{
							Kind: trace.KindFault, T: m.Clock, Epoch: e + 1,
							Fault: nc.Name, Value: float64(nc.N),
						})
					}
				}
			}
			prevFaults = now
		}
		res.Epochs = append(res.Epochs, rep)
		if opts.OnEpoch != nil {
			opts.OnEpoch(rep)
		}
		if cp := opts.Checkpoint; cp != nil {
			every := cp.EveryEpochs
			if every <= 0 {
				every = 1
			}
			if (e+1)%every == 0 {
				if err := writeCheckpoint(env, e+1, cp, opts.OnCheckpoint); err != nil {
					return done(fmt.Errorf("scenario: epoch %d: %w", e+1, err))
				}
			}
		}
	}
	return done(nil)
}

// place positions the world for epoch e and starts its report: the
// single UAV runs a controller epoch, scored against ground truth in
// the serving plane; a fleet re-places its cells on the new UE field
// and reselects cells load-aware.
func (env *runEnv) place(ctx context.Context, e int) (EpochReport, error) {
	w, m := env.w, env.m
	if w == nil {
		if err := m.PlaceCells(); err != nil {
			return EpochReport{}, fmt.Errorf("scenario: epoch %d placement: %w", e+1, err)
		}
		if err := m.Reselect(); err != nil {
			return EpochReport{}, fmt.Errorf("scenario: epoch %d reselection: %w", e+1, err)
		}
		return EpochReport{Position: m.Graph.Cells[0], ObjectiveValue: m.MinSINRdB(), ThroughputBps: m.AvgThroughputBps()}, nil
	}
	er, err := core.RunEpochCtx(ctx, env.ctrl, w)
	if err != nil {
		return EpochReport{}, fmt.Errorf("scenario: epoch %d: %w", e+1, err)
	}
	rep := EpochReport{
		Position:       er.Position,
		ObjectiveValue: er.ObjectiveValue,
		LocalizationM:  er.LocalizationM,
		MeasurementM:   er.MeasurementM,
		TotalFlightS:   er.TotalFlightS,
	}
	if len(er.UEEstimates) == len(w.UEs) {
		var errs []float64
		for i, est := range er.UEEstimates {
			errs = append(errs, est.Dist(w.UEs[i].Pos))
		}
		med := metrics.Median(errs)
		rep.MedianLocErrM = &med
	}
	// Quality vs ground truth in the serving plane. The exhaustive grid
	// scan is O(cells × UEs); past the probing-controller cap it would
	// dominate the run, so scale-up populations skip it.
	rep.ThroughputBps = w.AvgThroughputAt(er.Position)
	if len(w.UEs) <= 200 {
		bestPos, bestVal := core.BestPosition(w, er.Position.Z, 5, rem.MaxMean)
		rep.OptimalBps = bestVal
		rep.OptimalPos = bestPos
		rep.RelativeThroughput = metrics.Relative(rep.ThroughputBps, bestVal)
	}
	return rep, nil
}

// world is what serving and checkpointing see of either world kind:
// the single UAV first parks its one cell at the UAV's position, and
// checkpoints its platform with the cell.
type world interface {
	ServeTraffic(seconds float64, ttiStride int, spec traffic.Spec) (*traffic.Report, error)
	ServeSeconds(seconds float64, ttiStride int) ([]float64, error)
	Snapshot() sim.State
	Restore(sim.State) error
}

// world returns the single UAV's World, or the fleet.
func (env *runEnv) world() world {
	if env.w != nil {
		return env.w
	}
	return env.m
}

// serve runs the epoch's serving phase and adds its per-UE rates (and,
// with a traffic workload, its KPI report) to rep.
func (env *runEnv) serve(rep *EpochReport) error {
	spec := env.spec
	srv := env.world()
	if spec.Traffic != nil {
		trep, err := srv.ServeTraffic(spec.ServeS, 10, *spec.Traffic)
		if err != nil {
			return err
		}
		rep.Traffic = trep
		for _, k := range trep.KPIs {
			rep.Served = append(rep.Served, UEServed{UE: k.UE, ServedBps: k.ThroughputBps})
			rep.AggregateServedBps += k.ThroughputBps
		}
		return nil
	}
	bits, err := srv.ServeSeconds(spec.ServeS, 10)
	if err != nil {
		return err
	}
	for i, b := range bits {
		rep.Served = append(rep.Served, UEServed{UE: env.m.UEs[i].ID, ServedBps: b / spec.ServeS})
		rep.AggregateServedBps += b / spec.ServeS
	}
	return nil
}

// cellReports summarises each cell for one epoch: position, load,
// fully-loaded wideband SINR over its attached UEs, and (when a serving
// phase ran) the per-cell served rate and its Jain fairness. served is
// rep.Served in UE index order, or nil when no serving phase ran.
func cellReports(m *sim.MultiCell, served []UEServed) []CellReport {
	out := make([]CellReport, m.NCells)
	for c := range out {
		out[c] = CellReport{Cell: c + 1, Position: m.Graph.Cells[c]}
	}
	sums := make([]float64, m.NCells)
	bps := make([][]float64, m.NCells)
	for i, u := range m.UEs {
		c := m.CellOf(i)
		s := m.Graph.WidebandSINRdB(c, u.Pos, nil, 0)
		if out[c].UEs == 0 || s < out[c].MinSINRdB {
			out[c].MinSINRdB = s
		}
		sums[c] += s
		out[c].UEs++
		if i < len(served) {
			bps[c] = append(bps[c], served[i].ServedBps)
			out[c].ServedBps += served[i].ServedBps
		}
	}
	for c := range out {
		if out[c].UEs > 0 {
			out[c].MeanSINRdB = sums[c] / float64(out[c].UEs)
		}
		out[c].JainFairness = traffic.JainIndex(bps[c])
	}
	return out
}

// storeOf exposes the controller's REM store when it keeps one.
func storeOf(ctrl core.Controller) *rem.Store {
	if s, ok := ctrl.(*core.SkyRAN); ok {
		return s.Store()
	}
	return nil
}

func makeController(name string, budget float64, seed int64) (core.Controller, error) {
	switch name {
	case "skyran":
		return core.NewSkyRAN(core.Config{Seed: seed, MeasurementBudgetM: budget}), nil
	case "uniform":
		return &core.Uniform{BudgetM: budget}, nil
	case "centroid":
		return &core.Centroid{Seed: seed}, nil
	case "random":
		return &core.Random{Seed: seed}, nil
	case "oracle":
		return &core.Oracle{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown controller %q", name)
	}
}
