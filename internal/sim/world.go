// Package sim assembles the full simulated world — terrain, radio
// propagation, the UAV platform, ground UEs, and the LTE stack — and
// exposes the three operations the SkyRAN controller performs against
// reality: localization flights (SRS ranging at 100 Hz + GPS at
// 50 Hz), measurement flights (SNR sampling into REMs), and serving
// (hover + scheduler). It replaces the 35 real test flights of §4.2
// with seeded, reproducible Monte-Carlo instances at the same sampling
// rates.
package sim

import (
	"fmt"
	"math"

	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/epc"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/ltephy"
	"repro/internal/radio"
	"repro/internal/ranging"
	"repro/internal/terrain"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/uav"
	"repro/internal/ue"
)

// Config describes a world.
type Config struct {
	// Terrain is the ground environment (required).
	Terrain *terrain.Surface
	// Seed drives every stochastic element (shadowing field identity
	// comes from the radio seed; measurement noise, SRS channels and
	// mobility from derived streams).
	Seed uint64
	// RadioParams tunes propagation; zero value selects defaults.
	RadioParams radio.Params
	// UAVConfig tunes the platform; zero value selects defaults.
	UAVConfig uav.Config
	// MeasNoiseDB is the σ of per-sample SNR measurement noise
	// (PHY estimation error + residual fast fading). Default 2 dB.
	MeasNoiseDB float64
	// ProcOffsetM is the constant SRS processing-delay offset in
	// metres (default 58.6 m ≈ 3 samples, the kind of pipeline latency
	// an SDR eNodeB exhibits).
	ProcOffsetM float64
	// FastRanging replaces the full SRS PHY chain with a calibrated
	// error model (quantization + NLOS bias), ~100× faster. Scale-up
	// experiments enable it; accuracy experiments keep the real chain.
	FastRanging bool
	// UplinkBonusDB is added to the downlink SNR to obtain the SRS
	// (uplink) SNR: the UE transmits at 23 dBm against the payload's
	// 10 dBm PA output, and the LNA adds receive gain (§4.1). Default
	// 13 dB.
	UplinkBonusDB float64
	// Scheduler selects the serving-phase MAC policy.
	Scheduler enb.SchedulerPolicy
	// Faults, when non-nil and active, injects the scheduled fault
	// kinds from streams derived from Seed. A nil or all-zero schedule
	// leaves every simulation stream untouched — the run is
	// byte-identical to one with no schedule at all.
	Faults *fault.Schedule
}

func (c *Config) defaults() {
	if c.RadioParams == (radio.Params{}) {
		c.RadioParams = radio.DefaultParams()
	}
	if c.UAVConfig == (uav.Config{}) {
		c.UAVConfig = uav.DefaultConfig()
	}
	if c.MeasNoiseDB == 0 {
		c.MeasNoiseDB = 2
	}
	if c.ProcOffsetM == 0 {
		c.ProcOffsetM = 58.6
	}
	if c.UplinkBonusDB == 0 {
		c.UplinkBonusDB = 13
	}
}

// World is the live simulation state.
type World struct {
	Cfg     Config
	Terrain *terrain.Surface
	Radio   *radio.Model
	UAV     *uav.UAV
	UEs     []*ue.UE
	Num     ltephy.Numerology
	ENB     *enb.ENodeB
	Core    *epc.Core

	// Tracer, when non-nil, receives decimated flight telemetry
	// (every 10th GPS window) and serving statistics.
	Tracer *trace.Recorder

	// Faults is the world's fault injector; nil when the scenario has
	// no active fault schedule.
	Faults *fault.Injector

	// Capture, when non-nil, records every serving phase's arrivals and
	// phase-start UE positions for later replay. It never changes the
	// run: a capturing run and a plain run produce byte-identical KPIs.
	Capture *traffic.Capture

	// replay holds the loaded trace when serving with Mode = replay
	// (preloaded via SetReplayTrace or lazily from Spec.TraceFile).
	replay *traffic.Trace

	Clock float64 // simulated seconds

	rng   *detrand.Rand // measurement noise, SRS channels
	mrng  *detrand.Rand // mobility
	srs   []*ltephy.SRS
	imsis []epc.IMSI // per UE index, provisioned once in New

	// servePhase counts ServeTraffic invocations so each epoch's
	// arrival processes draw from fresh (but reproducible) streams.
	servePhase uint64
}

// New builds a world, attaches every UE to the LTE stack, and parks
// the UAV at the area centre at maximum altitude.
func New(cfg Config, ues []*ue.UE) (*World, error) {
	if cfg.Terrain == nil {
		return nil, fmt.Errorf("sim: Config.Terrain is required")
	}
	cfg.defaults()
	model := radio.NewModel(cfg.Terrain, cfg.RadioParams, cfg.Seed)
	num := ltephy.LTE10MHz()
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	e := enb.New(num, core, cfg.Scheduler)

	start := cfg.Terrain.Bounds().Center().WithZ(cfg.UAVConfig.MaxAltitudeM)
	w := &World{
		Cfg:     cfg,
		Terrain: cfg.Terrain,
		Radio:   model,
		UAV:     uav.New(cfg.UAVConfig, start, int64(cfg.Seed)+101),
		UEs:     ues,
		Num:     num,
		ENB:     e,
		Core:    core,
		rng:     detrand.New(int64(cfg.Seed) + 202),
		mrng:    detrand.New(int64(cfg.Seed) + 303),
		Faults:  fault.New(cfg.Faults, int64(cfg.Seed)),
		imsis:   imsisFor(ues),
	}
	w.UAV.SetPowerScale(w.Faults.PowerScale())
	for i, u := range ues {
		imsi := w.imsis[i]
		var key [16]byte
		key[0] = byte(u.ID)
		key[15] = byte(u.ID >> 8)
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key, QoSClass: 9})
		if _, err := e.Attach(imsi, key, uint64(u.ID)+cfg.Seed); err != nil {
			return nil, fmt.Errorf("sim: attaching UE %d: %w", u.ID, err)
		}
		// FastRanging never touches the SRS PHY chain, so skip building
		// the per-UE sounding sequences (~16 KB each): that is what lets
		// 10k-UE scale-up worlds construct in milliseconds.
		if !cfg.FastRanging {
			root := 1 + (u.ID*37)%1019 // distinct Zadoff-Chu roots per UE
			s, err := ltephy.NewSRS(num, root)
			if err != nil {
				return nil, fmt.Errorf("sim: SRS for UE %d: %w", u.ID, err)
			}
			w.srs = append(w.srs, s)
		}
	}
	return w, nil
}

// imsisFor derives every UE's IMSI from its ID, in UE index order.
func imsisFor(ues []*ue.UE) []epc.IMSI {
	out := make([]epc.IMSI, len(ues))
	for i, u := range ues {
		out[i] = epc.IMSI(fmt.Sprintf("00101%010d", u.ID))
	}
	return out
}

// IMSIOf returns the IMSI provisioned for the i-th UE.
func (w *World) IMSIOf(i int) epc.IMSI { return w.imsis[i] }

// Area returns the operating area.
func (w *World) Area() geom.Rect { return w.Terrain.Bounds() }

// Step advances simulated time: the UAV flies its route and UEs move.
func (w *World) Step(dt float64) {
	w.UAV.Step(dt)
	for _, u := range w.UEs {
		u.Step(dt, w.mrng.Rand)
	}
	w.Clock += dt
}

// TrueSNR returns the noiseless downlink SNR from the UAV's true
// position to UE i.
func (w *World) TrueSNR(i int) float64 {
	return w.Radio.SNR(w.UAV.Position(), w.UEs[i].Pos)
}

// MeasuredSNR returns one 100 Hz PHY SNR report for UE i: true SNR
// plus measurement noise.
func (w *World) MeasuredSNR(i int) float64 {
	return w.TrueSNR(i) + w.rng.NormFloat64()*w.Cfg.MeasNoiseDB
}

// SNRAt returns the true SNR from an arbitrary UAV position to UE i's
// current position — used to build ground truth against current
// topology.
func (w *World) SNRAt(pos geom.Vec3, i int) float64 {
	return w.Radio.SNR(pos, w.UEs[i].Pos)
}

// AvgThroughputAt returns the mean full-buffer throughput over all UEs
// were the UAV at pos — the paper's "average throughput per UE" value
// for a candidate position (Fig 1).
func (w *World) AvgThroughputAt(pos geom.Vec3) float64 {
	if len(w.UEs) == 0 {
		return 0
	}
	var sum float64
	for i := range w.UEs {
		sum += w.Num.ThroughputBps(w.SNRAt(pos, i))
	}
	return sum / float64(len(w.UEs))
}

// MinSNRAt returns the minimum SNR across UEs from pos (the §3.4
// placement objective value).
func (w *World) MinSNRAt(pos geom.Vec3) float64 {
	min := math.Inf(1)
	for i := range w.UEs {
		if s := w.SNRAt(pos, i); s < min {
			min = s
		}
	}
	return min
}

// GroundTruthREMs computes, for every UE's *current* position, the
// true SNR grid at the given altitude and evaluation cell size.
func (w *World) GroundTruthREMs(alt, evalCell float64) []*geom.Grid {
	out := make([]*geom.Grid, len(w.UEs))
	for i, u := range w.UEs {
		out[i] = radio.GroundTruthREM(w.Radio, w.Area(), evalCell, u.Pos, alt)
	}
	return out
}

// gpsTick is the 50 Hz simulation step.
const gpsTick = 0.02

// churnedSNRdB is the channel report a churned-out UE produces: far
// below any decodable CQI, so the scheduler deallocates it until the
// outage ends.
const churnedSNRdB = -30

// hoverSNRs returns every UE's true SNR from the UAV's current
// position. A serving phase hovers: neither the UAV nor any UE moves
// until it returns, so one evaluation per phase holds for all of its
// 10 ms report ticks.
func (w *World) hoverSNRs() []float64 {
	out := make([]float64, len(w.UEs))
	for i := range out {
		out[i] = w.TrueSNR(i)
	}
	return out
}

// reportSNRs runs one 10 ms report tick: each UE's true SNR plus one
// noise draw, in UE index order — the arithmetic and RNG draws of
// MeasuredSNR — with churned-out UEs reporting an undecodable channel
// after consuming their draw.
func (w *World) reportSNRs(trueSNR []float64, plan *fault.ServePlan, tRel float64) {
	for i, snr := range trueSNR {
		snr += w.rng.NormFloat64() * w.Cfg.MeasNoiseDB
		if plan.ChurnedOut(i, tRel) {
			snr = churnedSNRdB
		}
		w.ENB.ReportSNR(w.imsis[i], snr)
	}
}

// MeasSample is one 50 Hz measurement-flight record: the GPS position
// the sample is attributed to and the measured SNR to every UE
// (average of the two 100 Hz PHY reports in the window).
type MeasSample struct {
	GPS  geom.Vec3
	SNRs []float64
}

// FlyMeasure flies the 2-D path at the given altitude while recording
// SNR samples for all UEs, stopping early when budgetM metres have
// been covered (0 = unlimited). It returns the collected samples and
// the distance actually flown.
func (w *World) FlyMeasure(path geom.Polyline, alt, budgetM float64) ([]MeasSample, float64) {
	samples, _, flown := w.flyMeasure(path, alt, budgetM, false)
	return samples, flown
}

// FlyMeasureWithRanging is FlyMeasure plus SRS ranging: the eNodeB
// keeps receiving SRS during measurement flights, so the same flight
// yields a GPS-ToF tuple stream with a far larger synthetic aperture
// than the dedicated localization loop. SkyRAN uses it to refine UE
// position estimates at zero extra flight cost.
func (w *World) FlyMeasureWithRanging(path geom.Polyline, alt, budgetM float64) ([]MeasSample, [][]ranging.Tuple, float64) {
	return w.flyMeasure(path, alt, budgetM, true)
}

func (w *World) flyMeasure(path geom.Polyline, alt, budgetM float64, withRanging bool) ([]MeasSample, [][]ranging.Tuple, float64) {
	w.UAV.SetRoute2D(path, alt)
	abortM := w.legAbortM(path, budgetM)
	var samples []MeasSample
	var flown float64
	collectors := make([]ranging.Collector, len(w.UEs))
	tick := 0
	for !w.UAV.Hovering() {
		before := w.UAV.OdometerM()
		w.Step(gpsTick)
		flown += w.UAV.OdometerM() - before
		gps := w.gpsFix()
		snrs := make([]float64, len(w.UEs))
		for i := range w.UEs {
			// Two 100 Hz reports per 50 Hz window, averaged.
			snrs[i] = (w.MeasuredSNR(i) + w.MeasuredSNR(i)) / 2
			if withRanging {
				collectors[i].AddGPS(gps)
				for k := 0; k < 2; k++ {
					if r, ok := w.rangeOnce(i); ok {
						collectors[i].AddRange(r)
					}
				}
			}
		}
		samples = append(samples, MeasSample{GPS: gps, SNRs: snrs})
		if w.Tracer != nil && tick%10 == 0 {
			w.Tracer.Emit(trace.Record{Kind: trace.KindGPS, T: w.Clock, X: gps.X, Y: gps.Y, Z: gps.Z})
			for i, s := range snrs {
				w.Tracer.Emit(trace.Record{Kind: trace.KindSNR, T: w.Clock, UE: w.UEs[i].ID, Value: s})
			}
		}
		tick++
		if budgetM > 0 && flown >= budgetM {
			w.UAV.SetRoute(nil)
			break
		}
		if abortM > 0 && flown >= abortM {
			w.UAV.SetRoute(nil)
			break
		}
	}
	var tuples [][]ranging.Tuple
	if withRanging {
		tuples = make([][]ranging.Tuple, len(w.UEs))
		for i := range collectors {
			tuples[i] = collectors[i].Tuples()
		}
	}
	return samples, tuples, flown
}

// LocalizationFlight flies the given (typically short, random)
// trajectory at altitude alt while exchanging SRS with every UE, and
// returns the GPS-ToF tuple stream per UE (§3.2). The SRS exchange
// runs the real PHY chain unless FastRanging is configured.
func (w *World) LocalizationFlight(path geom.Polyline, alt float64) ([][]ranging.Tuple, float64) {
	w.UAV.SetRoute2D(path, alt)
	abortM := w.legAbortM(path, 0)
	collectors := make([]ranging.Collector, len(w.UEs))
	var flown float64
	for !w.UAV.Hovering() {
		before := w.UAV.OdometerM()
		w.Step(gpsTick)
		flown += w.UAV.OdometerM() - before
		gps := w.gpsFix()
		for i := range w.UEs {
			collectors[i].AddGPS(gps)
			// Two SRS exchanges per GPS window (100 Hz vs 50 Hz).
			for k := 0; k < 2; k++ {
				if r, ok := w.rangeOnce(i); ok {
					collectors[i].AddRange(r)
				}
			}
		}
		if abortM > 0 && flown >= abortM {
			w.UAV.SetRoute(nil)
			break
		}
	}
	out := make([][]ranging.Tuple, len(w.UEs))
	for i := range collectors {
		out[i] = collectors[i].Tuples()
	}
	return out, flown
}

// rangeOnce performs one SRS ranging exchange with UE i from the
// UAV's current true position. It returns false when the uplink is in
// outage (SNR too low to decode the SRS).
func (w *World) rangeOnce(i int) (float64, bool) {
	uePoint := w.Radio.UEPoint(w.UEs[i].Pos)
	trueDist := w.UAV.Position().Dist(uePoint)
	snr := w.TrueSNR(i) + w.Cfg.UplinkBonusDB // UE PA + eNodeB LNA headroom
	if snr < -8 {
		return 0, false // below decodable SRS SNR
	}
	if w.Faults != nil && w.Faults.DropSRS() {
		return 0, false // injected ranging dropout
	}
	los := w.Radio.LOS(w.UAV.Position(), uePoint)
	if w.Cfg.FastRanging {
		return w.perturbRange(w.fastRange(trueDist, los)), true
	}
	ch := ltephy.Channel{
		DistanceM:   trueDist,
		ProcOffsetM: w.Cfg.ProcOffsetM,
		SNRdB:       math.Min(snr, 30),
		LOS:         los,
	}
	d, err := w.srs[i].RangeOnce(ch, ltephy.DefaultUpsampling, w.rng.Rand)
	if err != nil {
		return 0, false
	}
	return w.perturbRange(d), true
}

// perturbRange applies the injected heavy-tailed outlier model to a
// ranging measurement (identity without an active injector).
func (w *World) perturbRange(d float64) float64 {
	if w.Faults == nil {
		return d
	}
	return w.Faults.PerturbRange(d)
}

// gpsFix returns one GPS reading with any injected drift bias applied
// on top of the platform's white per-fix noise.
func (w *World) gpsFix() geom.Vec3 {
	gps := w.UAV.GPS()
	if w.Faults != nil {
		gps = w.Faults.PerturbGPS(gps, gpsTick)
	}
	return gps
}

// legAbortM draws whether this flight leg aborts early, returning the
// distance at which it ends (0 = flies to completion). The planned
// length is the path length capped by the budget.
func (w *World) legAbortM(path geom.Polyline, budgetM float64) float64 {
	if w.Faults == nil {
		return 0
	}
	frac, abort := w.Faults.AbortLeg()
	if !abort {
		return 0
	}
	planned := path.Length()
	if budgetM > 0 && budgetM < planned {
		planned = budgetM
	}
	return planned * frac
}

// fastRange mimics the SRS estimator's error statistics without the
// FFTs: quantization to the upsampled sample grid plus Gaussian jitter,
// with an exponential late bias under NLOS. The parameters are fitted
// to the full chain (see ltephy tests / Fig 17).
func (w *World) fastRange(trueDist float64, los bool) float64 {
	res := w.Num.SampleDistanceM() / ltephy.DefaultUpsampling
	d := trueDist + w.Cfg.ProcOffsetM
	if los {
		d += w.rng.NormFloat64() * 1.5
	} else {
		d += w.rng.NormFloat64()*4 + w.rng.ExpFloat64()*6
	}
	// Quantize to the correlator grid.
	return math.Round(d/res) * res
}

// ServeSeconds hovers at the current position serving traffic for the
// given simulated duration: SNR reports refresh every 10 ms and the
// scheduler runs every TTI. It returns the per-UE served bits during
// the interval. ttiStride > 1 trades accuracy for speed by running one
// TTI per stride milliseconds and scaling the credit.
func (w *World) ServeSeconds(seconds float64, ttiStride int) []float64 {
	var plan *fault.ServePlan
	if w.Faults != nil {
		plan = w.Faults.NewServePlan(w.Cfg.Seed, w.servePhase, len(w.UEs), seconds)
		w.servePhase++
	}
	return w.serveSeconds(seconds, ttiStride, plan)
}

// serveSeconds is the ServeSeconds body with an optional serving-phase
// fault plan: UEs inside a churn outage report an undecodable channel
// (CQI 0), so the scheduler starves them until they rejoin.
func (w *World) serveSeconds(seconds float64, ttiStride int, plan *fault.ServePlan) []float64 {
	if ttiStride < 1 {
		ttiStride = 1
	}
	startBits := make([]float64, len(w.UEs))
	for i := range w.UEs {
		startBits[i] = w.ENB.ServedBits(w.IMSIOf(i))
	}
	snr := w.hoverSNRs()
	tti := float64(ttiStride) / 1000
	steps := int(seconds * 1000 / float64(ttiStride))
	every := reportEvery(ttiStride)
	for s := 0; s < steps; s++ {
		if s%every == 0 {
			w.reportSNRs(snr, plan, float64(s)*tti)
		}
		w.ENB.RunTTI()
		w.Clock += tti
	}
	out := make([]float64, len(w.UEs))
	for i := range w.UEs {
		out[i] = (w.ENB.ServedBits(w.IMSIOf(i)) - startBits[i]) * float64(ttiStride)
		if w.Tracer != nil {
			w.Tracer.Emit(trace.Record{Kind: trace.KindServe, T: w.Clock, UE: w.UEs[i].ID, Value: out[i]})
		}
	}
	return out
}

// ServeTraffic hovers at the current position serving the given
// workload: a seeded per-UE arrival process offers downlink packets
// through the EPC's GTP-U tunnels into each UE's bearer, the scheduler
// runs every TTI, and its grants drain the bearers packet by packet.
// It returns the per-UE KPI report (throughput, queueing delay, loss).
//
// Determinism: arrivals come from per-UE streams derived from the
// world seed and a per-world phase counter, merged on a (time, seq)
// event heap; the loop is single-threaded and grants fire in RNTI
// order, so identical seeds and knobs yield byte-identical reports at
// any host parallelism. The full-buffer model degenerates to
// ServeSeconds with the grants reported as goodput.
//
// Timestamps are on the world clock, so a backlog surviving into a
// later epoch's serving phase still yields correct queueing delays.
func (w *World) ServeTraffic(seconds float64, ttiStride int, spec traffic.Spec) (*traffic.Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if ttiStride < 1 {
		ttiStride = 1
	}
	ids := make([]int, len(w.UEs))
	for i, u := range w.UEs {
		ids[i] = u.ID
	}

	if spec.Model == traffic.ModelFullBuffer && spec.Mode != traffic.ModeReplay {
		col := traffic.NewCollector(spec.Model, ids)
		for i, bits := range w.ServeSeconds(seconds, ttiStride) {
			col.FullBufferServed(i, bits)
		}
		rep := col.Report(seconds, nil, nil)
		w.emitTraffic(rep, false) // ServeSeconds already emitted KindServe
		return rep, nil
	}

	phase := w.servePhase
	w.servePhase++
	phaseSeed := w.Cfg.Seed + 0x9e3779b97f4a7c15*phase
	var plan *fault.ServePlan
	if w.Faults != nil {
		plan = w.Faults.NewServePlan(w.Cfg.Seed, phase, len(w.UEs), seconds)
	}
	model := spec.Model
	var gen traffic.Stream
	if spec.Mode == traffic.ModeReplay {
		ph, err := w.replayPhase(spec, phase, seconds)
		if err != nil {
			return nil, err
		}
		model = w.replay.Spec.Model
		gen = ph.Stream()
	} else {
		gen = traffic.NewGenerator(traffic.NewSources(spec, ids, phaseSeed, seconds))
	}
	col := traffic.NewCollector(model, ids)
	rec := w.Capture
	if spec.Mode == traffic.ModeReplay {
		rec = nil
	}
	if rec != nil {
		ues := make([]traffic.TraceUE, len(w.UEs))
		for i, u := range w.UEs {
			ues[i] = traffic.TraceUE{ID: u.ID, X: u.Pos.X, Y: u.Pos.Y}
		}
		rec.BeginPhase(seconds, ues)
	}

	bearers := make([]*enb.Bearer, len(w.UEs))
	index := make(map[epc.IMSI]int, len(w.UEs))
	for i := range w.UEs {
		b, ok := w.ENB.Bearer(w.IMSIOf(i))
		if !ok {
			return nil, fmt.Errorf("sim: UE %d has no bearer", w.UEs[i].ID)
		}
		bearers[i] = b
		index[w.IMSIOf(i)] = i
	}

	// Under fault injection the report carries each UE's starved-TTI
	// delta (scheduler TTIs spent undecodable with data queued) — the
	// eNodeB-side view of churn and loss windows.
	var startStarved []uint64
	if w.Faults != nil {
		startStarved = make([]uint64, len(w.UEs))
		for i := range w.UEs {
			startStarved[i] = w.ENB.StarvedTTIs(w.IMSIOf(i))
		}
	}

	// After replayPhase: the geometry is now fixed for the phase.
	snr := w.hoverSNRs()
	var scratch [65536]byte // zero payload template; only sizes matter
	start := w.Clock
	tti := float64(ttiStride) / 1000
	steps := int(seconds * 1000 / float64(ttiStride))
	every := reportEvery(ttiStride)
	for s := 0; s < steps; s++ {
		now := start + float64(s)*tti
		if s%every == 0 {
			w.reportSNRs(snr, plan, float64(s)*tti)
		}
		// Enqueue everything arriving during this TTI before its grants.
		for {
			a, ok := gen.Pop(float64(s+1) * tti)
			if !ok {
				break
			}
			// Capture upstream of the fault plan and the bearer path: the
			// trace records the offered workload itself, and replay re-runs
			// faults and queueing against the same derived streams.
			if rec != nil {
				rec.Arrival(a)
			}
			col.Offered(a.UE, a.Bytes)
			// Serving-phase faults act on the GTP-U leg: a packet for a
			// churned-out UE or one landing in a loss window never
			// reaches the bearer; a duplicated packet reaches it twice.
			if plan.ChurnedOut(a.UE, a.T) {
				col.FaultDropped(a.UE, a.Bytes)
				plan.NoteChurnDrop()
				continue
			}
			if plan.DropGTPU(a.UE, a.T) {
				col.FaultDropped(a.UE, a.Bytes)
				continue
			}
			copies := 1
			if plan.DupGTPU(a.UE) {
				copies = 2
				col.Duplicated(a.UE, a.Bytes)
			}
			for c := 0; c < copies; c++ {
				if c == 1 {
					col.Offered(a.UE, a.Bytes)
				}
				pdu := bearers[a.UE].Tunnel().Encap(scratch[:a.Bytes])
				switch err := bearers[a.UE].DeliverGTPUAt(pdu, start+a.T); err {
				case nil, enb.ErrQueueOverflow:
					if err != nil {
						col.Dropped(a.UE, a.Bytes)
					}
				default:
					return nil, fmt.Errorf("sim: delivering to UE %d: %w", w.UEs[a.UE].ID, err)
				}
			}
		}
		done := now + tti
		w.ENB.RunTTIFunc(func(imsi epc.IMSI, bits float64) {
			i := index[imsi]
			for _, d := range bearers[i].CreditAt(bits*float64(ttiStride), done) {
				col.Delivered(i, len(d.Data), done-d.EnqueuedAt)
			}
		})
		w.Clock += tti
	}

	backlog := make([]int, len(bearers))
	peak := make([]int, len(bearers))
	for i, b := range bearers {
		backlog[i] = b.QueuedPackets()
		peak[i] = b.PeakQueue()
	}
	if startStarved != nil {
		for i := range w.UEs {
			col.Starved(i, w.ENB.StarvedTTIs(w.IMSIOf(i))-startStarved[i])
		}
	}
	rep := col.Report(seconds, backlog, peak)
	w.emitTraffic(rep, true)
	return rep, nil
}

// SetReplayTrace preloads the trace used when serving with
// Spec.Mode = replay, bypassing the lazy TraceFile load. Scenario runs
// preload so fingerprint verification happens before any simulation.
func (w *World) SetReplayTrace(tr *traffic.Trace) { w.replay = tr }

// replayPhase resolves the recorded phase for the current serve-phase
// counter: it lazily loads Spec.TraceFile on first use, checks the
// phase's duration and UE field against the live run, and moves every
// UE to its recorded phase-start position so the radio streams see the
// same geometry the capturing run did.
func (w *World) replayPhase(spec traffic.Spec, phase uint64, seconds float64) (*traffic.TracePhase, error) {
	if w.replay == nil {
		tr, err := traffic.ReadTraceFile(spec.TraceFile)
		if err != nil {
			return nil, err
		}
		w.replay = tr
	}
	ph, err := w.replay.Phase(phase)
	if err != nil {
		return nil, err
	}
	if ph.Seconds != seconds {
		return nil, fmt.Errorf("sim: replay phase %d recorded %gs, run serves %gs", phase, ph.Seconds, seconds)
	}
	if len(ph.UEs) != len(w.UEs) {
		return nil, fmt.Errorf("sim: replay phase %d recorded %d UEs, world has %d", phase, len(ph.UEs), len(w.UEs))
	}
	for i, tu := range ph.UEs {
		if w.UEs[i].ID != tu.ID {
			return nil, fmt.Errorf("sim: replay phase %d UE index %d recorded ID %d, world has %d",
				phase, i, tu.ID, w.UEs[i].ID)
		}
		w.UEs[i].Pos = geom.V2(tu.X, tu.Y)
	}
	return ph, nil
}

// FaultCounts returns the cumulative injected-fault and degradation
// counters (zero without an active injector).
func (w *World) FaultCounts() fault.Counts { return w.Faults.Counts() }

// emitTraffic publishes per-UE traffic KPIs to the tracer. withServe
// additionally emits the legacy KindServe records (delivered bits) for
// paths that did not already go through ServeSeconds.
func (w *World) emitTraffic(rep *traffic.Report, withServe bool) {
	if w.Tracer == nil {
		return
	}
	for _, k := range rep.KPIs {
		if withServe {
			w.Tracer.Emit(trace.Record{Kind: trace.KindServe, T: w.Clock, UE: k.UE, Value: float64(k.DeliveredBytes) * 8})
		}
		w.Tracer.Emit(trace.Record{
			Kind: trace.KindTraffic, T: w.Clock, UE: k.UE,
			Value: k.ThroughputBps, DelayS: k.MeanDelayS, LossFrac: k.LossFrac,
		})
	}
}
