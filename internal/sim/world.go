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

	"repro/internal/enb"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/locate"
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
	// ProcOffsetM is the constant SRS processing-delay offset in
	// metres (default 58.6 m ≈ 3 samples, the kind of pipeline latency
	// an SDR eNodeB exhibits).
	ProcOffsetM float64
	// FastRanging replaces the full SRS PHY chain with a calibrated
	// error model (quantization + NLOS bias), ~100× faster. Scale-up
	// experiments enable it; accuracy experiments keep the real chain.
	FastRanging bool
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
	if c.ProcOffsetM == 0 {
		c.ProcOffsetM = 58.6
	}
}

// offsetPriorSigmaM is the calibration uncertainty on ProcOffsetM: the
// controller calibrates the SRS processing offset on the ground before
// launch (see locate.OffsetPrior).
const offsetPriorSigmaM = 5

const (
	// measNoiseDB is the σ of per-sample SNR measurement noise (PHY
	// estimation error + residual fast fading).
	measNoiseDB = 2
	// uplinkBonusDB is added to the downlink SNR to obtain the SRS
	// (uplink) SNR: the UE transmits at 23 dBm against the payload's
	// 10 dBm PA output, and the LNA adds receive gain (§4.1).
	uplinkBonusDB = 13
)

// World is the single-UAV world: the one-cell fleet (embedded — its
// cell is the UAV's eNodeB, parked at the UAV's position whenever a
// serving phase starts), the UAV platform itself, and the flight
// operations the SkyRAN controller performs against reality.
type World struct {
	*MultiCell
	Terrain *terrain.Surface
	UAV     *uav.UAV

	srs []*ltephy.SRS
}

// New builds a world, attaches every UE to the LTE stack, and parks
// the UAV at the area centre at maximum altitude.
func New(cfg Config, ues []*ue.UE) (*World, error) {
	m, err := NewMultiCell(cfg, 1, interference.PlanCochannel, enb.DefaultHandoverConfig(), ues, 1)
	if err != nil {
		return nil, err
	}
	w := &World{
		MultiCell: m,
		Terrain:   m.Cfg.Terrain,
		UAV:       uav.New(uav.DefaultConfig(), m.Graph.Cells[0], int64(m.Cfg.Seed)+101),
	}
	w.UAV.SetPowerScale(w.Faults.PowerScale())
	// FastRanging never touches the SRS PHY chain, so skip building the
	// per-UE sounding sequences (~16 KB each): that is what lets 10k-UE
	// scale-up worlds construct in milliseconds.
	if !m.Cfg.FastRanging {
		for _, u := range ues {
			root := 1 + (u.ID*37)%1019 // distinct Zadoff-Chu roots per UE
			s, err := ltephy.NewSRS(m.Num, root)
			if err != nil {
				return nil, fmt.Errorf("sim: SRS for UE %d: %w", u.ID, err)
			}
			w.srs = append(w.srs, s)
		}
	}
	return w, nil
}

// Area returns the operating area.
func (w *World) Area() geom.Rect { return w.Terrain.Bounds() }

// LocateOptions returns the multilateration setup every localization
// solve over this world uses: the operating area as bounds, UE antennas
// at radio.UEAntennaHeight above the terrain, and a prior on the SRS
// processing offset at the calibrated ProcOffsetM.
func (w *World) LocateOptions() locate.Options {
	return locate.Options{
		Bounds:      w.Area(),
		GroundZ:     func(p geom.Vec2) float64 { return w.Radio.UEPoint(p).Z },
		OffsetPrior: &locate.OffsetPrior{MeanM: w.Cfg.ProcOffsetM, SigmaM: offsetPriorSigmaM},
	}
}

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
	return w.TrueSNR(i) + w.rng.NormFloat64()*measNoiseDB
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
	samples, _, flown := w.fly(path, alt, budgetM, true, false)
	return samples, flown
}

// FlyMeasureWithRanging is FlyMeasure plus SRS ranging: the eNodeB
// keeps receiving SRS during measurement flights, so the same flight
// yields a GPS-ToF tuple stream with a far larger synthetic aperture
// than the dedicated localization loop. SkyRAN uses it to refine UE
// position estimates at zero extra flight cost.
func (w *World) FlyMeasureWithRanging(path geom.Polyline, alt, budgetM float64) ([]MeasSample, [][]ranging.Tuple, float64) {
	return w.fly(path, alt, budgetM, true, true)
}

// LocalizationFlight flies the given (typically short, random)
// trajectory at altitude alt while exchanging SRS with every UE, and
// returns the GPS-ToF tuple stream per UE (§3.2). The SRS exchange
// runs the real PHY chain unless FastRanging is configured.
func (w *World) LocalizationFlight(path geom.Polyline, alt float64) ([][]ranging.Tuple, float64) {
	_, tuples, flown := w.fly(path, alt, 0, false, true)
	return tuples, flown
}

// fly is the one flight loop: it flies the 2-D path at altitude alt in
// 50 Hz steps, one GPS fix each, until the route ends, budgetM metres
// are flown (0 = unlimited) or an injected leg abort ends it. At each
// step, per UE, measure averages two 100 Hz SNR reports into the step's
// sample (traced every tenth step), then withRanging runs two SRS
// exchanges: a UE's measurement draws come before its ranging draws in
// every flight.
func (w *World) fly(path geom.Polyline, alt, budgetM float64, measure, withRanging bool) ([]MeasSample, [][]ranging.Tuple, float64) {
	w.UAV.SetRoute2D(path, alt)
	abortM := w.legAbortM(path, budgetM)
	var samples []MeasSample
	var flown float64
	collectors := make([]ranging.Collector, len(w.UEs))
	for tick := 0; !w.UAV.Hovering(); tick++ {
		before := w.UAV.OdometerM()
		w.Step(gpsTick)
		flown += w.UAV.OdometerM() - before
		gps := w.gpsFix()
		var snrs []float64
		if measure {
			snrs = make([]float64, len(w.UEs))
		}
		for i := range w.UEs {
			if measure {
				snrs[i] = (w.MeasuredSNR(i) + w.MeasuredSNR(i)) / 2
			}
			if withRanging {
				collectors[i].AddGPS(gps)
				for k := 0; k < 2; k++ {
					if r, ok := w.rangeOnce(i); ok {
						collectors[i].AddRange(r)
					}
				}
			}
		}
		if measure {
			samples = append(samples, MeasSample{GPS: gps, SNRs: snrs})
			if w.Tracer != nil && tick%10 == 0 {
				w.Tracer.Emit(trace.Record{Kind: trace.KindGPS, T: w.Clock, X: gps.X, Y: gps.Y, Z: gps.Z})
				for i, s := range snrs {
					w.Tracer.Emit(trace.Record{Kind: trace.KindSNR, T: w.Clock, UE: w.UEs[i].ID, Value: s})
				}
			}
		}
		if (budgetM > 0 && flown >= budgetM) || (abortM > 0 && flown >= abortM) {
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

// rangeOnce performs one SRS ranging exchange with UE i from the
// UAV's current true position. It returns false when the uplink is in
// outage (SNR too low to decode the SRS).
func (w *World) rangeOnce(i int) (float64, bool) {
	uePoint := w.Radio.UEPoint(w.UEs[i].Pos)
	trueDist := w.UAV.Position().Dist(uePoint)
	snr := w.TrueSNR(i) + uplinkBonusDB // UE PA + eNodeB LNA headroom
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

// ServeSeconds hovers at the UAV's current position serving full
// buffer: MultiCell.ServeSeconds on the world's one cell.
func (w *World) ServeSeconds(seconds float64, ttiStride int) ([]float64, error) {
	return w.hover().ServeSeconds(seconds, ttiStride)
}

// ServeTraffic hovers at the UAV's current position serving the given
// workload: MultiCell.ServeTraffic on the world's one cell.
func (w *World) ServeTraffic(seconds float64, ttiStride int, spec traffic.Spec) (*traffic.Report, error) {
	return w.hover().ServeTraffic(seconds, ttiStride, spec)
}

// hover parks the world's one cell at the UAV's position for a serving
// phase; neither moves until the phase ends.
func (w *World) hover() *MultiCell {
	w.Graph.SetCell(0, w.UAV.Position())
	return w.MultiCell
}
