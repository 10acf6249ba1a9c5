// Package fault is the deterministic fault-injection layer: a
// declarative, scenario-scoped schedule of fault kinds (SRS ranging
// dropout and outliers, GTP-U loss/duplication windows, UE churn, UAV
// platform faults) driven entirely by internal/detrand streams derived
// from the scenario seed. Faulty runs are therefore byte-reproducible
// at any worker count, and checkpoint/resume holds: the injector's
// complete state is two RNG cursors, a GPS bias vector and the fault
// counters.
//
// Determinism contract:
//
//   - A fault kind whose rate is zero consumes no randomness, so
//     partial schedules never perturb the streams of the active kinds.
//   - A schedule with every knob zero is not Active(); consumers treat
//     it exactly like no schedule at all (scenario.Spec.Normalize nils
//     it out), which makes "all-zero schedule ≡ fault-free run" hold
//     byte-for-byte.
//   - Serving-phase faults (GTP-U windows, churn) come from ephemeral
//     per-(seed, phase, UE) streams — like traffic arrivals, their
//     identity is independent of UE count and event interleaving, and
//     they carry no cross-phase state to checkpoint.
//   - Flight-phase faults (SRS, UAV) draw from two persistent streams
//     that are part of the world snapshot.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/detrand"
	"repro/internal/geom"
)

// Schedule declares the faults to inject, in the wire shape the
// scenario spec (and therefore skyranctl flags and the skyrand job
// API) carries. All rates are probabilities in [0, 1]; magnitude knobs
// get defaults only when their rate is non-zero, so an all-zero
// schedule stays all-zero through Normalize.
type Schedule struct {
	// SRSDropRate drops individual SRS ranging exchanges (the UAV
	// never sees the tuple).
	SRSDropRate float64 `json:"srs_drop_rate,omitempty"`
	// SRSOutlierRate replaces a ranging measurement's error with a
	// heavy-tailed late excess of scale SRSOutlierM metres (default
	// 80 m) — the multipath/NLOS gross errors real flights report.
	SRSOutlierRate float64 `json:"srs_outlier_rate,omitempty"`
	SRSOutlierM    float64 `json:"srs_outlier_m,omitempty"`

	// GTPULossRate is the long-run fraction of serving time each
	// bearer spends inside a loss window (every downlink packet
	// arriving during a window is lost). Windows have mean length
	// GTPULossBurstS seconds (default 0.25 s), alternating with
	// exponentially distributed gaps sized to hit the target fraction.
	GTPULossRate   float64 `json:"gtpu_loss_rate,omitempty"`
	GTPULossBurstS float64 `json:"gtpu_loss_burst_s,omitempty"`
	// GTPUDupRate duplicates an arriving GTP-U packet (delivered to
	// the bearer twice).
	GTPUDupRate float64 `json:"gtpu_dup_rate,omitempty"`

	// UEChurnRate is the per-UE probability, per serving phase, of one
	// mid-phase outage (the UE leaves and rejoins): its channel
	// reports go undecodable for an exponentially distributed interval
	// of mean UEChurnOutS seconds (default 1 s) and packets addressed
	// to it are dropped.
	UEChurnRate float64 `json:"ue_churn_rate,omitempty"`
	UEChurnOutS float64 `json:"ue_churn_out_s,omitempty"`

	// GPSDriftM is the 1-σ random-walk step of a slowly wandering GPS
	// bias, in metres per √minute of flight — the multipath-induced
	// drift consumer GPS exhibits, on top of the white per-fix noise
	// the platform already models.
	GPSDriftM float64 `json:"gps_drift_m,omitempty"`
	// BatterySagFrac inflates the platform's power drain by this
	// fraction (an aged pack sagging under load).
	BatterySagFrac float64 `json:"battery_sag_frac,omitempty"`
	// LegAbortRate aborts a flight leg with this probability: the
	// flight ends after a uniformly drawn fraction of the planned
	// distance, no less than LegAbortMinFrac (default 0.25).
	LegAbortRate    float64 `json:"leg_abort_rate,omitempty"`
	LegAbortMinFrac float64 `json:"leg_abort_min_frac,omitempty"`
}

// minLossBurstS is the shortest GTP-U loss burst a schedule may ask
// for: one TTI. A loss window shorter than the scheduler's clock tick
// models nothing, and the windows a phase draws grow as 1/burst.
const minLossBurstS = 1e-3

// Normalize validates the schedule and fills magnitude defaults for
// the kinds whose rate is non-zero. An all-zero schedule normalizes to
// itself. NaN and infinite knobs are rejected.
func (s *Schedule) Normalize() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"srs_drop_rate", s.SRSDropRate},
		{"srs_outlier_rate", s.SRSOutlierRate},
		{"gtpu_loss_rate", s.GTPULossRate},
		{"gtpu_dup_rate", s.GTPUDupRate},
		{"ue_churn_rate", s.UEChurnRate},
		{"leg_abort_rate", s.LegAbortRate},
	}
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("fault: %s %g outside [0, 1]", r.name, r.v)
		}
	}
	if s.GTPULossRate >= 1 {
		return fmt.Errorf("fault: gtpu_loss_rate must be < 1 (a bearer cannot be in a loss window all the time)")
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"srs_outlier_m", s.SRSOutlierM},
		{"gtpu_loss_burst_s", s.GTPULossBurstS},
		{"ue_churn_out_s", s.UEChurnOutS},
		{"gps_drift_m", s.GPSDriftM},
		{"battery_sag_frac", s.BatterySagFrac},
		{"leg_abort_min_frac", s.LegAbortMinFrac},
	} {
		if !(m.v >= 0) || math.IsInf(m.v, 1) {
			return fmt.Errorf("fault: %s must be finite and non-negative, got %g", m.name, m.v)
		}
	}
	if s.GTPULossBurstS > 0 && s.GTPULossBurstS < minLossBurstS {
		return fmt.Errorf("fault: gtpu_loss_burst_s %g is shorter than one TTI (%g s)", s.GTPULossBurstS, minLossBurstS)
	}
	if s.LegAbortMinFrac > 1 {
		return fmt.Errorf("fault: leg_abort_min_frac %g outside [0, 1]", s.LegAbortMinFrac)
	}
	if s.SRSOutlierRate > 0 && s.SRSOutlierM == 0 {
		s.SRSOutlierM = 80
	}
	if s.GTPULossRate > 0 && s.GTPULossBurstS == 0 {
		s.GTPULossBurstS = 0.25
	}
	if s.UEChurnRate > 0 && s.UEChurnOutS == 0 {
		s.UEChurnOutS = 1
	}
	if s.LegAbortRate > 0 && s.LegAbortMinFrac == 0 {
		s.LegAbortMinFrac = 0.25
	}
	return nil
}

// Active reports whether the schedule injects anything at all.
func (s *Schedule) Active() bool {
	if s == nil {
		return false
	}
	return s.SRSDropRate > 0 || s.SRSOutlierRate > 0 ||
		s.GTPULossRate > 0 || s.GTPUDupRate > 0 ||
		s.UEChurnRate > 0 || s.GPSDriftM > 0 ||
		s.BatterySagFrac > 0 || s.LegAbortRate > 0
}

// Counts are cumulative injection and degradation event counters. The
// first block counts injected faults; the second counts the
// controller's graceful-degradation reactions. All fields omitempty so
// a fault-free epoch report carries no counts at all.
type Counts struct {
	SRSDrops       uint64 `json:"srs_drops,omitempty"`
	SRSOutliers    uint64 `json:"srs_outliers,omitempty"`
	GTPUDropped    uint64 `json:"gtpu_dropped,omitempty"`
	GTPUDuplicated uint64 `json:"gtpu_duplicated,omitempty"`
	UEChurns       uint64 `json:"ue_churns,omitempty"`
	ChurnDropped   uint64 `json:"churn_dropped,omitempty"`
	LegAborts      uint64 `json:"leg_aborts,omitempty"`

	OutliersRejected uint64 `json:"outliers_rejected,omitempty"`
	LowConfFixes     uint64 `json:"low_conf_fixes,omitempty"`
	Replans          uint64 `json:"replans,omitempty"`
	REMFallbacks     uint64 `json:"rem_fallbacks,omitempty"`
	PlacementRelaxed uint64 `json:"placement_relaxed,omitempty"`
}

// Sub returns the per-field difference c - prev (counters are
// monotonic, so prev must be an earlier snapshot of the same run).
func (c Counts) Sub(prev Counts) Counts {
	return Counts{
		SRSDrops:         c.SRSDrops - prev.SRSDrops,
		SRSOutliers:      c.SRSOutliers - prev.SRSOutliers,
		GTPUDropped:      c.GTPUDropped - prev.GTPUDropped,
		GTPUDuplicated:   c.GTPUDuplicated - prev.GTPUDuplicated,
		UEChurns:         c.UEChurns - prev.UEChurns,
		ChurnDropped:     c.ChurnDropped - prev.ChurnDropped,
		LegAborts:        c.LegAborts - prev.LegAborts,
		OutliersRejected: c.OutliersRejected - prev.OutliersRejected,
		LowConfFixes:     c.LowConfFixes - prev.LowConfFixes,
		Replans:          c.Replans - prev.Replans,
		REMFallbacks:     c.REMFallbacks - prev.REMFallbacks,
		PlacementRelaxed: c.PlacementRelaxed - prev.PlacementRelaxed,
	}
}

// IsZero reports whether every counter is zero.
func (c Counts) IsZero() bool { return c == Counts{} }

// NamedCount is one non-zero counter for telemetry emission.
type NamedCount struct {
	Name string
	N    uint64
}

// NonZero lists the non-zero counters in a fixed order, so trace
// records derived from them are byte-stable.
func (c Counts) NonZero() []NamedCount {
	all := []NamedCount{
		{"srs_drop", c.SRSDrops},
		{"srs_outlier", c.SRSOutliers},
		{"gtpu_drop", c.GTPUDropped},
		{"gtpu_dup", c.GTPUDuplicated},
		{"ue_churn", c.UEChurns},
		{"churn_drop", c.ChurnDropped},
		{"leg_abort", c.LegAborts},
		{"outlier_rejected", c.OutliersRejected},
		{"low_conf_fix", c.LowConfFixes},
		{"replan", c.Replans},
		{"rem_fallback", c.REMFallbacks},
		{"placement_relaxed", c.PlacementRelaxed},
	}
	out := all[:0]
	for _, nc := range all {
		if nc.N > 0 {
			out = append(out, nc)
		}
	}
	return out
}

// State is the injector's complete serializable state at a quiescent
// point, captured into world checkpoints alongside the other RNG
// cursors.
type State struct {
	SRS      detrand.State
	UAV      detrand.State
	GPSBiasX float64
	GPSBiasY float64
	Counts   Counts
}

// Injector applies a schedule against a world. One injector belongs to
// one world; it is not concurrency-safe (the simulation loops that
// call it are single-threaded by design).
type Injector struct {
	sched Schedule

	// Persistent streams: srs covers ranging dropout/outliers, uav
	// covers GPS drift and leg aborts. Separate streams per domain
	// keep one fault kind's draw pattern from perturbing another's.
	srs *detrand.Rand
	uav *detrand.Rand

	gpsBias geom.Vec2
	counts  Counts
}

// Stream seed offsets, in the same family as the world's +101/+202/
// +303 derived streams.
const (
	srsSeedOffset = 404
	uavSeedOffset = 505
)

// New builds an injector for an active schedule, or returns nil when
// sched is nil or injects nothing — callers treat a nil injector as
// "no faults", which is what makes the zero-schedule property hold.
func New(sched *Schedule, seed int64) *Injector {
	if !sched.Active() {
		return nil
	}
	s := *sched
	return &Injector{
		sched: s,
		srs:   detrand.New(seed + srsSeedOffset),
		uav:   detrand.New(seed + uavSeedOffset),
	}
}

// Schedule returns the injector's (normalized) schedule.
func (in *Injector) Schedule() Schedule { return in.sched }

// Counts returns the cumulative fault counters.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

// Snapshot captures the injector state.
func (in *Injector) Snapshot() State {
	return State{
		SRS:      in.srs.State(),
		UAV:      in.uav.State(),
		GPSBiasX: in.gpsBias.X,
		GPSBiasY: in.gpsBias.Y,
		Counts:   in.counts,
	}
}

// Restore reinstates a snapshot taken from an injector built with the
// same seed (streams fast-forward to their recorded cursors).
func (in *Injector) Restore(st State) error {
	if err := in.srs.Restore(st.SRS); err != nil {
		return fmt.Errorf("fault: srs stream: %w", err)
	}
	if err := in.uav.Restore(st.UAV); err != nil {
		return fmt.Errorf("fault: uav stream: %w", err)
	}
	in.gpsBias = geom.V2(st.GPSBiasX, st.GPSBiasY)
	in.counts = st.Counts
	return nil
}

// DropSRS reports whether one SRS ranging exchange is lost.
func (in *Injector) DropSRS() bool {
	if in.sched.SRSDropRate <= 0 {
		return false
	}
	if in.srs.Float64() >= in.sched.SRSDropRate {
		return false
	}
	in.counts.SRSDrops++
	return true
}

// PerturbRange passes a ranging measurement through the outlier model:
// with probability SRSOutlierRate the range arrives with an
// exponentially distributed late excess of scale SRSOutlierM (gross
// multipath error, always late like real NLOS excess path).
func (in *Injector) PerturbRange(d float64) float64 {
	if in.sched.SRSOutlierRate <= 0 {
		return d
	}
	if in.srs.Float64() >= in.sched.SRSOutlierRate {
		return d
	}
	in.counts.SRSOutliers++
	return d + in.srs.ExpFloat64()*in.sched.SRSOutlierM
}

// PerturbGPS advances the GPS drift random walk by dt seconds of
// flight and returns the reading with the wandering bias applied.
func (in *Injector) PerturbGPS(p geom.Vec3, dt float64) geom.Vec3 {
	if in.sched.GPSDriftM <= 0 {
		return p
	}
	step := in.sched.GPSDriftM * math.Sqrt(dt/60)
	in.gpsBias.X += in.uav.NormFloat64() * step
	in.gpsBias.Y += in.uav.NormFloat64() * step
	return geom.V3(p.X+in.gpsBias.X, p.Y+in.gpsBias.Y, p.Z)
}

// PowerScale returns the battery drain multiplier (≥ 1).
func (in *Injector) PowerScale() float64 {
	if in == nil {
		return 1
	}
	return 1 + in.sched.BatterySagFrac
}

// AbortLeg draws whether the upcoming flight leg aborts early, and if
// so after what fraction of its planned distance.
func (in *Injector) AbortLeg() (frac float64, abort bool) {
	if in.sched.LegAbortRate <= 0 {
		return 1, false
	}
	if in.uav.Float64() >= in.sched.LegAbortRate {
		return 1, false
	}
	in.counts.LegAborts++
	minFrac := in.sched.LegAbortMinFrac
	return minFrac + (1-minFrac)*in.uav.Float64(), true
}

// NoteOutliersRejected records n ranging tuples the robust localizer
// gated out.
func (in *Injector) NoteOutliersRejected(n int) {
	if in != nil && n > 0 {
		in.counts.OutliersRejected += uint64(n)
	}
}

// NoteLowConfFix records one localization fix discarded for low
// confidence.
func (in *Injector) NoteLowConfFix() {
	if in != nil {
		in.counts.LowConfFixes++
	}
}

// NoteReplan records one aborted-and-replanned measurement flight.
func (in *Injector) NoteReplan() {
	if in != nil {
		in.counts.Replans++
	}
}

// NoteREMFallback records one epoch that fell back to a previous
// epoch's REM because the fresh map was too sparse.
func (in *Injector) NoteREMFallback() {
	if in != nil {
		in.counts.REMFallbacks++
	}
}

// NotePlacementRelaxed records one placement that had to drop its
// near-measurement mask to find any candidate cell.
func (in *Injector) NotePlacementRelaxed() {
	if in != nil {
		in.counts.PlacementRelaxed++
	}
}

// window is a half-open [from, to) interval in seconds relative to the
// serving-phase start. The zero window contains nothing.
type window struct{ from, to float64 }

func (w window) contains(t float64) bool { return t >= w.from && t < w.to }

// lossStream draws one UE's GTP-U loss windows lazily from its stream:
// windows of mean length burstS alternate with gaps of mean meanGap,
// starting with a gap, until a window would start past the horizon.
// The windows are disjoint and in time order, and arrivals are queried
// in time order, so a cursor on the latest window replaces a scan of
// the whole phase's list, and only the windows the arrivals reach are
// ever drawn.
type lossStream struct {
	rng                      *rand.Rand
	burstS, meanGap, horizon float64
	next                     float64 // start of the next window
	cur                      window  // the latest window drawn
}

func newLossStream(rng *rand.Rand, rate, burstS, horizon float64) *lossStream {
	ls := &lossStream{rng: rng, burstS: burstS, meanGap: burstS * (1 - rate) / rate, horizon: horizon}
	ls.next = rng.ExpFloat64() * ls.meanGap
	return ls
}

// draw moves the cursor to the next window; call it only while
// next < horizon.
func (ls *lossStream) draw() {
	burst := ls.rng.ExpFloat64() * ls.burstS
	ls.cur = window{ls.next, ls.next + burst}
	ls.next += burst + ls.rng.ExpFloat64()*ls.meanGap
}

// covers reports whether t falls in a loss window. t must not decrease
// from one call to the next.
func (ls *lossStream) covers(t float64) bool {
	for ls.cur.to <= t && ls.next < ls.horizon {
		ls.draw()
	}
	return ls.cur.contains(t)
}

// ServePlan is one serving phase's worth of per-UE fault decisions:
// GTP-U loss windows, churn outages and duplication streams. Plans are
// derived from (world seed, phase, UE) exactly like traffic arrival
// streams, so a UE's fault pattern does not depend on how many other
// UEs exist, and nothing about a plan needs checkpointing (phases are
// atomic between checkpoints).
type ServePlan struct {
	inj   *Injector
	loss  []*lossStream
	churn []window
	dup   []*rand.Rand
}

// planSeed derives the per-(seed, phase, UE, domain) stream identity
// (splitmix64 finalizer, same construction as traffic.NewSource).
func planSeed(seed, phase uint64, ue, domain int) int64 {
	z := seed + 0x9e3779b97f4a7c15*(phase+1) + 0xd1342543de82ef95*uint64(ue+1) + uint64(domain)*0xff51afd7ed558ccd
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewServePlan draws the serving phase's fault plan for nUE UEs over
// the given horizon. Churn outages are drawn here; loss windows are
// drawn as the phase's arrivals reach them.
func (in *Injector) NewServePlan(worldSeed, phase uint64, nUE int, seconds float64) *ServePlan {
	if in == nil {
		return nil
	}
	p := &ServePlan{
		inj:   in,
		loss:  make([]*lossStream, nUE),
		churn: make([]window, nUE),
		dup:   make([]*rand.Rand, nUE),
	}
	for ue := 0; ue < nUE; ue++ {
		if r := in.sched.GTPULossRate; r > 0 {
			p.loss[ue] = newLossStream(detrand.Stream(planSeed(worldSeed, phase, ue, 1)), r, in.sched.GTPULossBurstS, seconds)
		}
		if r := in.sched.UEChurnRate; r > 0 {
			rng := detrand.Stream(planSeed(worldSeed, phase, ue, 2))
			if rng.Float64() < r {
				start := rng.Float64() * seconds
				out := rng.ExpFloat64() * in.sched.UEChurnOutS
				p.churn[ue] = window{start, start + out}
				in.counts.UEChurns++
			}
		}
		if in.sched.GTPUDupRate > 0 {
			p.dup[ue] = detrand.Stream(planSeed(worldSeed, phase, ue, 3))
		}
	}
	return p
}

// DropGTPU reports whether a packet for UE index ue arriving t seconds
// into the phase falls in a loss window. Each UE's arrivals must come
// in time order, as the serving loop's event heap delivers them.
func (p *ServePlan) DropGTPU(ue int, t float64) bool {
	if p == nil || p.loss[ue] == nil || !p.loss[ue].covers(t) {
		return false
	}
	p.inj.counts.GTPUDropped++
	return true
}

// DupGTPU reports whether a packet for UE index ue is duplicated.
func (p *ServePlan) DupGTPU(ue int) bool {
	if p == nil || p.dup[ue] == nil {
		return false
	}
	if p.dup[ue].Float64() >= p.inj.sched.GTPUDupRate {
		return false
	}
	p.inj.counts.GTPUDuplicated++
	return true
}

// ChurnedOut reports whether UE index ue is mid-outage t seconds into
// the phase (its channel reports are undecodable and its downlink
// packets are lost).
func (p *ServePlan) ChurnedOut(ue int, t float64) bool {
	return p != nil && p.churn[ue].contains(t)
}

// NoteChurnDrop records one packet dropped because its UE was churned
// out on arrival.
func (p *ServePlan) NoteChurnDrop() {
	if p != nil {
		p.inj.counts.ChurnDropped++
	}
}
