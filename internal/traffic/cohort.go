package traffic

import (
	"fmt"
	"math"

	"repro/internal/detrand"
)

// Multi-cohort workloads: the UE population splits into named traffic
// classes (ServeGen-style), each with its own arrival process on a
// dedicated stream keyed by (seed, phase, cohort, UE), and each with a
// deterministic rate envelope — diurnal multi-period multipliers plus
// an optional flash-crowd ramp. Envelopes warp the base renewal
// process through the inverse of the cumulative rate function, so the
// instantaneous arrival rate follows the envelope exactly for Poisson
// cohorts and proportionally for the other renewal models, and the
// whole construction stays a pure function of (spec, seed).

// Cohort is one traffic class. Model-specific knobs left zero fall
// back to the enclosing Spec's values (which Normalize has already
// defaulted).
type Cohort struct {
	// Name labels the cohort (required, unique within the spec).
	Name string `json:"name"`
	// Share is the cohort's relative weight of the UE population.
	// Shares need not sum to 1; UEs are apportioned by largest
	// remainder over normalized shares, in UE index order.
	Share float64 `json:"share"`
	// Model selects the cohort's arrival process (any packet model;
	// empty inherits the spec's model).
	Model Model `json:"model,omitempty"`
	// RateBps / PacketBytes / Shape / BurstS / IdleS / FlowKB override
	// the spec-level knobs for this cohort (zero inherits).
	RateBps     float64 `json:"rate_bps,omitempty"`
	PacketBytes int     `json:"packet_bytes,omitempty"`
	Shape       float64 `json:"shape,omitempty"`
	BurstS      float64 `json:"burst_s,omitempty"`
	IdleS       float64 `json:"idle_s,omitempty"`
	FlowKB      float64 `json:"flow_kb,omitempty"`
	// Diurnal is a repeating sequence of (seconds, rate multiplier)
	// periods — the ServeGen-style multi-period envelope. Empty keeps
	// the rate flat.
	Diurnal []Period `json:"diurnal,omitempty"`
	// Flash, when non-nil, superimposes a flash-crowd ramp on the
	// envelope.
	Flash *Flash `json:"flash,omitempty"`
}

// Period is one diurnal envelope step: the offered rate is multiplied
// by Mult for Seconds, then the next period applies (cycling).
type Period struct {
	Seconds float64 `json:"seconds"`
	Mult    float64 `json:"mult"`
}

// Flash is a flash-crowd ramp: the rate multiplier climbs linearly
// from 1 to Peak over RampS starting at AtS, holds for HoldS, and
// decays linearly back to 1 over DecayS.
type Flash struct {
	AtS    float64 `json:"at_s"`
	Peak   float64 `json:"peak"`
	RampS  float64 `json:"ramp_s,omitempty"`
	HoldS  float64 `json:"hold_s,omitempty"`
	DecayS float64 `json:"decay_s,omitempty"`
}

// normalizeCohorts validates the cohort list of an otherwise
// normalized spec and defaults each cohort's inherited knobs.
func normalizeCohorts(s *Spec) error {
	seen := make(map[string]bool, len(s.Cohorts))
	var total float64
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.Name == "" {
			return fmt.Errorf("traffic: cohort %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		where := fmt.Sprintf("cohort %q ", c.Name)
		if err := requireFinite(where, []namedFloat{
			{"share", c.Share},
			{"rate_bps", c.RateBps},
			{"shape", c.Shape},
			{"burst_s", c.BurstS},
			{"idle_s", c.IdleS},
			{"flow_kb", c.FlowKB},
		}); err != nil {
			return err
		}
		if c.Share <= 0 {
			return fmt.Errorf("traffic: cohort %q share %g must be positive", c.Name, c.Share)
		}
		total += c.Share
		if c.Model == "" {
			c.Model = s.Model
		}
		switch c.Model {
		case ModelCBR, ModelPoisson, ModelOnOff, ModelWeb, ModelGamma, ModelWeibull:
		case ModelFullBuffer:
			return fmt.Errorf("traffic: cohort %q: full-buffer is not a per-cohort model", c.Name)
		default:
			return fmt.Errorf("traffic: cohort %q: unknown model %q", c.Name, c.Model)
		}
		if c.RateBps < 0 || c.Shape < 0 || c.BurstS < 0 || c.IdleS < 0 || c.FlowKB < 0 {
			return fmt.Errorf("traffic: cohort %q has a negative knob", c.Name)
		}
		if c.PacketBytes != 0 && (c.PacketBytes < 20 || c.PacketBytes > MaxPacketBytes) {
			return fmt.Errorf("traffic: cohort %q packet size %d outside [20, %d]", c.Name, c.PacketBytes, MaxPacketBytes)
		}
		var cycle float64
		for j, p := range c.Diurnal {
			if err := requireFinite(fmt.Sprintf("%sdiurnal period %d ", where, j), []namedFloat{
				{"seconds", p.Seconds},
				{"mult", p.Mult},
			}); err != nil {
				return err
			}
			if p.Seconds <= 0 {
				return fmt.Errorf("traffic: cohort %q diurnal period %d: seconds %g must be positive", c.Name, j, p.Seconds)
			}
			if p.Mult < 0 {
				return fmt.Errorf("traffic: cohort %q diurnal period %d: negative multiplier %g", c.Name, j, p.Mult)
			}
			cycle += p.Seconds * p.Mult
		}
		if len(c.Diurnal) > 0 && cycle == 0 {
			return fmt.Errorf("traffic: cohort %q diurnal envelope is all-zero", c.Name)
		}
		if f := c.Flash; f != nil {
			if err := requireFinite(where+"flash ", []namedFloat{
				{"at_s", f.AtS},
				{"peak", f.Peak},
				{"ramp_s", f.RampS},
				{"hold_s", f.HoldS},
				{"decay_s", f.DecayS},
			}); err != nil {
				return err
			}
			if f.AtS < 0 || f.RampS < 0 || f.HoldS < 0 || f.DecayS < 0 {
				return fmt.Errorf("traffic: cohort %q flash has a negative duration", c.Name)
			}
			if f.Peak < 1 {
				return fmt.Errorf("traffic: cohort %q flash peak %g must be >= 1", c.Name, f.Peak)
			}
		}
	}
	if total <= 0 {
		return fmt.Errorf("traffic: cohort shares sum to %g", total)
	}
	return nil
}

// subSpec assembles the cohort's effective workload spec on top of the
// (already normalized) parent.
func (c *Cohort) subSpec(parent Spec) Spec {
	sub := parent
	sub.Cohorts = nil
	sub.Model = c.Model
	if c.RateBps > 0 {
		sub.RateBps = c.RateBps
	}
	if c.PacketBytes > 0 {
		sub.PacketBytes = c.PacketBytes
	}
	if c.Shape > 0 {
		sub.Shape = c.Shape
	}
	if c.BurstS > 0 {
		sub.BurstS = c.BurstS
	}
	if c.IdleS > 0 {
		sub.IdleS = c.IdleS
	}
	if c.FlowKB > 0 {
		sub.FlowKB = c.FlowKB
	}
	return sub
}

// ApportionCohorts assigns n UEs (by index) to the spec's cohorts by
// largest-remainder apportionment over normalized shares: cohort k
// receives counts[k] consecutive UE indices, in cohort order. The
// split is a pure function of (shares, n) — ties break toward the
// earlier cohort — so workers, checkpoints and replays all agree on
// who belongs to whom.
func ApportionCohorts(cohorts []Cohort, n int) []int {
	counts := make([]int, len(cohorts))
	if len(cohorts) == 0 || n <= 0 {
		return counts
	}
	var total float64
	for _, c := range cohorts {
		total += c.Share
	}
	rem := make([]float64, len(cohorts))
	assigned := 0
	for i, c := range cohorts {
		exact := c.Share / total * float64(n)
		counts[i] = int(math.Floor(exact))
		rem[i] = exact - math.Floor(exact)
		assigned += counts[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}

// CohortOf maps a UE index to its cohort index under the counts from
// ApportionCohorts.
func CohortOf(counts []int, ue int) int {
	for k, c := range counts {
		if ue < c {
			return k
		}
		ue -= c
	}
	return len(counts) - 1
}

// deriveCohortSeed namespaces the phase seed per cohort, so the
// (seed, phase, cohort, UE) streams are mutually independent and a
// cohort's stream identity does not depend on the other cohorts.
func deriveCohortSeed(seed uint64, cohort int) uint64 {
	z := seed ^ (0xa24baed4963ee407 * uint64(cohort+1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSources builds the per-UE arrival processes for one serving
// phase: the single-class path is exactly the pre-cohort per-UE
// NewSource calls (byte-identical streams), while cohort specs
// apportion the population and wrap each cohort's base process in its
// rate envelope. ueIDs are the world's UE identifiers in index order.
// Full-buffer returns all-nil sources.
func NewSources(spec Spec, ueIDs []int, seed uint64, horizon float64) []Source {
	sources := make([]Source, len(ueIDs))
	if spec.Model == ModelFullBuffer {
		return sources
	}
	if len(spec.Cohorts) == 0 {
		for i, id := range ueIDs {
			sources[i] = NewSource(spec, id, seed, horizon)
		}
		return sources
	}
	counts := ApportionCohorts(spec.Cohorts, len(ueIDs))
	for i, id := range ueIDs {
		k := CohortOf(counts, i)
		c := &spec.Cohorts[k]
		env := newEnvelope(c, horizon)
		rng := detrand.Stream(deriveSeed(deriveCohortSeed(seed, k), id))
		base := newSourceRNG(c.subSpec(spec), rng, env.totalWork())
		if env.flat() {
			sources[i] = base
		} else {
			sources[i] = &envelopeSource{base: base, env: env, horizon: horizon}
		}
	}
	return sources
}

// envelope is a piecewise-linear rate multiplier m(t) over [0,
// horizon]: the diurnal steps (piecewise constant) multiplied by the
// flash ramp (piecewise linear). ts are the breakpoints, ms the
// multiplier at each breakpoint, ws the cumulative work W(t) = ∫m.
type envelope struct {
	ts, ms, ws []float64
}

// breakpointsOf merges the diurnal and flash breakpoints over [0, h].
func breakpointsOf(c *Cohort, h float64) []float64 {
	ts := []float64{0, h}
	if len(c.Diurnal) > 0 {
		t := 0.0
		for t < h {
			for _, p := range c.Diurnal {
				t += p.Seconds
				if t >= h {
					break
				}
				ts = append(ts, t)
			}
		}
	}
	if f := c.Flash; f != nil {
		for _, t := range []float64{f.AtS, f.AtS + f.RampS, f.AtS + f.RampS + f.HoldS, f.AtS + f.RampS + f.HoldS + f.DecayS} {
			if t > 0 && t < h {
				ts = append(ts, t)
			}
		}
	}
	sortFloats(ts)
	uniq := ts[:1]
	for _, t := range ts[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	return uniq
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// diurnalMult evaluates the repeating step envelope at time t.
func diurnalMult(periods []Period, t float64) float64 {
	if len(periods) == 0 {
		return 1
	}
	var cycle float64
	for _, p := range periods {
		cycle += p.Seconds
	}
	t = math.Mod(t, cycle)
	for _, p := range periods {
		if t < p.Seconds {
			return p.Mult
		}
		t -= p.Seconds
	}
	return periods[len(periods)-1].Mult
}

// flashMult evaluates the flash-crowd ramp at time t.
func flashMult(f *Flash, t float64) float64 {
	if f == nil {
		return 1
	}
	switch {
	case t < f.AtS:
		return 1
	case t < f.AtS+f.RampS:
		return 1 + (f.Peak-1)*(t-f.AtS)/f.RampS
	case t < f.AtS+f.RampS+f.HoldS:
		return f.Peak
	case t < f.AtS+f.RampS+f.HoldS+f.DecayS:
		return f.Peak - (f.Peak-1)*(t-f.AtS-f.RampS-f.HoldS)/f.DecayS
	default:
		return 1
	}
}

// newEnvelope tabulates the cohort's m(t) at its breakpoints and the
// cumulative work between them. Within each segment the diurnal factor
// is constant and the flash factor linear, so m is linear and the
// segment's work is the trapezoid area.
func newEnvelope(c *Cohort, horizon float64) *envelope {
	ts := breakpointsOf(c, horizon)
	e := &envelope{ts: ts, ms: make([]float64, len(ts)), ws: make([]float64, len(ts))}
	for i, t := range ts {
		// Evaluate the step envelope just inside the segment start so a
		// breakpoint takes the multiplier of the period it opens.
		e.ms[i] = flashMult(c.Flash, t)
		if len(c.Diurnal) > 0 {
			if i+1 < len(ts) {
				e.ms[i] *= diurnalMult(c.Diurnal, (t+ts[i+1])/2)
			} else {
				e.ms[i] *= diurnalMult(c.Diurnal, t)
			}
		}
	}
	for i := 1; i < len(ts); i++ {
		dt := ts[i] - ts[i-1]
		// The diurnal factor is constant across (ts[i-1], ts[i]); only the
		// flash factor varies linearly. Recompute the segment-end
		// multiplier under the segment's diurnal step.
		mEnd := flashMult(c.Flash, ts[i])
		mStart := flashMult(c.Flash, ts[i-1])
		d := 1.0
		if len(c.Diurnal) > 0 {
			d = diurnalMult(c.Diurnal, (ts[i-1]+ts[i])/2)
		}
		e.ws[i] = e.ws[i-1] + d*(mStart+mEnd)/2*dt
	}
	return e
}

// flat reports whether the envelope is identically 1 (no warp needed).
func (e *envelope) flat() bool {
	return e.totalWork() == e.ts[len(e.ts)-1] && func() bool {
		for _, m := range e.ms {
			if m != 1 {
				return false
			}
		}
		return true
	}()
}

// totalWork is W(horizon) — the base-process horizon.
func (e *envelope) totalWork() float64 { return e.ws[len(e.ts)-1] }

// warp maps base-process time w (cumulative work) to wall-clock time:
// the inverse of W(t). Within a segment W is quadratic in τ (linear
// m), solved in closed form.
func (e *envelope) warp(w float64) float64 {
	n := len(e.ts)
	// Find the segment holding w.
	i := 1
	for i < n-1 && e.ws[i] < w {
		i++
	}
	w0, t0, dt := e.ws[i-1], e.ts[i-1], e.ts[i]-e.ts[i-1]
	if dt <= 0 {
		return t0
	}
	// m(τ) = m0 + slope·τ over the segment; the diurnal step is baked
	// into both endpoints' work so derive m0/m1 from the work identity.
	m0 := e.ms[i-1]
	m1 := 2*(e.ws[i]-w0)/dt - m0
	slope := (m1 - m0) / dt
	rem := w - w0
	if rem <= 0 {
		return t0
	}
	var tau float64
	if math.Abs(slope) < 1e-12 {
		if m0 <= 0 {
			return e.ts[i]
		}
		tau = rem / m0
	} else {
		disc := m0*m0 + 2*slope*rem
		if disc < 0 {
			disc = 0
		}
		tau = (math.Sqrt(disc) - m0) / slope
	}
	if tau < 0 {
		tau = 0
	}
	if tau > dt {
		tau = dt
	}
	return t0 + tau
}

// envelopeSource warps a base renewal process through the envelope's
// inverse cumulative rate: base arrivals at work-time w surface at
// wall-clock warp(w), so arrivals bunch where the multiplier is high.
type envelopeSource struct {
	base    Source
	env     *envelope
	horizon float64
}

func (s *envelopeSource) Next() (float64, int, bool) {
	w, size, ok := s.base.Next()
	if !ok {
		return 0, 0, false
	}
	t := s.env.warp(w)
	if t >= s.horizon {
		return 0, 0, false
	}
	return t, size, true
}
