package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/detrand"
)

// Model names a per-UE downlink workload.
type Model string

// The workload catalog.
const (
	// ModelFullBuffer is the pre-traffic-subsystem abstraction: every
	// UE always has data waiting, so the scheduler's grants are the
	// throughput. It generates no packets and reports no delay/loss.
	ModelFullBuffer Model = "full-buffer"
	// ModelCBR emits fixed-size packets at a constant rate (voice-like,
	// each UE phase-shifted so the cell load is smooth).
	ModelCBR Model = "cbr"
	// ModelPoisson emits fixed-size packets with exponential
	// inter-arrival times at the given mean rate.
	ModelPoisson Model = "poisson"
	// ModelOnOff is MMPP-style bursty traffic: exponential ON/OFF
	// periods, Poisson arrivals during ON at a peak rate chosen so the
	// long-run mean equals RateBps.
	ModelOnOff Model = "onoff"
	// ModelWeb is heavy-tailed web/video traffic: flows arrive as a
	// Poisson process, flow sizes are Pareto, and each flow's packets
	// are paced at a server line rate.
	ModelWeb Model = "web"
	// ModelGamma emits fixed-size packets with Gamma(shape, scale)
	// inter-arrival times at the given mean rate. Shape < 1 is burstier
	// than Poisson, shape > 1 smoother; shape 1 degenerates to Poisson.
	ModelGamma Model = "gamma"
	// ModelWeibull emits fixed-size packets with Weibull(shape)
	// inter-arrival times at the given mean rate; shape < 1 gives the
	// heavy-tailed gaps measured in real cellular traces.
	ModelWeibull Model = "weibull"
)

// Traffic modes: where the serving phase's arrivals come from.
const (
	// ModeGenerate (the default; the empty string normalizes to it)
	// draws arrivals from the workload models.
	ModeGenerate = ""
	// ModeReplay reads the arrivals recorded in Spec.TraceFile instead
	// of generating them, reproducing a captured run's per-UE KPI rows
	// byte for byte.
	ModeReplay = "replay"
)

// MaxPacketBytes caps an IP packet's size, in every model and cohort.
const MaxPacketBytes = 65000

// Spec describes the per-UE offered load — part of the scenario knobs
// and of the skyrand job wire format.
type Spec struct {
	// Model selects the arrival process.
	Model Model `json:"model"`
	// RateBps is the mean offered rate per UE (default 2 Mbit/s).
	RateBps float64 `json:"rate_bps,omitempty"`
	// PacketBytes is the IP packet size (default 1200).
	PacketBytes int `json:"packet_bytes,omitempty"`
	// BurstS / IdleS are the mean ON / OFF durations of the onoff
	// model (defaults 0.2 s / 0.8 s → 5× peak-to-mean burstiness).
	BurstS float64 `json:"burst_s,omitempty"`
	IdleS  float64 `json:"idle_s,omitempty"`
	// FlowKB is the mean flow size of the web model in kilobytes
	// (default 64). ParetoAlpha is the tail index (default 1.5; lower
	// is heavier-tailed, must stay > 1 for a finite mean).
	FlowKB      float64 `json:"flow_kb,omitempty"`
	ParetoAlpha float64 `json:"pareto_alpha,omitempty"`
	// PacingBps is the in-flow packet pacing rate of the web model —
	// the origin server's line rate (default 20 Mbit/s).
	PacingBps float64 `json:"pacing_bps,omitempty"`
	// Shape is the inter-arrival shape parameter k of the gamma and
	// weibull models (default 0.5 — burstier than Poisson).
	Shape float64 `json:"shape,omitempty"`

	// Cohorts, when non-empty, splits the UE population into named
	// traffic classes: each cohort has its own arrival process on a
	// dedicated stream keyed by (seed, phase, cohort, UE), its own rate
	// envelope (diurnal periods, flash-crowd ramp), and a Share of the
	// population. The top-level model fields above then act as defaults
	// a cohort can override. An empty list keeps the single-class
	// behaviour byte-identical to pre-cohort builds.
	Cohorts []Cohort `json:"cohorts,omitempty"`

	// Mode selects where arrivals come from: ModeGenerate draws them
	// from the models, ModeReplay reads them from TraceFile (recorded by
	// a previous run). TraceFile is only meaningful with ModeReplay.
	Mode      string `json:"mode,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
}

// Normalize fills defaults and validates the spec. NaN and infinite
// floats are rejected, in the cohorts too.
func (s *Spec) Normalize() error {
	if err := requireFinite("", []namedFloat{
		{"rate_bps", s.RateBps},
		{"burst_s", s.BurstS},
		{"idle_s", s.IdleS},
		{"flow_kb", s.FlowKB},
		{"pareto_alpha", s.ParetoAlpha},
		{"pacing_bps", s.PacingBps},
		{"shape", s.Shape},
	}); err != nil {
		return err
	}
	if s.Model == "" {
		s.Model = ModelFullBuffer
	}
	switch s.Model {
	case ModelFullBuffer, ModelCBR, ModelPoisson, ModelOnOff, ModelWeb, ModelGamma, ModelWeibull:
	default:
		return fmt.Errorf("traffic: unknown model %q", s.Model)
	}
	if s.Mode == "generate" {
		s.Mode = ModeGenerate // canonical form, so fingerprints agree
	}
	switch s.Mode {
	case ModeGenerate, ModeReplay:
	default:
		return fmt.Errorf("traffic: unknown mode %q (valid: generate, replay)", s.Mode)
	}
	if s.Mode == ModeReplay && s.TraceFile == "" {
		return fmt.Errorf("traffic: mode %q needs a trace_file", ModeReplay)
	}
	if s.Mode != ModeReplay && s.TraceFile != "" {
		return fmt.Errorf("traffic: trace_file is only meaningful with mode %q", ModeReplay)
	}
	if s.RateBps == 0 {
		s.RateBps = 2e6
	}
	if s.RateBps < 0 {
		return fmt.Errorf("traffic: negative rate %g", s.RateBps)
	}
	if s.PacketBytes == 0 {
		s.PacketBytes = 1200
	}
	if s.PacketBytes < 20 || s.PacketBytes > MaxPacketBytes {
		return fmt.Errorf("traffic: packet size %d outside [20, %d]", s.PacketBytes, MaxPacketBytes)
	}
	if s.BurstS == 0 {
		s.BurstS = 0.2
	}
	if s.IdleS == 0 {
		s.IdleS = 0.8
	}
	if s.BurstS < 0 || s.IdleS < 0 {
		return fmt.Errorf("traffic: negative on/off durations (%g, %g)", s.BurstS, s.IdleS)
	}
	if s.FlowKB == 0 {
		s.FlowKB = 64
	}
	if s.FlowKB < 0 {
		return fmt.Errorf("traffic: negative flow size %g", s.FlowKB)
	}
	if s.ParetoAlpha == 0 {
		s.ParetoAlpha = 1.5
	}
	if s.ParetoAlpha <= 1 {
		return fmt.Errorf("traffic: pareto alpha %g must be > 1 (finite mean)", s.ParetoAlpha)
	}
	if s.PacingBps == 0 {
		s.PacingBps = 20e6
	}
	if s.PacingBps < 0 {
		return fmt.Errorf("traffic: negative pacing rate %g", s.PacingBps)
	}
	if s.Shape == 0 {
		s.Shape = 0.5
	}
	if s.Shape <= 0 {
		return fmt.Errorf("traffic: shape %g must be positive", s.Shape)
	}
	if len(s.Cohorts) > 0 {
		if s.Model == ModelFullBuffer {
			return fmt.Errorf("traffic: cohorts need a packet model (top-level model %q sets the cohort defaults)", ModelFullBuffer)
		}
		if err := normalizeCohorts(s); err != nil {
			return err
		}
	}
	return nil
}

// namedFloat is a spec field by its wire name.
type namedFloat struct {
	name string
	v    float64
}

// requireFinite rejects the first field that is NaN or infinite; where
// prefixes its name (a cohort's, or empty for the spec itself).
func requireFinite(where string, fields []namedFloat) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("traffic: %s%s must be finite, got %g", where, f.name, f.v)
		}
	}
	return nil
}

// Source yields one UE's downlink packet arrivals in non-decreasing
// time order. Next returns the arrival time in seconds since the
// serving phase began and the packet size in bytes; ok=false once the
// source has passed its horizon.
type Source interface {
	Next() (t float64, size int, ok bool)
}

// deriveSeed mixes the world seed with a per-UE index (splitmix64
// finalizer) so every UE draws from an independent stream whose
// identity does not depend on how many other UEs exist.
func deriveSeed(seed uint64, ue int) int64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(ue+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// NewSource builds the arrival process for one UE. The horizon bounds
// generation: no arrival at or beyond it is ever produced. Full-buffer
// returns nil (that model has no arrival process). The spec must be
// normalized.
func NewSource(spec Spec, ue int, seed uint64, horizon float64) Source {
	return newSourceRNG(spec, detrand.Stream(deriveSeed(seed, ue)), horizon)
}

// newSourceRNG is NewSource with the stream already built — cohort
// sources reuse it with a (seed, phase, cohort, UE)-keyed stream.
func newSourceRNG(spec Spec, rng *rand.Rand, horizon float64) Source {
	switch spec.Model {
	case ModelCBR:
		interval := float64(spec.PacketBytes*8) / spec.RateBps
		return &cbrSource{
			t:        interval * rng.Float64(), // per-UE phase shift
			interval: interval,
			size:     spec.PacketBytes,
			horizon:  horizon,
		}
	case ModelPoisson:
		return &poissonSource{
			rng:     rng,
			meanIAT: float64(spec.PacketBytes*8) / spec.RateBps,
			size:    spec.PacketBytes,
			horizon: horizon,
		}
	case ModelOnOff:
		duty := spec.BurstS / (spec.BurstS + spec.IdleS)
		peak := spec.RateBps / duty
		src := &onOffSource{
			rng:     rng,
			meanIAT: float64(spec.PacketBytes*8) / peak,
			burstS:  spec.BurstS,
			idleS:   spec.IdleS,
			size:    spec.PacketBytes,
			horizon: horizon,
		}
		// Begin in OFF: the first burst starts after one idle draw.
		src.t = rng.ExpFloat64() * spec.IdleS
		src.onEnd = src.t + rng.ExpFloat64()*spec.BurstS
		return src
	case ModelGamma:
		return &gammaSource{
			rng:     rng,
			meanIAT: float64(spec.PacketBytes*8) / spec.RateBps,
			shape:   spec.Shape,
			size:    spec.PacketBytes,
			horizon: horizon,
		}
	case ModelWeibull:
		k := spec.Shape
		return &weibullSource{
			rng:     rng,
			scale:   float64(spec.PacketBytes*8) / spec.RateBps / math.Gamma(1+1/k),
			invK:    1 / k,
			size:    spec.PacketBytes,
			horizon: horizon,
		}
	case ModelWeb:
		meanFlowBytes := spec.FlowKB * 1024
		return &webSource{
			rng:     rng,
			flowIAT: meanFlowBytes * 8 / spec.RateBps,
			xm:      meanFlowBytes * (spec.ParetoAlpha - 1) / spec.ParetoAlpha,
			alpha:   spec.ParetoAlpha,
			pktGap:  float64(spec.PacketBytes*8) / spec.PacingBps,
			size:    spec.PacketBytes,
			horizon: horizon,
		}
	default: // ModelFullBuffer
		return nil
	}
}

// cbrSource: packet every interval seconds.
type cbrSource struct {
	t, interval, horizon float64
	size                 int
}

func (s *cbrSource) Next() (float64, int, bool) {
	if s.t >= s.horizon {
		return 0, 0, false
	}
	t := s.t
	s.t += s.interval
	return t, s.size, true
}

// poissonSource: exponential inter-arrival times.
type poissonSource struct {
	rng        *rand.Rand
	t, meanIAT float64
	horizon    float64
	size       int
}

func (s *poissonSource) Next() (float64, int, bool) {
	s.t += s.rng.ExpFloat64() * s.meanIAT
	if s.t >= s.horizon {
		return 0, 0, false
	}
	return s.t, s.size, true
}

// onOffSource: Poisson arrivals at peak rate during exponential ON
// periods, silence during exponential OFF periods.
type onOffSource struct {
	rng                    *rand.Rand
	t, onEnd               float64
	meanIAT, burstS, idleS float64
	horizon                float64
	size                   int
}

func (s *onOffSource) Next() (float64, int, bool) {
	for {
		iat := s.rng.ExpFloat64() * s.meanIAT
		if s.t+iat < s.onEnd {
			s.t += iat
			if s.t >= s.horizon {
				return 0, 0, false
			}
			return s.t, s.size, true
		}
		// Burst over: jump to the next ON period.
		s.t = s.onEnd + s.rng.ExpFloat64()*s.idleS
		s.onEnd = s.t + s.rng.ExpFloat64()*s.burstS
		if s.t >= s.horizon {
			return 0, 0, false
		}
	}
}

// gammaSource: Gamma(shape, scale) inter-arrival times with mean
// shape·scale = meanIAT.
type gammaSource struct {
	rng            *rand.Rand
	t, meanIAT     float64
	shape, horizon float64
	size           int
}

func (s *gammaSource) Next() (float64, int, bool) {
	s.t += gammaDraw(s.rng, s.shape) * s.meanIAT / s.shape
	if s.t >= s.horizon {
		return 0, 0, false
	}
	return s.t, s.size, true
}

// gammaDraw samples Gamma(k, 1) via Marsaglia–Tsang, with the
// U^(1/k) boost for k < 1. Rejection draws a variable number of stream
// values, but the count is a pure function of the stream, so the
// sequence stays byte-reproducible.
func gammaDraw(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := rng.Float64()
		if u < 1e-300 {
			u = 1e-300
		}
		return gammaDraw(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// weibullSource: Weibull(shape) inter-arrival times, scaled so the
// mean gap is meanIAT (scale = meanIAT / Γ(1 + 1/shape)).
type weibullSource struct {
	rng           *rand.Rand
	t, scale      float64
	invK, horizon float64
	size          int
}

func (s *weibullSource) Next() (float64, int, bool) {
	u := s.rng.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	s.t += s.scale * math.Pow(-math.Log(u), s.invK)
	if s.t >= s.horizon {
		return 0, 0, false
	}
	return s.t, s.size, true
}

// webSource: Poisson flow arrivals, Pareto flow sizes, packets within
// a flow paced at the origin line rate; overlapping flows queue behind
// each other. Flow sizes are capped at 10^4 × xm so a single tail draw
// cannot swallow the whole horizon.
type webSource struct {
	rng       *rand.Rand
	flowT     float64 // arrival time of the current/last flow
	flowIAT   float64
	xm, alpha float64
	pktGap    float64
	horizon   float64
	size      int
	remBytes  int     // unsent bytes of the current flow
	nextPkt   float64 // emission time of the next packet in the flow
}

func (s *webSource) Next() (float64, int, bool) {
	for {
		if s.remBytes > 0 {
			t := s.nextPkt
			if t >= s.horizon {
				return 0, 0, false
			}
			n := s.size
			if s.remBytes < n {
				n = s.remBytes
			}
			s.remBytes -= n
			s.nextPkt += s.pktGap
			return t, n, true
		}
		s.flowT += s.rng.ExpFloat64() * s.flowIAT
		if s.flowT >= s.horizon {
			return 0, 0, false
		}
		// A flow that arrives while the previous one is still being
		// paced queues behind it (the origin serialises the bearer),
		// keeping the per-UE stream monotone.
		if s.flowT < s.nextPkt {
			s.flowT = s.nextPkt
			if s.flowT >= s.horizon {
				return 0, 0, false
			}
		}
		// Pareto(xm, alpha) via inverse transform, tail-capped.
		u := s.rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		size := s.xm / math.Pow(u, 1/s.alpha)
		if max := s.xm * 1e4; size > max {
			size = max
		}
		s.remBytes = int(size)
		if s.remBytes < 1 {
			s.remBytes = 1
		}
		s.nextPkt = s.flowT
	}
}
