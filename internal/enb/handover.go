package enb

import (
	"fmt"

	"repro/internal/epc"
)

// X2-style handover. Two halves live here:
//
//   - The context-transfer primitives on ENodeB
//     (ReleaseForHandover/AdoptForHandover): the source cell hands the
//     live UE context — EPC session, scheduler accounting, and the
//     bearer with its in-flight queue — to the target cell without
//     touching the EPC (the session and its GTP TEID survive, which is
//     what makes the transfer zero-byte-loss by construction).
//
//   - The HandoverEngine: the A3-event decision logic (neighbor better
//     than serving by a hysteresis margin, continuously for a
//     time-to-trigger) plus the handover KPI counters the scenario
//     layer reports (attempts, successes, ping-pongs, interruption
//     time). All state is slice-indexed per UE and updated in UE index
//     order, so the engine is deterministic and snapshot-friendly.

// HandoverContext is the X2 context-transfer payload: everything the
// target cell needs to adopt a UE mid-flow. The Bearer pointer is the
// live object — its queued packets, timestamps and unspent credit move
// with it, so no queued byte is lost or replayed in the transfer.
type HandoverContext struct {
	IMSI        epc.IMSI
	UE          int // the owner's index for the UE, kept by the target's context
	Session     *epc.Session
	ServedBits  float64
	StarvedTTIs uint64
	Bearer      *Bearer
	// QueuedBytes is the bearer backlog at release time, recorded so
	// callers can assert the zero-loss invariant across the transfer.
	QueuedBytes int
}

// ReleaseForHandover removes ctx from the source cell and returns the
// transfer payload. Unlike Detach it does NOT release the EPC session:
// the session (and its GTP tunnel) belongs to the UE, not the cell,
// and survives the handover.
func (e *ENodeB) ReleaseForHandover(ctx *UEContext) (*HandoverContext, error) {
	if !e.remove(ctx) {
		return nil, fmt.Errorf("enb: handover release %s: %w", ctx.IMSI, ErrNotAttached)
	}
	return &HandoverContext{
		IMSI:        ctx.IMSI,
		UE:          ctx.UE,
		Session:     ctx.Session,
		ServedBits:  ctx.servedBits,
		StarvedTTIs: ctx.starvedTTIs,
		Bearer:      ctx.bearer,
		QueuedBytes: ctx.bearer.QueuedBytes(),
	}, nil
}

// AdoptForHandover installs a transferred UE context under a fresh
// C-RNTI in the target cell. The scheduler accounting (served bits,
// starved TTIs) continues from the source-cell values — serving-phase
// throughput is computed from the running served-bits accumulator,
// which must not reset mid-phase. CQI starts at 0: the target has no
// CSI for the UE until its first measurement report, which models the
// post-handover ramp-up.
func (e *ENodeB) AdoptForHandover(hc *HandoverContext) (*UEContext, error) {
	if _, ok := e.byIMSI[hc.IMSI]; ok {
		return nil, fmt.Errorf("enb: handover adopt %s: already attached", hc.IMSI)
	}
	rnti, err := e.assignRNTI()
	if err != nil {
		return nil, fmt.Errorf("enb: handover adopt %s: %w", hc.IMSI, err)
	}
	ctx := &UEContext{
		RNTI:        rnti,
		IMSI:        hc.IMSI,
		UE:          hc.UE,
		Session:     hc.Session,
		bearer:      hc.Bearer,
		servedBits:  hc.ServedBits,
		starvedTTIs: hc.StarvedTTIs,
	}
	e.add(ctx)
	return ctx, nil
}

// HandoverConfig are the A3-event knobs.
type HandoverConfig struct {
	// HysteresisDB is the margin by which a neighbor's score must
	// exceed the serving cell's before it becomes a handover candidate.
	HysteresisDB float64
	// TTTs is the time-to-trigger: the candidate must stay better for
	// this long, continuously, before the handover fires.
	TTTs float64
	// LoadBiasDB is the per-connected-UE score penalty used by
	// load-aware cell selection (score = SINR − bias·load).
	LoadBiasDB float64
	// InterruptS is the modeled user-plane interruption after each
	// handover: the UE reports no usable channel to the target until
	// the interruption elapses.
	InterruptS float64
	// PingPongWindowS classifies a handover as a ping-pong when the UE
	// returns to the cell it left within this window.
	PingPongWindowS float64
}

// DefaultHandoverConfig mirrors common LTE A3 settings: 3 dB
// hysteresis, 160 ms time-to-trigger, 50 ms interruption, 1 s
// ping-pong window.
func DefaultHandoverConfig() HandoverConfig {
	return HandoverConfig{HysteresisDB: 3, TTTs: 0.16, LoadBiasDB: 0.5, InterruptS: 0.05, PingPongWindowS: 1}
}

// HandoverStats are the fleet-level handover KPIs.
type HandoverStats struct {
	// Attempts counts A3 triggers; Successes counts completed
	// transfers (in this simulator every attempt the serving loop
	// executes completes, but the split keeps the KPI row honest if a
	// failure path is ever added).
	Attempts  uint64
	Successes uint64
	// PingPongs counts handovers back to the previous cell within the
	// ping-pong window.
	PingPongs uint64
	// InterruptionS is the total modeled user-plane interruption.
	InterruptionS float64
	// PerCellIn/PerCellOut count handovers into / out of each cell.
	PerCellIn  []uint64
	PerCellOut []uint64
}

// hoUE is one UE's A3 state: the current candidate cell and how long it
// has been continuously better, plus the last-handover memory for
// ping-pong classification and the interruption deadline.
type hoUE struct {
	candidate      int
	candFor        float64
	hasCand        bool
	lastAt         float64
	lastFrom       int
	hasLast        bool
	interruptUntil float64
}

// HandoverEngine evaluates A3 events and accounts handover KPIs for a
// fixed UE population over a fixed cell set. It holds no locks: the
// serving loop drives it single-threaded in UE index order.
type HandoverEngine struct {
	Cfg   HandoverConfig
	ues   []hoUE
	perUE []uint64
	stats HandoverStats
}

// NewHandoverEngine sizes an engine for nUEs UEs and nCells cells.
func NewHandoverEngine(cfg HandoverConfig, nUEs, nCells int) *HandoverEngine {
	return &HandoverEngine{
		Cfg:   cfg,
		ues:   make([]hoUE, nUEs),
		perUE: make([]uint64, nUEs),
		stats: HandoverStats{PerCellIn: make([]uint64, nCells), PerCellOut: make([]uint64, nCells)},
	}
}

// Evaluate advances UE i's A3 state by one measurement period of dt
// seconds, given the load-biased scores of every cell. It returns the
// target cell and true when the A3 event fires (candidate continuously
// better than serving by the hysteresis for the time-to-trigger);
// the caller then executes the transfer and reports it via Complete.
func (h *HandoverEngine) Evaluate(i int, now, dt float64, serving int, scores []float64) (int, bool) {
	u := &h.ues[i]
	if now < u.interruptUntil {
		// No measurements during the interruption gap.
		u.hasCand = false
		u.candFor = 0
		return 0, false
	}
	best, found := 0, false
	for j := range scores {
		if j == serving {
			continue
		}
		if !found || scores[j] > scores[best] {
			best, found = j, true
		}
	}
	if !found || scores[best] < scores[serving]+h.Cfg.HysteresisDB {
		u.hasCand = false
		u.candFor = 0
		return 0, false
	}
	if !u.hasCand || u.candidate != best {
		u.hasCand = true
		u.candidate = best
		u.candFor = 0
	}
	u.candFor += dt
	if u.candFor < h.Cfg.TTTs {
		return 0, false
	}
	u.hasCand = false
	u.candFor = 0
	h.stats.Attempts++
	return best, true
}

// Complete records a finished transfer of UE i from one cell to
// another at time now, classifying ping-pongs and starting the
// interruption window.
func (h *HandoverEngine) Complete(i int, now float64, from, to int) {
	u := &h.ues[i]
	h.stats.Successes++
	h.perUE[i]++
	h.stats.PerCellOut[from]++
	h.stats.PerCellIn[to]++
	if u.hasLast && now-u.lastAt <= h.Cfg.PingPongWindowS && to == u.lastFrom {
		h.stats.PingPongs++
	}
	u.lastAt = now
	u.lastFrom = from
	u.hasLast = true
	u.interruptUntil = now + h.Cfg.InterruptS
	h.stats.InterruptionS += h.Cfg.InterruptS
}

// Interrupted reports whether UE i's user plane is inside the
// post-handover interruption window at time now.
func (h *HandoverEngine) Interrupted(i int, now float64) bool {
	return now < h.ues[i].interruptUntil
}

// Reset clears UE i's candidacy (a churned UE's measurements restart
// from scratch).
func (h *HandoverEngine) Reset(i int) {
	h.ues[i].hasCand = false
	h.ues[i].candFor = 0
}

// UESuccesses returns how many handovers UE i has completed.
func (h *HandoverEngine) UESuccesses(i int) uint64 { return h.perUE[i] }

// Stats returns a copy of the KPI counters.
func (h *HandoverEngine) Stats() HandoverStats {
	s := h.stats
	s.PerCellIn = append([]uint64(nil), h.stats.PerCellIn...)
	s.PerCellOut = append([]uint64(nil), h.stats.PerCellOut...)
	return s
}

// HandoverUEState is one UE's serializable A3 state.
type HandoverUEState struct {
	Candidate      int
	CandFor        float64
	HasCand        bool
	LastAt         float64
	LastFrom       int
	HasLast        bool
	InterruptUntil float64
	Successes      uint64
}

// HandoverEngineState is the engine's serializable state.
type HandoverEngineState struct {
	Cfg   HandoverConfig
	UEs   []HandoverUEState
	Stats HandoverStats
}

// Snapshot captures the engine state.
func (h *HandoverEngine) Snapshot() HandoverEngineState {
	st := HandoverEngineState{Cfg: h.Cfg, Stats: h.Stats()}
	for i, u := range h.ues {
		st.UEs = append(st.UEs, HandoverUEState{
			Candidate: u.candidate, CandFor: u.candFor, HasCand: u.hasCand,
			LastAt: u.lastAt, LastFrom: u.lastFrom, HasLast: u.hasLast,
			InterruptUntil: u.interruptUntil, Successes: h.perUE[i],
		})
	}
	return st
}

// Restore reinstates a snapshot into an engine of the same shape.
func (h *HandoverEngine) Restore(st HandoverEngineState) error {
	if len(st.UEs) != len(h.ues) {
		return fmt.Errorf("enb: handover snapshot has %d UEs, engine has %d", len(st.UEs), len(h.ues))
	}
	if len(st.Stats.PerCellIn) != len(h.stats.PerCellIn) {
		return fmt.Errorf("enb: handover snapshot has %d cells, engine has %d", len(st.Stats.PerCellIn), len(h.stats.PerCellIn))
	}
	h.Cfg = st.Cfg
	for i, u := range st.UEs {
		h.ues[i] = hoUE{
			candidate: u.Candidate, candFor: u.CandFor, hasCand: u.HasCand,
			lastAt: u.LastAt, lastFrom: u.LastFrom, hasLast: u.HasLast,
			interruptUntil: u.InterruptUntil,
		}
		h.perUE[i] = u.Successes
	}
	h.stats = st.Stats
	h.stats.PerCellIn = append([]uint64(nil), st.Stats.PerCellIn...)
	h.stats.PerCellOut = append([]uint64(nil), st.Stats.PerCellOut...)
	return nil
}
