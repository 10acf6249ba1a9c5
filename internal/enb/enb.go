// Package enb implements the airborne eNodeB's MAC/RRC slice: UE
// contexts with RRC states, the attach signalling relay to the EPC,
// per-TTI PRB scheduling (round-robin, max-CQI, proportional-fair),
// and CQI-driven throughput accounting. Together with package epc this
// is the "LTE eNodeB + EPC" substrate the paper runs on two onboard
// computers (§4.1); the figures' throughput numbers come from this
// scheduler fed with the propagation model's SNRs.
package enb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/epc"
	"repro/internal/ltephy"
)

// RRCState is the radio-resource-control state of a UE context.
type RRCState int

const (
	// RRCIdle means no active radio connection.
	RRCIdle RRCState = iota
	// RRCConnected means the UE has an active data bearer.
	RRCConnected
)

// String implements fmt.Stringer.
func (s RRCState) String() string {
	switch s {
	case RRCIdle:
		return "idle"
	case RRCConnected:
		return "connected"
	default:
		return fmt.Sprintf("RRCState(%d)", int(s))
	}
}

// UEContext is the eNodeB-side state for one UE.
type UEContext struct {
	RNTI uint16
	IMSI epc.IMSI
	RRC  RRCState
	// CQI is the most recent channel-quality report (0-15).
	CQI int
	// Session is the EPC session after a successful attach.
	Session *epc.Session
	// bearer is the downlink user-plane queue for the default bearer.
	bearer *Bearer

	// scheduler accounting
	servedBits float64
	avgRateBps float64 // EWMA for proportional fair
	// starvedTTIs counts TTIs spent with data queued but an
	// undecodable channel (CQI 0) — the eNodeB-side loss-window KPI.
	starvedTTIs uint64
}

// SchedulerPolicy selects how PRBs are shared each TTI.
type SchedulerPolicy int

const (
	// RoundRobin splits PRBs equally among connected UEs.
	RoundRobin SchedulerPolicy = iota
	// MaxCQI gives all PRBs to the best-channel UE (max throughput,
	// no fairness).
	MaxCQI
	// ProportionalFair weighs instantaneous rate against served EWMA.
	ProportionalFair
)

// String implements fmt.Stringer.
func (p SchedulerPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case MaxCQI:
		return "max-cqi"
	case ProportionalFair:
		return "proportional-fair"
	default:
		return fmt.Sprintf("SchedulerPolicy(%d)", int(p))
	}
}

// ENodeB is the airborne base station.
type ENodeB struct {
	Num    ltephy.Numerology
	Policy SchedulerPolicy

	core *epc.Core

	mu       sync.Mutex
	byRNTI   map[uint16]*UEContext
	byIMSI   map[epc.IMSI]*UEContext
	nextRNTI uint16
	ttis     uint64
	// ordered holds every context in ascending (RNTI, IMSI) order, the
	// order the scheduler walks each TTI. Every membership change goes
	// through addLocked/removeLocked (or rebuilds it, on a cold
	// restore), so no TTI ranges over a map or sorts.
	ordered []*UEContext

	// Scheduler scratch buffers, guarded by mu and reused every TTI so
	// the hot serving loop allocates nothing in steady state.
	schedActive []*UEContext
	schedNPRB   []int
	schedPlan   TTIPlan
	commitCtxs  []*UEContext
}

// New returns an eNodeB bound to the given EPC core.
func New(num ltephy.Numerology, core *epc.Core, policy SchedulerPolicy) *ENodeB {
	return &ENodeB{
		Num:      num,
		Policy:   policy,
		core:     core,
		byRNTI:   make(map[uint16]*UEContext),
		byIMSI:   make(map[epc.IMSI]*UEContext),
		nextRNTI: 61, // first C-RNTI after the reserved range
	}
}

// ErrNotAttached is returned when an operation needs a connected UE.
var ErrNotAttached = errors.New("enb: UE not attached")

// Attach runs the full signalling chain for a UE: RRC connection,
// attach request to the EPC, authentication challenge/response with
// the UE key, and default-bearer activation. It returns the UE
// context.
func (e *ENodeB) Attach(imsi epc.IMSI, key [16]byte, seed uint64) (*UEContext, error) {
	challenge, err := e.core.BeginAttach(imsi, seed)
	if err != nil {
		return nil, fmt.Errorf("enb: attach %s: %w", imsi, err)
	}
	// The UE computes its response with its SIM key.
	resp := epc.Respond(key, challenge)
	sess, err := e.core.CompleteAttach(imsi, resp)
	if err != nil {
		return nil, fmt.Errorf("enb: attach %s: %w", imsi, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ctx, ok := e.byIMSI[imsi]; ok {
		ctx.RRC = RRCConnected
		ctx.Session = sess
		return ctx, nil
	}
	ctx := &UEContext{RNTI: e.nextRNTI, IMSI: imsi, RRC: RRCConnected, Session: sess, bearer: NewBearer(sess)}
	e.nextRNTI++
	e.addLocked(ctx)
	return ctx, nil
}

// schedBefore is the scheduling order: ascending RNTI, ties (only
// possible once nextRNTI has wrapped onto a live RNTI) broken by IMSI.
func schedBefore(a, b *UEContext) bool {
	if a.RNTI != b.RNTI {
		return a.RNTI < b.RNTI
	}
	return a.IMSI < b.IMSI
}

// addLocked registers a new context in both maps and at its place in
// the scheduling order.
func (e *ENodeB) addLocked(ctx *UEContext) {
	e.byRNTI[ctx.RNTI] = ctx
	e.byIMSI[ctx.IMSI] = ctx
	i := sort.Search(len(e.ordered), func(k int) bool { return schedBefore(ctx, e.ordered[k]) })
	e.ordered = slices.Insert(e.ordered, i, ctx)
}

// removeLocked unregisters a context from both maps and the scheduling
// order.
func (e *ENodeB) removeLocked(ctx *UEContext) {
	delete(e.byRNTI, ctx.RNTI)
	delete(e.byIMSI, ctx.IMSI)
	i := sort.Search(len(e.ordered), func(k int) bool { return !schedBefore(e.ordered[k], ctx) })
	if i < len(e.ordered) && e.ordered[i] == ctx {
		e.ordered = slices.Delete(e.ordered, i, i+1)
	}
}

// Detach releases the UE context and its EPC session.
func (e *ENodeB) Detach(imsi epc.IMSI) {
	e.core.Detach(imsi)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ctx, ok := e.byIMSI[imsi]; ok {
		e.removeLocked(ctx)
	}
}

// ReportSNR records a wideband SNR report for the UE, updating its
// CQI. Unknown IMSIs are ignored (stale reports after detach).
func (e *ENodeB) ReportSNR(imsi epc.IMSI, snrDB float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ctx, ok := e.byIMSI[imsi]; ok {
		ctx.CQI = ltephy.CQIForSNR(snrDB)
	}
}

// Connected returns the connected UE contexts in ascending-RNTI order.
func (e *ENodeB) Connected() []*UEContext {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*UEContext, 0, len(e.ordered))
	for _, ctx := range e.ordered {
		if ctx.RRC == RRCConnected {
			out = append(out, ctx)
		}
	}
	return out
}

// Context returns the UE context for imsi.
func (e *ENodeB) Context(imsi epc.IMSI) (*UEContext, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx, ok := e.byIMSI[imsi]
	return ctx, ok
}

// Bearer returns the downlink bearer for imsi.
func (e *ENodeB) Bearer(imsi epc.IMSI) (*Bearer, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx, ok := e.byIMSI[imsi]
	if !ok || ctx.bearer == nil {
		return nil, false
	}
	return ctx.bearer, true
}

// BearerTotals aggregates every attached UE's bearer counters — the
// cell-level drop/queue-depth view the /metrics endpoint exports.
func (e *ENodeB) BearerTotals() Stats {
	e.mu.Lock()
	bearers := make([]*Bearer, 0, len(e.byIMSI))
	for _, ctx := range e.byIMSI {
		if ctx.bearer != nil {
			bearers = append(bearers, ctx.bearer)
		}
	}
	e.mu.Unlock()
	var tot Stats
	for _, b := range bearers {
		s := b.Stats()
		tot.Queued += s.Queued
		if s.PeakQueue > tot.PeakQueue {
			tot.PeakQueue = s.PeakQueue
		}
		tot.DeliveredPackets += s.DeliveredPackets
		tot.DeliveredBytes += s.DeliveredBytes
		tot.DroppedPackets += s.DroppedPackets
		tot.DroppedBytes += s.DroppedBytes
	}
	return tot
}

// rePerPRBTTI is the usable resource elements per PRB per TTI:
// subcarriers × symbols × (1 − overhead).
const rePerPRBTTI = 12 * 14 * 0.75

// BitsPerPRBTTI returns the deliverable bits for one PRB in one TTI at
// the given CQI — the interference-free link adaptation the scheduler
// has always used. The scheduler asks twice per active UE per TTI, so
// the values are tabulated; above CQI 15 the rate saturates at CQI 15's.
func BitsPerPRBTTI(cqi int) float64 { return bitsPerPRBTTIByCQI[min(max(cqi, 0), 15)] }

var bitsPerPRBTTIByCQI = func() (t [16]float64) {
	for cqi := 1; cqi < len(t); cqi++ {
		t[cqi] = rePerPRBTTI * ltephy.EfficiencyForSNR(ltephy.SNRForCQI(cqi))
	}
	return t
}()

// BitsPerPRBTTIDegraded is BitsPerPRBTTI with an SINR penalty applied:
// the CQI's equivalent SNR is reduced by penaltyDB before the spectral
// efficiency lookup. A penalty of exactly 0 returns BitsPerPRBTTI(cqi)
// unchanged — the single-cell / separate-carrier case stays on the
// legacy arithmetic bit for bit.
func BitsPerPRBTTIDegraded(cqi int, penaltyDB float64) float64 {
	if cqi <= 0 {
		return 0
	}
	if penaltyDB == 0 {
		return BitsPerPRBTTI(cqi)
	}
	return rePerPRBTTI * ltephy.EfficiencyForSNR(ltephy.SNRForCQI(cqi)-penaltyDB)
}

// bitsPerPRBTTI returns the deliverable bits for one PRB in one TTI at
// the given CQI.
func (e *ENodeB) bitsPerPRBTTI(cqi int) float64 { return BitsPerPRBTTI(cqi) }

// RunTTI executes one 1 ms scheduling interval, allocating the cell's
// PRBs among connected UEs under the configured policy and crediting
// served bits. It returns the total bits served this TTI.
func (e *ENodeB) RunTTI() float64 { return e.RunTTIFunc(nil) }

// Alloc is one UE's PRB allocation in a TTI plan: N PRBs starting at
// PRB Start (the scheduler fills the band from PRB 0). Every active UE
// appears in the plan, zero-PRB allocations included — the
// proportional-fair EWMA update needs the full active set.
type Alloc struct {
	RNTI  uint16
	IMSI  epc.IMSI
	CQI   int
	Start int
	N     int
}

// TTIPlan is the PRB allocation of one scheduling interval, in
// ascending-RNTI order. Splitting planning from crediting lets a
// multi-cell serving loop plan every cell first (so each cell's PRB
// occupancy is known), compute per-allocation interference, and only
// then commit degraded bits.
type TTIPlan struct {
	Allocs []Alloc
}

// OccupiedPRBs is the number of PRBs the plan actually schedules —
// the occupancy interferer cells see.
func (p *TTIPlan) OccupiedPRBs() int {
	n := 0
	for _, a := range p.Allocs {
		n += a.N
	}
	return n
}

// planTTILocked advances the cell by one 1 ms scheduling interval and
// fills the reused e.schedPlan/e.schedActive buffers (aligned:
// schedActive[i] owns schedPlan.Allocs[i]), valid until the next call.
// Starvation accounting (queued data, undecodable channel) happens
// here, as it is part of advancing the TTI.
func (e *ENodeB) planTTILocked() {
	e.ttis++
	// The PRB allocation below reads slice positions (round-robin
	// rotation, max-CQI and PF tie-breaks), so the active set is filtered
	// from the RNTI-ordered context list: served bits stay byte-identical
	// across runs, and the serving API's determinism guarantee extends
	// through the scheduler.
	active := e.schedActive[:0]
	for _, ctx := range e.ordered {
		if ctx.RRC == RRCConnected && ctx.CQI > 0 {
			active = append(active, ctx)
		} else if ctx.RRC == RRCConnected && ctx.bearer != nil && ctx.bearer.QueuedPackets() > 0 {
			ctx.starvedTTIs++
		}
	}
	e.schedActive = active
	e.schedPlan.Allocs = e.schedPlan.Allocs[:0]
	if len(active) == 0 {
		return
	}
	prbs := e.Num.PRBs
	if cap(e.schedNPRB) < len(active) {
		e.schedNPRB = make([]int, len(active))
	}
	nPRB := e.schedNPRB[:len(active)]
	for i := range nPRB {
		nPRB[i] = 0
	}
	switch e.Policy {
	case RoundRobin:
		base := prbs / len(active)
		extra := prbs % len(active)
		// Rotate the extra PRBs deterministically by TTI count.
		for i := range active {
			nPRB[i] = base
			if (i+int(e.ttis))%len(active) < extra {
				nPRB[i]++
			}
		}
	case MaxCQI:
		best := 0
		for i, ctx := range active[1:] {
			if ctx.CQI > active[best].CQI || (ctx.CQI == active[best].CQI && ctx.RNTI < active[best].RNTI) {
				best = i + 1
			}
		}
		nPRB[best] = prbs
	case ProportionalFair:
		best := 0
		bestMetric := -1.0
		for i, ctx := range active {
			inst := e.bitsPerPRBTTI(ctx.CQI)
			avg := ctx.avgRateBps
			if avg < 1 {
				avg = 1
			}
			if m := inst / avg; m > bestMetric {
				bestMetric, best = m, i
			}
		}
		nPRB[best] = prbs
	}
	start := 0
	for i, ctx := range active {
		e.schedPlan.Allocs = append(e.schedPlan.Allocs,
			Alloc{RNTI: ctx.RNTI, IMSI: ctx.IMSI, CQI: ctx.CQI, Start: start, N: nPRB[i]})
		start += nPRB[i]
	}
}

// PlanTTI advances the cell by one 1 ms scheduling interval and returns
// the PRB allocation under the configured policy, without crediting any
// bits. The returned plan is a private copy: it stays valid across
// further scheduling, which lets a multi-cell loop plan every cell
// before committing any.
func (e *ENodeB) PlanTTI() *TTIPlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planTTILocked()
	return &TTIPlan{Allocs: append([]Alloc(nil), e.schedPlan.Allocs...)}
}

// CommitTTI credits the planned allocations: for each allocation, bits
// (when non-nil) maps the allocation to its deliverable bits — the
// multicell loop passes an interference-degraded mapping — and defaults
// to the legacy CQI-rate × PRB-count product. grant (when non-nil) is
// invoked once per UE that received non-zero bits, in ascending-RNTI
// order, with the UE's IMSI and granted bits; it runs with the eNodeB
// lock held and must not call back into the eNodeB (bearer methods are
// fine, they take their own lock). Allocations whose UE context is gone
// or re-keyed (detached or handed over between plan and commit) are
// skipped. It returns the total bits served.
func (e *ENodeB) CommitTTI(plan *TTIPlan, bits func(Alloc) float64, grant func(imsi epc.IMSI, bits float64)) float64 {
	if len(plan.Allocs) == 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Re-resolve each allocation's context, revalidating identity: the
	// UE may have detached or handed over between plan and commit.
	ctxs := e.commitCtxs[:0]
	for _, a := range plan.Allocs {
		ctx, ok := e.byRNTI[a.RNTI]
		if !ok || ctx.IMSI != a.IMSI {
			ctx = nil
		}
		ctxs = append(ctxs, ctx)
	}
	e.commitCtxs = ctxs
	return e.commitLocked(plan.Allocs, ctxs, bits, grant)
}

// commitLocked credits allocs (ctxs[i] is the live context for
// allocs[i], nil when the UE vanished between plan and commit).
func (e *ENodeB) commitLocked(allocs []Alloc, ctxs []*UEContext, bits func(Alloc) float64, grant func(imsi epc.IMSI, bits float64)) float64 {
	prbs := e.Num.PRBs
	var total float64
	for i, a := range allocs {
		ctx := ctxs[i]
		if ctx == nil {
			continue
		}
		var b float64
		if bits != nil {
			b = bits(a)
		} else {
			b = e.bitsPerPRBTTI(a.CQI) * float64(a.N)
		}
		ctx.servedBits += b
		total += b
		if grant != nil && b > 0 {
			grant(ctx.IMSI, b)
		}
	}
	// Update proportional-fair EWMAs with each UE's achievable
	// full-cell rate this TTI.
	const alpha = 0.02
	for i, a := range allocs {
		ctx := ctxs[i]
		if ctx == nil {
			continue
		}
		ctx.avgRateBps = (1-alpha)*ctx.avgRateBps + alpha*(e.bitsPerPRBTTI(a.CQI)*float64(prbs))
	}
	return total
}

// RunTTIFunc is RunTTI with a per-grant callback: grant (when non-nil)
// is invoked once per UE that received a non-zero allocation this TTI,
// in ascending-RNTI order, with the UE's IMSI and granted bits. The
// traffic subsystem uses it to drain each UE's bearer with exactly the
// scheduler's allocation. The callback runs with the eNodeB lock held:
// it must not call back into the eNodeB (bearer methods are fine, they
// take their own lock). Semantically it is PlanTTI followed by an
// interference-free CommitTTI, but it runs both under one lock against
// the reused scheduling buffers — no per-TTI allocation, no context
// re-resolution — so the single-cell hot loop pays nothing for the
// plan/commit split; the arithmetic is unchanged from the pre-split
// scheduler and served bits stay byte-identical.
func (e *ENodeB) RunTTIFunc(grant func(imsi epc.IMSI, bits float64)) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planTTILocked()
	if len(e.schedPlan.Allocs) == 0 {
		return 0
	}
	return e.commitLocked(e.schedPlan.Allocs, e.schedActive, nil, grant)
}

// StarvedTTIs returns the number of TTIs imsi spent with queued data
// but an undecodable channel.
func (e *ENodeB) StarvedTTIs(imsi epc.IMSI) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ctx, ok := e.byIMSI[imsi]; ok {
		return ctx.starvedTTIs
	}
	return 0
}

// ServedBits returns the cumulative bits served to imsi.
func (e *ENodeB) ServedBits(imsi epc.IMSI) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ctx, ok := e.byIMSI[imsi]; ok {
		return ctx.servedBits
	}
	return 0
}

// ResetAccounting zeroes all served-bit counters (used between
// experiment phases).
func (e *ENodeB) ResetAccounting() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ctx := range e.byIMSI {
		ctx.servedBits = 0
		ctx.avgRateBps = 0
	}
	e.ttis = 0
}

// TTIs returns the number of scheduling intervals executed.
func (e *ENodeB) TTIs() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ttis
}
