// Package enb implements the airborne eNodeB's MAC slice: connected
// UE contexts ordered by C-RNTI, the attach signalling relay to the
// EPC, per-TTI round-robin PRB scheduling, and CQI-driven throughput
// accounting. Together with package epc this is the "LTE eNodeB + EPC"
// substrate the paper runs on two onboard computers (§4.1); the
// figures' throughput numbers come from this scheduler fed with the
// propagation model's SNRs.
package enb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/epc"
	"repro/internal/ltephy"
)

// UEContext is the eNodeB-side state for one connected UE: Attach or
// AdoptForHandover creates it, and Detach or ReleaseForHandover
// removes it.
type UEContext struct {
	RNTI uint16
	IMSI epc.IMSI
	// UE is the owner's index for the UE: the handle plans and grants
	// carry, where the IMSI stays at the EPC boundary.
	UE int
	// CQI is the most recent channel-quality report (0-15).
	CQI int
	// Session is the EPC session after a successful attach.
	Session *epc.Session
	// bearer is the downlink user-plane queue for the default bearer.
	bearer *Bearer

	// scheduler accounting
	servedBits float64
	// starvedTTIs counts TTIs spent with data queued but an
	// undecodable channel (CQI 0) — the eNodeB-side loss-window KPI.
	starvedTTIs uint64
}

// ReportSNR records a wideband SNR report for the UE, updating its
// CQI.
func (c *UEContext) ReportSNR(snrDB float64) { c.CQI = ltephy.CQIForSNR(snrDB) }

// Bearer returns the UE's downlink bearer.
func (c *UEContext) Bearer() *Bearer { return c.bearer }

// ServedBits returns the cumulative bits served to the UE.
func (c *UEContext) ServedBits() float64 { return c.servedBits }

// StarvedTTIs returns the number of TTIs the UE spent with queued data
// but an undecodable channel.
func (c *UEContext) StarvedTTIs() uint64 { return c.starvedTTIs }

// ENodeB is the airborne base station. Like HandoverEngine it holds no
// locks: one owner, the world that built it, drives it and its contexts
// single-threaded. Only a Bearer takes its own lock.
type ENodeB struct {
	Num ltephy.Numerology

	core *epc.Core

	// byIMSI finds a context by IMSI at the EPC boundary (Context);
	// the serving path holds contexts and names UEs by index.
	byIMSI map[epc.IMSI]*UEContext
	// ordered holds every context in ascending RNTI order, the order
	// the scheduler walks each TTI. RNTIs are unique within the cell,
	// and every membership change goes through add/remove (or rebuilds
	// it, on Restore), so no TTI ranges over a map or sorts.
	ordered  []*UEContext
	nextRNTI uint16
	ttis     uint64

	// The planned TTI, in buffers reused every TTI so the serving loop
	// allocates nothing in steady state: plan[i] is active[i]'s
	// allocation, from PlanTTI until the next PlanTTI.
	active []*UEContext
	plan   []Alloc
}

// New returns an eNodeB bound to the given EPC core.
func New(num ltephy.Numerology, core *epc.Core) *ENodeB {
	return &ENodeB{
		Num:      num,
		core:     core,
		byIMSI:   make(map[epc.IMSI]*UEContext),
		nextRNTI: 61, // first C-RNTI after the reserved range
	}
}

// ErrNotAttached is returned when an operation needs a connected UE.
var ErrNotAttached = errors.New("enb: UE not attached")

// Attach runs the full signalling chain for a UE: attach request to
// the EPC, authentication challenge/response with the UE key, and
// default-bearer activation. It returns the UE context, carrying the
// owner's index ue, under a fresh C-RNTI unless the UE is already
// attached to this cell.
func (e *ENodeB) Attach(ue int, imsi epc.IMSI, key [16]byte, seed uint64) (*UEContext, error) {
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
	if ctx, ok := e.byIMSI[imsi]; ok {
		ctx.UE, ctx.Session = ue, sess
		return ctx, nil
	}
	rnti, err := e.assignRNTI()
	if err != nil {
		return nil, fmt.Errorf("enb: attach %s: %w", imsi, err)
	}
	ctx := &UEContext{RNTI: rnti, IMSI: imsi, UE: ue, Session: sess, bearer: NewBearer(sess)}
	e.add(ctx)
	return ctx, nil
}

// assignRNTI hands out nextRNTI, skipping RNTIs a live context holds:
// after 65,535 assignments nextRNTI wraps onto RNTIs that UEs may
// still hold. It fails once a full cycle finds every RNTI in use.
func (e *ENodeB) assignRNTI() (uint16, error) {
	for range 1 << 16 {
		rnti := e.nextRNTI
		e.nextRNTI++
		if _, live := e.find(rnti); !live {
			return rnti, nil
		}
	}
	return 0, errors.New("every C-RNTI is in use")
}

// find returns where rnti sits in the scheduling order, and whether a
// context holds it.
func (e *ENodeB) find(rnti uint16) (int, bool) {
	return slices.BinarySearchFunc(e.ordered, rnti, func(ctx *UEContext, r uint16) int { return cmp.Compare(ctx.RNTI, r) })
}

// add registers a new context, whose RNTI no live context holds, in the
// IMSI index and at its place in the scheduling order.
func (e *ENodeB) add(ctx *UEContext) {
	e.byIMSI[ctx.IMSI] = ctx
	i, _ := e.find(ctx.RNTI)
	e.ordered = slices.Insert(e.ordered, i, ctx)
}

// remove unregisters ctx from the IMSI index and the scheduling order,
// and reports whether this cell held it.
func (e *ENodeB) remove(ctx *UEContext) bool {
	i, ok := e.find(ctx.RNTI)
	if !ok || e.ordered[i] != ctx {
		return false
	}
	delete(e.byIMSI, ctx.IMSI)
	e.ordered = slices.Delete(e.ordered, i, i+1)
	return true
}

// Context returns the context this cell holds for imsi: the lookup for
// the EPC boundary, where UEs are named by IMSI.
func (e *ENodeB) Context(imsi epc.IMSI) (*UEContext, bool) {
	ctx, ok := e.byIMSI[imsi]
	return ctx, ok
}

// Detach releases ctx and its EPC session, if this cell holds ctx.
func (e *ENodeB) Detach(ctx *UEContext) {
	if e.remove(ctx) {
		e.core.Detach(ctx.IMSI)
	}
}

// rePerPRBTTI is the usable resource elements per PRB per TTI:
// subcarriers × symbols × (1 − overhead).
const rePerPRBTTI = 12 * 14 * 0.75

// BitsPerPRBTTI returns the deliverable bits for one PRB in one TTI at
// the given CQI — the interference-free link adaptation the scheduler
// has always used. The scheduler asks once per granted allocation per
// TTI, so the values are tabulated; above CQI 15 the rate saturates at
// CQI 15's.
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

// Alloc is one UE's PRB allocation in a TTI plan: N ≥ 1 PRBs starting
// at PRB Start (the scheduler fills the band from PRB 0). A UE the
// rotation grants no PRB this TTI has no entry.
type Alloc struct {
	RNTI  uint16
	UE    int // the context's owner index
	CQI   int
	Start int
	N     int
}

// PlanTTI advances the cell by one 1 ms scheduling interval: it counts
// starved TTIs (data queued, undecodable channel), shares the PRBs
// round-robin among the UEs with a decodable channel, and returns the
// PRBs the plan occupies — the occupancy interferer cells see. Nothing
// is credited until CommitTTI, so a multi-cell loop can plan every cell
// before committing any. The plan lives in the cell's reused buffers
// until the next PlanTTI.
func (e *ENodeB) PlanTTI() int {
	e.ttis++
	// The rotation below reads slice positions, so the active set is
	// filtered from the RNTI-ordered context list: served bits stay
	// byte-identical across runs, and the serving API's determinism
	// guarantee extends through the scheduler.
	e.active, e.plan = e.active[:0], e.plan[:0]
	for _, ctx := range e.ordered {
		if ctx.CQI > 0 {
			e.active = append(e.active, ctx)
		} else if ctx.bearer.QueuedPackets() > 0 {
			ctx.starvedTTIs++
		}
	}
	// Each decodable UE gets base PRBs, plus one of the extra PRBs,
	// rotated by TTI count. With more decodable UEs than PRBs base is
	// 0, and only the UEs the rotation grants a PRB enter the plan;
	// active keeps just those, aligned with it.
	n := len(e.active)
	if n == 0 {
		return 0
	}
	base, extra := e.Num.PRBs/n, e.Num.PRBs%n
	start := 0
	for i, ctx := range e.active {
		share := base
		if (i+int(e.ttis))%n < extra {
			share++
		}
		if share == 0 {
			continue
		}
		e.active[len(e.plan)] = ctx
		e.plan = append(e.plan, Alloc{RNTI: ctx.RNTI, UE: ctx.UE, CQI: ctx.CQI, Start: start, N: share})
		start += share
	}
	e.active = e.active[:len(e.plan)]
	return start
}

// CommitTTI credits the plan of the last PlanTTI to the contexts it
// holds: no context may join or leave the cell in between (MultiCell
// runs its handovers in the report tick, outside the TTI). bits (when
// non-nil) maps each allocation to its deliverable bits — a fleet
// passes an interference-degraded mapping — and defaults to the CQI
// rate × PRB count. grant (when non-nil) is invoked once per UE that
// received non-zero bits, in ascending-RNTI order, with the UE's index
// and granted bits; the traffic subsystem uses it to drain each UE's
// bearer with exactly the scheduler's allocation. It must not add or
// remove contexts. It returns the total bits served.
func (e *ENodeB) CommitTTI(bits func(Alloc) float64, grant func(ue int, bits float64)) float64 {
	var total float64
	for i, a := range e.plan {
		ctx := e.active[i]
		var b float64
		if bits != nil {
			b = bits(a)
		} else {
			b = BitsPerPRBTTI(a.CQI) * float64(a.N)
		}
		ctx.servedBits += b
		total += b
		if grant != nil && b > 0 {
			grant(ctx.UE, b)
		}
	}
	return total
}
