// Package interference models the downlink co-channel interference of
// a multi-UAV fleet sharing one LTE carrier. The single-UAV SkyRAN of
// the paper never needs it — one cell, one carrier — but the ROADMAP's
// fleet regime does: once several airborne eNodeBs transmit on the
// same 10 MHz, each UE's channel is set by its serving cell's signal
// against the sum of the other cells' power landing on the same PRBs.
//
// The package is deliberately small and pure: an interference Graph is
// a carrier Plan, a propagation model and a list of cell positions,
// and every query (per-RB SINR, wideband SINR, scheduling penalty) is
// a deterministic function of its arguments. Each query derives from a
// link row (Links): a UE position's pathloss to every cell, evaluated
// once. Callers that ask many questions of one geometry — the serving
// loop's report ticks and TTIs, placement's candidate scoring — fill
// the row once and read it, instead of re-tracing each ray per query.
//
// Backward compatibility is structural, not numeric: with the
// "separate" plan, a single cell, or an empty interferer overlap, the
// interference power term is exactly zero and every SINR degenerates
// to the bitwise-identical legacy SNR (no log/exp round trip is
// applied). SINR can therefore never exceed SNR, and equals it exactly
// when the interferer set is empty — properties the tests pin.
package interference

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/radio"
)

// Plan names a fleet carrier plan: how the cells share spectrum.
type Plan string

const (
	// PlanSeparate gives every cell its own carrier — the legacy fleet
	// assumption. No cell interferes with any other; all SINRs equal
	// the plain SNR bit for bit.
	PlanSeparate Plan = "separate"
	// PlanCochannel puts every cell on one shared carrier (frequency
	// reuse 1): each UE's downlink competes with every other cell's
	// transmissions on the overlapping PRBs.
	PlanCochannel Plan = "cochannel"
)

// ParsePlan validates a carrier-plan name. The empty string selects
// the co-channel plan (the interesting fleet regime, and the only one
// in which the interference graph has edges).
func ParsePlan(s string) (Plan, error) {
	switch Plan(s) {
	case "":
		return PlanCochannel, nil
	case PlanSeparate, PlanCochannel:
		return Plan(s), nil
	}
	return "", fmt.Errorf("interference: unknown carrier plan %q (valid: %s, %s)", s, PlanSeparate, PlanCochannel)
}

// PRBInterval is a contiguous PRB allocation [Start, Start+N). The
// eNodeB scheduler fills the band from PRB 0, so an interval plus each
// cell's occupied-PRB count is enough to compute RB overlaps.
type PRBInterval struct {
	Start int
	N     int
}

// Graph is the interference graph of a fleet: the carrier plan, the
// shared propagation model, and each cell's transmit position. Under
// PlanCochannel the graph is complete (every cell interferes with
// every other); under PlanSeparate it has no edges. Cell positions may
// be updated between epochs with SetCell; queries are safe for
// concurrent use as long as positions are not being mutated. Construct
// with NewGraph.
type Graph struct {
	Plan  Plan
	Model *radio.Model
	Cells []geom.Vec3

	noiseDBm float64 // Model.Budget's thermal noise floor
	noiseMW  float64 // the same in mW
}

// NewGraph builds an interference graph over the given cells.
func NewGraph(plan Plan, m *radio.Model, cells []geom.Vec3) *Graph {
	nf := m.Budget.NoiseFloorDBm()
	return &Graph{
		Plan: plan, Model: m, Cells: append([]geom.Vec3(nil), cells...),
		noiseDBm: nf, noiseMW: radio.DBmToMilliwatt(nf),
	}
}

// SetCell moves cell i.
func (g *Graph) SetCell(i int, pos geom.Vec3) { g.Cells[i] = pos }

// interferes reports whether the graph has edges: two or more cells
// on one carrier.
func (g *Graph) interferes() bool { return g.Plan == PlanCochannel && len(g.Cells) >= 2 }

// Links is a UE-major matrix of link rows. Row i holds one UE
// position's link to every cell of the graph that filled it: each
// (UE, cell) pathloss is evaluated once and kept as the plain SNR and,
// on a graph with interference, as the received power in mW. Every
// SNR, SINR and penalty the package reports derives from a row, so one
// row answers them all without tracing a ray again.
type Links struct {
	cells   int
	snr     []float64 // snr[i*cells+j]: plain SNR of row i from cell j (dB)
	mw      []float64 // received power of row i from cell j (mW); nil without interference
	noiseMW float64   // thermal noise floor (mW)
}

// NewLinks allocates n rows over the graph's cells. Fill them from
// this graph, or from a copy with the same plan and cell count.
func (g *Graph) NewLinks(n int) *Links {
	l := g.links(n, nil)
	return &l
}

// links lays n rows over buf, or over new storage when buf is short.
func (g *Graph) links(n int, buf []float64) Links {
	size := n * len(g.Cells)
	need := size
	if g.interferes() {
		need = 2 * size
	}
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	l := Links{cells: len(g.Cells), snr: buf[:size:size], noiseMW: g.noiseMW}
	if g.interferes() {
		l.mw = buf[size:need:need]
	}
	return l
}

// Fill evaluates row i for a UE at ue: one pathloss per cell, kept as
// the SNR (radio.LinkBudget.SNRFromPathloss's arithmetic, with the
// graph's noise floor) and, with interference, the received power.
func (g *Graph) Fill(l *Links, i int, ue geom.Vec2) {
	pt := g.Model.UEPoint(ue)
	for j, c := range g.Cells {
		g.fillCell(l, i, j, c, pt)
	}
}

// fillCell evaluates entry (i, j) of l: the link from a cell at c to a
// UE antenna at pt. Fill and placement's refills share it, so
// every entry is the same expression.
func (g *Graph) fillCell(l *Links, i, j int, c, pt geom.Vec3) {
	rx := g.Model.Budget.RxPowerDBm(g.Model.Pathloss(c, pt))
	k := i*l.cells + j
	l.snr[k] = rx - g.noiseDBm
	if l.mw != nil {
		l.mw[k] = radio.DBmToMilliwatt(rx)
	}
}

// rowCells is the widest graph whose one-UE queries keep their row on
// the stack (the scenario layer's fleet cap); wider graphs allocate.
const rowCells = 16

// row evaluates the one-row links of a UE at ue over buf.
func (g *Graph) row(ue geom.Vec2, buf *[2 * rowCells]float64) Links {
	l := g.links(1, buf[:])
	g.Fill(&l, 0, ue)
	return l
}

// SNRdB is row i's plain (interference-free) SNR from cell serving.
func (l *Links) SNRdB(i, serving int) float64 { return l.snr[i*l.cells+serving] }

// penaltyDB maps an interference power to the SINR degradation
// 10·log10(1 + I/N): exactly 0, not merely small, when imw is 0.
func (l *Links) penaltyDB(imw float64) float64 {
	if imw == 0 {
		return 0
	}
	return 10 * math.Log10(1+imw/l.noiseMW)
}

// PenaltyDB returns row i's SINR degradation, in dB, of the allocation
// served from cell serving: 10·log10(1 + I/N) where I sums the other
// cells' received power (ascending cell order) weighted by the fraction
// of the allocation each collides with, and N is the thermal noise
// power. occ[j] is cell j's occupied-PRB count this TTI; a nil occ
// treats every interferer as fully loaded. It is exactly 0 when the
// interferer set is empty (separate carriers, a single cell, or no PRB
// overlap), which is what keeps single-cell and separate-carrier
// serving byte-identical to the legacy SNR path.
func (l *Links) PenaltyDB(i, serving int, alloc PRBInterval, occ []int) float64 {
	if l.mw == nil || alloc.N <= 0 {
		return 0
	}
	var imw float64
	for j, p := range l.mw[i*l.cells : (i+1)*l.cells] {
		if j == serving {
			continue
		}
		frac := 1.0
		if occ != nil {
			ov := overlapPRBs(alloc, occ[j])
			if ov == 0 {
				continue
			}
			frac = float64(ov) / float64(alloc.N)
		}
		imw += frac * p
	}
	return l.penaltyDB(imw)
}

// WidebandSINRdB is the whole-band SINR row i would report against cell
// serving, with each interferer weighted by its band occupancy
// (occ[j]/prbs as an activity factor; nil occ = fully loaded). Handover
// measurements and placement scoring use it: it needs no allocation,
// only the load picture.
func (l *Links) WidebandSINRdB(i, serving int, occ []int, prbs int) float64 {
	snr := l.SNRdB(i, serving)
	if l.mw == nil {
		return snr
	}
	var imw float64
	for j, p := range l.mw[i*l.cells : (i+1)*l.cells] {
		if j == serving {
			continue
		}
		frac := 1.0
		if occ != nil && prbs > 0 {
			if occ[j] <= 0 {
				continue
			}
			frac = float64(occ[j]) / float64(prbs)
		}
		imw += frac * p
	}
	return snr - l.penaltyDB(imw)
}

// overlapPRBs returns how many PRBs of alloc fall inside [0, occ) —
// the PRBs on which a cell that scheduled occ PRBs (filled from 0)
// collides with the allocation.
func overlapPRBs(alloc PRBInterval, occ int) int {
	hi := alloc.Start + alloc.N
	if occ < hi {
		hi = occ
	}
	if n := hi - alloc.Start; n > 0 {
		return n
	}
	return 0
}

// PenaltyDB is Links.PenaltyDB for one UE at ue.
func (g *Graph) PenaltyDB(serving int, ue geom.Vec2, alloc PRBInterval, occ []int) float64 {
	var buf [2 * rowCells]float64
	l := g.row(ue, &buf)
	return l.PenaltyDB(0, serving, alloc, occ)
}

// SINRdB is the RB-granular downlink SINR of an allocation: the
// serving-cell SNR minus the interference penalty. With an empty
// interferer set the penalty is exactly 0, so it returns the serving
// SNR unchanged (bitwise), and it can never exceed it — the penalty is
// non-negative.
func (g *Graph) SINRdB(serving int, ue geom.Vec2, alloc PRBInterval, occ []int) float64 {
	var buf [2 * rowCells]float64
	l := g.row(ue, &buf)
	return l.SNRdB(0, serving) - l.PenaltyDB(0, serving, alloc, occ)
}

// WidebandSINRdB is Links.WidebandSINRdB for one UE at ue.
func (g *Graph) WidebandSINRdB(serving int, ue geom.Vec2, occ []int, prbs int) float64 {
	var buf [2 * rowCells]float64
	l := g.row(ue, &buf)
	return l.WidebandSINRdB(0, serving, occ, prbs)
}

// BestCell returns the cell with the highest load-biased wideband SINR
// towards ue: score(j) = WidebandSINR(j) − loadBiasDB·load[j]. Ties
// break to the lowest index. It is the load-aware cell-selection rule
// shared by initial association and idle reselection.
func (g *Graph) BestCell(ue geom.Vec2, load []int, loadBiasDB float64) int {
	var buf [2 * rowCells]float64
	l := g.row(ue, &buf)
	best, bestScore := 0, math.Inf(-1)
	for j := range g.Cells {
		score := l.WidebandSINRdB(0, j, nil, 0)
		if load != nil {
			score -= loadBiasDB * float64(load[j])
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}
