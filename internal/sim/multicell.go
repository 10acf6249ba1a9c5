package sim

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/epc"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/ltephy"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/traj"
	"repro/internal/ue"
)

// MultiCell is the cooperative fleet world: N airborne eNodeBs on one
// EPC core, an interference graph over their shared (or separate)
// carrier, an A3 handover engine, and a serving loop that mirrors
// World.ServeTraffic in RNG consumption and arithmetic. The mirroring
// is the point: with a single cell (or the separate-carrier plan) every
// interference penalty is exactly zero and every RNG stream is consumed
// in the same order, so the reports are byte-identical to the legacy
// single-UAV path — the new subsystem extends the world without forking
// its numbers. It does not mirror where the SNR is computed: World
// evaluates each UE's true SNR once per (frozen) hover, while MultiCell
// evaluates it on every report tick because its UEs may move.
type MultiCell struct {
	Cfg     Config
	NCells  int
	Radio   *radio.Model
	UEs     []*ue.UE
	Num     ltephy.Numerology
	Core    *epc.Core
	Cells   []*enb.ENodeB
	Graph   *interference.Graph
	HO      *enb.HandoverEngine
	Tracer  *trace.Recorder
	Faults  *fault.Injector
	Workers int

	// Serving maps UE index to its current serving cell.
	Serving []int
	// Mobile, when true, steps UE mobility every 10 ms measurement
	// tick during serving phases (the legacy world keeps UEs frozen
	// while hovering; handovers need them to move).
	Mobile bool

	Clock float64

	rng      *detrand.Rand // measurement noise (same stream id as World)
	mrng     *detrand.Rand // mobility
	placeRNG *detrand.Rand // k-means seeding for fleet placement

	servePhase uint64
	imsis      []epc.IMSI // per UE index, provisioned once in NewMultiCell

	// legacyBits is a test hook: when set, CommitTTI runs with the
	// interference-free bit mapping, giving the pre-SINR arithmetic to
	// golden-diff the degraded path against.
	legacyBits bool
}

// NewMultiCell builds a fleet world: n cells placed deterministically
// (the single-cell fleet parks at the legacy spot — area centre, max
// altitude; larger fleets start on k-means centroids of the UE field
// refined by max-min SINR descent), every UE attached in index order
// to its load-aware best cell. workers bounds the placement fan-out
// and never changes results.
func NewMultiCell(cfg Config, n int, plan interference.Plan, ho enb.HandoverConfig, ues []*ue.UE, workers int) (*MultiCell, error) {
	if cfg.Terrain == nil {
		return nil, fmt.Errorf("sim: Config.Terrain is required")
	}
	if n < 1 {
		return nil, fmt.Errorf("sim: fleet needs at least one cell, got %d", n)
	}
	cfg.defaults()
	model := radio.NewModel(cfg.Terrain, cfg.RadioParams, cfg.Seed)
	num := ltephy.LTE10MHz()
	hss := epc.NewHSS()
	core := epc.NewCore(hss)

	m := &MultiCell{
		Cfg:      cfg,
		NCells:   n,
		Radio:    model,
		UEs:      ues,
		Num:      num,
		Core:     core,
		Cells:    make([]*enb.ENodeB, n),
		HO:       enb.NewHandoverEngine(ho, len(ues), n),
		Faults:   fault.New(cfg.Faults, int64(cfg.Seed)),
		Workers:  workers,
		Serving:  make([]int, len(ues)),
		rng:      detrand.New(int64(cfg.Seed) + 202),
		mrng:     detrand.New(int64(cfg.Seed) + 303),
		placeRNG: detrand.New(int64(cfg.Seed) + 41),
		imsis:    imsisFor(ues),
	}
	for c := range m.Cells {
		m.Cells[c] = enb.New(num, core, cfg.Scheduler)
	}
	start := cfg.Terrain.Bounds().Center().WithZ(cfg.UAVConfig.MaxAltitudeM)
	cells := make([]geom.Vec3, n)
	for c := range cells {
		cells[c] = start
	}
	m.Graph = interference.NewGraph(plan, model, cells)
	if n > 1 {
		if err := m.PlaceCells(); err != nil {
			return nil, err
		}
	}

	load := make([]int, n)
	for i, u := range ues {
		imsi := m.imsis[i]
		var key [16]byte
		key[0] = byte(u.ID)
		key[15] = byte(u.ID >> 8)
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key, QoSClass: 9})
		cell := 0
		if n > 1 {
			cell = m.Graph.BestCell(u.Pos, load, ho.LoadBiasDB)
		}
		if _, err := m.Cells[cell].Attach(imsi, key, uint64(u.ID)+cfg.Seed); err != nil {
			return nil, fmt.Errorf("sim: attaching UE %d: %w", u.ID, err)
		}
		m.Serving[i] = cell
		load[cell]++
	}
	return m, nil
}

// IMSIOf returns the IMSI provisioned for the i-th UE.
func (m *MultiCell) IMSIOf(i int) epc.IMSI { return m.imsis[i] }

// CellOf returns UE i's current serving cell.
func (m *MultiCell) CellOf(i int) int { return m.Serving[i] }

// CellLoad returns the number of UEs served by each cell.
func (m *MultiCell) CellLoad() []int {
	load := make([]int, m.NCells)
	for _, c := range m.Serving {
		load[c]++
	}
	return load
}

// PlaceCells recomputes the fleet placement for the current UE field:
// k-means centroids (seeded from the dedicated placement stream, so
// measurement and mobility streams are untouched) lifted to maximum
// altitude, refined by max-min SINR coordinate descent. The single-cell
// fleet keeps the legacy spot untouched.
func (m *MultiCell) PlaceCells() error {
	if m.NCells < 2 {
		return nil
	}
	pts := make([]geom.Vec2, len(m.UEs))
	for i, u := range m.UEs {
		pts[i] = u.Pos
	}
	centers := traj.KMeans(pts, m.NCells, m.placeRNG.Rand)
	alt := m.Cfg.UAVConfig.MaxAltitudeM
	for c, ctr := range centers {
		m.Graph.SetCell(c, ctr.WithZ(alt))
	}
	_, err := interference.PlaceMaxMinSINR(m.Graph, pts, m.Cfg.Terrain.Bounds(), 40, 8, m.Workers)
	return err
}

// AvgThroughputBps mirrors World.AvgThroughputAt for the fleet: the
// mean over UEs of the PHY throughput at the fully-loaded wideband
// SINR from each UE's serving cell.
func (m *MultiCell) AvgThroughputBps() float64 {
	if len(m.UEs) == 0 {
		return 0
	}
	var sum float64
	for i, u := range m.UEs {
		sum += m.Num.ThroughputBps(m.Graph.WidebandSINRdB(m.Serving[i], u.Pos, nil, 0))
	}
	return sum / float64(len(m.UEs))
}

// MinSINRdB is the fleet's current max-min SINR objective value.
func (m *MultiCell) MinSINRdB() float64 {
	pts := make([]geom.Vec2, len(m.UEs))
	for i, u := range m.UEs {
		pts[i] = u.Pos
	}
	return m.Graph.MinSINRdB(pts)
}

// Reselect re-runs load-aware cell selection for every UE in index
// order (idle-mode reselection at an epoch boundary, not a handover:
// no A3 event, no handover KPIs). The context transfer is the same
// zero-loss X2 path the handover uses.
func (m *MultiCell) Reselect() error {
	if m.NCells < 2 {
		return nil
	}
	load := m.CellLoad()
	for i, u := range m.UEs {
		best := m.Graph.BestCell(u.Pos, load, m.HO.Cfg.LoadBiasDB)
		if best == m.Serving[i] {
			continue
		}
		if err := m.transfer(i, best); err != nil {
			return err
		}
		load[m.Serving[i]]--
		load[best]++
		m.Serving[i] = best
		m.HO.Reset(i)
	}
	return nil
}

// transfer executes the X2 context move of UE i to cell `to`.
func (m *MultiCell) transfer(i, to int) error {
	hc, err := m.Cells[m.Serving[i]].ReleaseForHandover(m.IMSIOf(i))
	if err != nil {
		return err
	}
	before := hc.QueuedBytes
	if _, err := m.Cells[to].AdoptForHandover(hc); err != nil {
		return err
	}
	if hc.Bearer != nil && hc.Bearer.QueuedBytes() != before {
		return fmt.Errorf("sim: UE %d lost queued bytes in transfer: %d -> %d", m.UEs[i].ID, before, hc.Bearer.QueuedBytes())
	}
	return nil
}

// measuredSNR is the UE's noisy wideband report against its serving
// cell — one normal draw per UE per tick, exactly like World.
func (m *MultiCell) measuredSNR(i int) float64 {
	return m.Graph.SNRdB(m.Serving[i], m.UEs[i].Pos) + m.rng.NormFloat64()*m.Cfg.MeasNoiseDB
}

// reportTick runs one 10 ms measurement tick: optional mobility, noisy
// serving-cell reports (churned or interrupted UEs report an
// undecodable channel but still consume their noise draw, keeping the
// stream aligned with the legacy world), then the A3 sweep with any
// triggered handovers executed inline.
func (m *MultiCell) reportTick(now, dt, tRel float64, plan *fault.ServePlan) error {
	if m.Mobile {
		for _, u := range m.UEs {
			u.Step(dt, m.mrng.Rand)
		}
	}
	for i := range m.UEs {
		snr := m.measuredSNR(i)
		if plan.ChurnedOut(i, tRel) || m.HO.Interrupted(i, now) {
			snr = churnedSNRdB
		}
		m.Cells[m.Serving[i]].ReportSNR(m.IMSIOf(i), snr)
	}
	if m.NCells < 2 {
		return nil
	}
	load := m.CellLoad()
	scores := make([]float64, m.NCells)
	for i, u := range m.UEs {
		if plan.ChurnedOut(i, tRel) {
			m.HO.Reset(i)
			continue
		}
		for j := 0; j < m.NCells; j++ {
			scores[j] = m.Graph.WidebandSINRdB(j, u.Pos, nil, 0) - m.HO.Cfg.LoadBiasDB*float64(load[j])
		}
		target, fire := m.HO.Evaluate(i, now, dt, m.Serving[i], scores)
		if !fire {
			continue
		}
		from := m.Serving[i]
		if err := m.transfer(i, target); err != nil {
			return err
		}
		load[from]--
		load[target]++
		m.Serving[i] = target
		m.HO.Complete(i, now, from, target)
		if m.Tracer != nil {
			m.Tracer.Emit(trace.Record{Kind: trace.KindHandover, T: now, UE: m.UEs[i].ID, FromCell: from, ToCell: target})
		}
	}
	return nil
}

// bitsFor builds cell c's interference-degraded bit mapping for one
// TTI given every cell's PRB occupancy. With one cell, the separate
// plan, or no PRB overlap the penalty is exactly 0 and the mapping
// returns the legacy CQI rate bit for bit.
func (m *MultiCell) bitsFor(c int, index map[epc.IMSI]int, occ []int) func(enb.Alloc) float64 {
	if m.legacyBits {
		return nil
	}
	return func(a enb.Alloc) float64 {
		if a.N == 0 {
			return 0
		}
		i := index[a.IMSI]
		pen := m.Graph.PenaltyDB(c, m.UEs[i].Pos, interference.PRBInterval{Start: a.Start, N: a.N}, occ)
		return enb.BitsPerPRBTTIDegraded(a.CQI, pen) * float64(a.N)
	}
}

// runTTI plans every cell, derives the fleet PRB occupancy, and
// commits each cell's allocations with interference-degraded bits.
func (m *MultiCell) runTTI(index map[epc.IMSI]int, grant func(cell int, imsi epc.IMSI, bits float64)) {
	plans := make([]*enb.TTIPlan, m.NCells)
	occ := make([]int, m.NCells)
	for c := range m.Cells {
		plans[c] = m.Cells[c].PlanTTI()
		occ[c] = plans[c].OccupiedPRBs()
	}
	for c := range m.Cells {
		var g func(epc.IMSI, float64)
		if grant != nil {
			cc := c
			g = func(imsi epc.IMSI, bits float64) { grant(cc, imsi, bits) }
		}
		m.Cells[c].CommitTTI(plans[c], m.bitsFor(c, index, occ), g)
	}
}

// imsiIndex maps every UE's IMSI to its index.
func (m *MultiCell) imsiIndex() map[epc.IMSI]int {
	index := make(map[epc.IMSI]int, len(m.UEs))
	for i := range m.UEs {
		index[m.IMSIOf(i)] = i
	}
	return index
}

// servedBits returns UE i's cumulative served bits (wherever its
// context currently lives).
func (m *MultiCell) servedBits(i int) float64 {
	return m.Cells[m.Serving[i]].ServedBits(m.IMSIOf(i))
}

// reportEvery returns how many TTI steps sit between 10 ms measurement
// ticks for the given stride — the legacy cadence.
func reportEvery(ttiStride int) int { return 10 / min(10, ttiStride) }

// ServeSeconds mirrors World.ServeSeconds for the fleet: hover, 10 ms
// report ticks (with mobility and handovers), interference-degraded
// TTIs, per-UE served bits out.
func (m *MultiCell) ServeSeconds(seconds float64, ttiStride int) ([]float64, error) {
	var plan *fault.ServePlan
	if m.Faults != nil {
		plan = m.Faults.NewServePlan(m.Cfg.Seed, m.servePhase, len(m.UEs), seconds)
		m.servePhase++
	}
	return m.serveSeconds(seconds, ttiStride, plan)
}

func (m *MultiCell) serveSeconds(seconds float64, ttiStride int, plan *fault.ServePlan) ([]float64, error) {
	if ttiStride < 1 {
		ttiStride = 1
	}
	startBits := make([]float64, len(m.UEs))
	for i := range m.UEs {
		startBits[i] = m.servedBits(i)
	}
	index := m.imsiIndex()
	tti := float64(ttiStride) / 1000
	steps := int(seconds * 1000 / float64(ttiStride))
	every := reportEvery(ttiStride)
	dt := float64(every) * tti
	for s := 0; s < steps; s++ {
		if s%every == 0 {
			if err := m.reportTick(m.Clock, dt, float64(s)*tti, plan); err != nil {
				return nil, err
			}
		}
		m.runTTI(index, nil)
		m.Clock += tti
	}
	out := make([]float64, len(m.UEs))
	for i := range m.UEs {
		out[i] = (m.servedBits(i) - startBits[i]) * float64(ttiStride)
		if m.Tracer != nil {
			m.Tracer.Emit(trace.Record{Kind: trace.KindServe, T: m.Clock, UE: m.UEs[i].ID, Value: out[i]})
		}
	}
	return out, nil
}

// ServeTraffic mirrors World.ServeTraffic for the fleet: the same
// arrival generator, GTP-U fault handling, bearer crediting and KPI
// collection, with per-cell TTI planning and RB-overlap interference
// degrading the committed bits. Handovers triggered by the 10 ms A3
// sweep move live contexts between cells mid-phase; the bearer (and
// its in-flight bytes) moves with the UE, so offered/delivered/dropped
// packet accounting is conserved across handovers by construction.
func (m *MultiCell) ServeTraffic(seconds float64, ttiStride int, spec traffic.Spec) (*traffic.Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if ttiStride < 1 {
		ttiStride = 1
	}
	ids := make([]int, len(m.UEs))
	for i, u := range m.UEs {
		ids[i] = u.ID
	}
	col := traffic.NewCollector(spec.Model, ids)

	startHO := make([]uint64, len(m.UEs))
	for i := range m.UEs {
		startHO[i] = m.HO.UESuccesses(i)
	}

	if spec.Model == traffic.ModelFullBuffer {
		bits, err := m.ServeSeconds(seconds, ttiStride)
		if err != nil {
			return nil, err
		}
		for i, b := range bits {
			col.FullBufferServed(i, b)
		}
		rep := col.Report(seconds, nil, nil)
		m.stampCells(rep, startHO)
		m.emitTraffic(rep, false)
		return rep, nil
	}

	phase := m.servePhase
	m.servePhase++
	phaseSeed := m.Cfg.Seed + 0x9e3779b97f4a7c15*phase
	var plan *fault.ServePlan
	if m.Faults != nil {
		plan = m.Faults.NewServePlan(m.Cfg.Seed, phase, len(m.UEs), seconds)
	}
	gen := traffic.NewGenerator(traffic.NewSources(spec, ids, phaseSeed, seconds))

	// Bearer objects move between cells with their UE, so the slice
	// built here stays valid across handovers.
	bearers := make([]*enb.Bearer, len(m.UEs))
	index := m.imsiIndex()
	for i := range m.UEs {
		b, ok := m.Cells[m.Serving[i]].Bearer(m.IMSIOf(i))
		if !ok {
			return nil, fmt.Errorf("sim: UE %d has no bearer", m.UEs[i].ID)
		}
		bearers[i] = b
	}

	var startStarved []uint64
	if m.Faults != nil {
		startStarved = make([]uint64, len(m.UEs))
		for i := range m.UEs {
			startStarved[i] = m.Cells[m.Serving[i]].StarvedTTIs(m.IMSIOf(i))
		}
	}

	var scratch [65536]byte // zero payload template; only sizes matter
	start := m.Clock
	tti := float64(ttiStride) / 1000
	steps := int(seconds * 1000 / float64(ttiStride))
	every := reportEvery(ttiStride)
	dt := float64(every) * tti
	for s := 0; s < steps; s++ {
		now := start + float64(s)*tti
		if s%every == 0 {
			if err := m.reportTick(now, dt, float64(s)*tti, plan); err != nil {
				return nil, err
			}
		}
		// Enqueue everything arriving during this TTI before its grants.
		for {
			a, ok := gen.Pop(float64(s+1) * tti)
			if !ok {
				break
			}
			col.Offered(a.UE, a.Bytes)
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
					return nil, fmt.Errorf("sim: delivering to UE %d: %w", m.UEs[a.UE].ID, err)
				}
			}
		}
		done := now + tti
		m.runTTI(index, func(_ int, imsi epc.IMSI, bits float64) {
			i := index[imsi]
			for _, d := range bearers[i].CreditAt(bits*float64(ttiStride), done) {
				col.Delivered(i, len(d.Data), done-d.EnqueuedAt)
			}
		})
		m.Clock += tti
	}

	backlog := make([]int, len(bearers))
	peak := make([]int, len(bearers))
	for i, b := range bearers {
		backlog[i] = b.QueuedPackets()
		peak[i] = b.PeakQueue()
	}
	if startStarved != nil {
		for i := range m.UEs {
			col.Starved(i, m.Cells[m.Serving[i]].StarvedTTIs(m.IMSIOf(i))-startStarved[i])
		}
	}
	rep := col.Report(seconds, backlog, peak)
	m.stampCells(rep, startHO)
	m.emitTraffic(rep, true)
	return rep, nil
}

// stampCells fills the multi-cell KPI columns: the UE's serving cell
// (1-based, so the field stays off the wire in single-cell runs and
// legacy rows are byte-identical) and its handover count this phase.
func (m *MultiCell) stampCells(rep *traffic.Report, startHO []uint64) {
	if m.NCells < 2 {
		return
	}
	for i := range rep.KPIs {
		rep.KPIs[i].Cell = m.Serving[i] + 1
		rep.KPIs[i].Handovers = m.HO.UESuccesses(i) - startHO[i]
	}
}

// FaultCounts returns the cumulative injected-fault counters.
func (m *MultiCell) FaultCounts() fault.Counts { return m.Faults.Counts() }

// emitTraffic mirrors World.emitTraffic.
func (m *MultiCell) emitTraffic(rep *traffic.Report, withServe bool) {
	if m.Tracer == nil {
		return
	}
	for _, k := range rep.KPIs {
		if withServe {
			m.Tracer.Emit(trace.Record{Kind: trace.KindServe, T: m.Clock, UE: k.UE, Value: float64(k.DeliveredBytes) * 8})
		}
		m.Tracer.Emit(trace.Record{
			Kind: trace.KindTraffic, T: m.Clock, UE: k.UE,
			Value: k.ThroughputBps, DelayS: k.MeanDelayS, LossFrac: k.LossFrac,
		})
	}
}
