package sim

import (
	"fmt"
	"math"

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
	"repro/internal/uav"
	"repro/internal/ue"
)

// MultiCell is the serving world: N airborne eNodeBs on one EPC core,
// an interference graph over their shared (or separate) carrier, an A3
// handover engine, and the one serving loop. A single UAV is its
// one-cell case — World embeds a one-cell MultiCell and parks the cell
// at the UAV's position when a serving phase starts. With one cell (or
// the separate-carrier plan) every interference penalty is exactly
// zero, so the same loop serves a lone UAV and a fleet without forking
// the numbers.
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
	Workers int

	// Tracer, when non-nil, receives serving statistics and handovers
	// (and, on a World, decimated flight telemetry).
	Tracer *trace.Recorder
	// Faults is the fault injector; nil without an active schedule.
	Faults *fault.Injector

	// Serving maps UE index to its current serving cell.
	Serving []int
	// Mobile, when true, steps UE mobility every 10 ms measurement
	// tick during serving phases and re-evaluates every UE's link row
	// on each tick. When false nothing moves while serving, so each
	// UE's row is evaluated once per phase.
	Mobile bool

	// Capture, when non-nil, records every serving phase's arrivals and
	// phase-start UE positions for later replay. It never changes the
	// run: a capturing run and a plain run produce byte-identical KPIs.
	Capture *traffic.Capture

	Clock float64 // simulated seconds

	// replay holds the loaded trace when serving with Mode = replay
	// (preloaded via SetReplayTrace or lazily from Spec.TraceFile).
	replay *traffic.Trace

	rng      *detrand.Rand // measurement noise, SRS channels
	mrng     *detrand.Rand // mobility
	placeRNG *detrand.Rand // k-means seeding for fleet placement

	// servePhase counts serving phases so each one's arrival processes
	// draw from fresh (but reproducible) streams.
	servePhase uint64
	imsis      []epc.IMSI // per UE index, provisioned once in NewMultiCell
	// ctxs holds each UE's context, by UE index, in whichever cell
	// serves it: set at attach, on every transfer and after Restore.
	ctxs []*enb.UEContext

	// legacyBits is a test hook: when set, every cell commits with the
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
		ctxs:     make([]*enb.UEContext, len(ues)),
	}
	for c := range m.Cells {
		m.Cells[c] = enb.New(num, core)
	}
	start := cfg.Terrain.Bounds().Center().WithZ(uav.DefaultConfig().MaxAltitudeM)
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
		ctx, err := m.Cells[cell].Attach(i, imsi, key, uint64(u.ID)+cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("sim: attaching UE %d: %w", u.ID, err)
		}
		m.ctxs[i] = ctx
		m.Serving[i] = cell
		load[cell]++
	}
	return m, nil
}

// imsisFor derives every UE's IMSI from its ID, in UE index order.
func imsisFor(ues []*ue.UE) []epc.IMSI {
	out := make([]epc.IMSI, len(ues))
	for i, u := range ues {
		out[i] = epc.IMSI(fmt.Sprintf("00101%010d", u.ID))
	}
	return out
}

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
	alt := uav.DefaultConfig().MaxAltitudeM
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
		from, best := m.Serving[i], m.Graph.BestCell(u.Pos, load, m.HO.Cfg.LoadBiasDB)
		if best == from {
			continue
		}
		if err := m.transfer(i, best); err != nil {
			return err
		}
		load[from]--
		load[best]++
		m.HO.Reset(i)
	}
	return nil
}

// transfer executes the X2 context move of UE i to cell `to`, and
// makes `to` its serving cell.
func (m *MultiCell) transfer(i, to int) error {
	hc, err := m.Cells[m.Serving[i]].ReleaseForHandover(m.ctxs[i])
	if err != nil {
		return err
	}
	before := hc.QueuedBytes
	ctx, err := m.Cells[to].AdoptForHandover(hc)
	if err != nil {
		return err
	}
	if hc.Bearer.QueuedBytes() != before {
		return fmt.Errorf("sim: UE %d lost queued bytes in transfer: %d -> %d", m.UEs[i].ID, before, hc.Bearer.QueuedBytes())
	}
	m.ctxs[i], m.Serving[i] = ctx, to
	return nil
}

// churnedSNRdB is the channel report a churned-out UE produces: far
// below any decodable CQI, so the scheduler deallocates it until the
// outage ends.
const churnedSNRdB = -30

// fillLinks evaluates every UE's link row over g's cells.
func (m *MultiCell) fillLinks(g *interference.Graph, links *interference.Links) {
	for i, u := range m.UEs {
		g.Fill(links, i, u.Pos)
	}
}

// reportTick runs one 10 ms measurement tick: optional mobility, noisy
// serving-cell reports — the row's serving SNR plus one normal draw per
// UE in index order; churned or interrupted UEs report an undecodable
// channel but still consume their draw — then the A3 sweep with any
// triggered handovers executed inline. links holds each UE's link row:
// a mobile world steps its UEs and refills every row from moving, a
// copy of the graph that bypasses the obstruction cache.
func (m *MultiCell) reportTick(now, dt, tRel float64, plan *fault.ServePlan, links *interference.Links, moving *interference.Graph) error {
	if m.Mobile {
		for _, u := range m.UEs {
			u.Step(dt, m.mrng.Rand)
		}
		m.fillLinks(moving, links)
	}
	for i := range m.UEs {
		s := links.SNRdB(i, m.Serving[i]) + m.rng.NormFloat64()*measNoiseDB
		if plan.ChurnedOut(i, tRel) || m.HO.Interrupted(i, now) {
			s = churnedSNRdB
		}
		m.ctxs[i].ReportSNR(s)
	}
	if m.NCells < 2 {
		return nil
	}
	load := m.CellLoad()
	scores := make([]float64, m.NCells)
	for i := range m.UEs {
		if plan.ChurnedOut(i, tRel) {
			m.HO.Reset(i)
			continue
		}
		for j := range scores {
			scores[j] = links.WidebandSINRdB(i, j, nil, 0) - m.HO.Cfg.LoadBiasDB*float64(load[j])
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
		m.HO.Complete(i, now, from, target)
		if m.Tracer != nil {
			m.Tracer.Emit(trace.Record{Kind: trace.KindHandover, T: now, UE: m.UEs[i].ID, FromCell: from, ToCell: target})
		}
	}
	return nil
}

// bitsFor builds cell c's interference-degraded bit mapping, which
// reads every cell's PRB occupancy from occ as each TTI fills it and
// each UE's interferer powers from its link row. With the separate plan
// or no PRB overlap the penalty is exactly 0 and the mapping returns
// the legacy CQI rate bit for bit. A lone cell has no interferer and
// commits at the plain CQI rate (nil).
func (m *MultiCell) bitsFor(c int, occ []int, links *interference.Links) func(enb.Alloc) float64 {
	if m.NCells == 1 || m.legacyBits {
		return nil
	}
	return func(a enb.Alloc) float64 {
		pen := links.PenaltyDB(a.UE, c, interference.PRBInterval{Start: a.Start, N: a.N}, occ)
		return enb.BitsPerPRBTTIDegraded(a.CQI, pen) * float64(a.N)
	}
}

// runTTI runs one scheduling interval on every cell: each cell plans
// and records its PRB occupancy in occ, then each commits its plan with
// its bit mapping from bitsFor. grant (when non-nil) receives each
// served UE's bits. No context moves inside the TTI: handovers run in
// the report tick.
func (m *MultiCell) runTTI(occ []int, bits []func(enb.Alloc) float64, grant func(ue int, bits float64)) {
	for c, cell := range m.Cells {
		occ[c] = cell.PlanTTI()
	}
	for c, cell := range m.Cells {
		cell.CommitTTI(bits[c], grant)
	}
}

// reportEvery returns how many TTI steps sit between 10 ms measurement
// ticks for the given stride — the legacy cadence.
func reportEvery(ttiStride int) int { return 10 / min(10, ttiStride) }

// packetPhase is the traffic side of a packet serving phase: where the
// arrivals come from, the capture recording them (nil unless
// capturing), and the KPI collector.
type packetPhase struct {
	gen traffic.Stream
	rec *traffic.Capture
	col *traffic.Collector
}

// serve is the one serving loop. Each 10 ms report tick refreshes the
// channel reports and runs the A3 sweep; each TTI then enqueues the
// sizes of the arrivals due before its end into the bearers, and runs
// the schedulers, whose grants drain the bearers. A nil pk is a
// full-buffer phase: nothing arrives and the grants are the goodput.
func (m *MultiCell) serve(seconds float64, ttiStride int, plan *fault.ServePlan, pk *packetPhase) error {
	// After any replay has placed the UEs, and with the cells parked for
	// the phase (see DESIGN "Frozen hover"): every SNR, A3 score and
	// penalty of the phase reads these rows, and only a mobile world's
	// report ticks change them.
	links := m.Graph.NewLinks(len(m.UEs))
	m.fillLinks(m.Graph, links)
	var moving *interference.Graph
	if m.Mobile {
		g := *m.Graph
		g.Model = m.Graph.Model.Uncached()
		moving = &g
	}
	occ := make([]int, m.NCells)
	bits := make([]func(enb.Alloc) float64, m.NCells)
	for c := range bits {
		bits[c] = m.bitsFor(c, occ, links)
	}
	start := m.Clock
	tti := float64(ttiStride) / 1000
	steps := int(seconds * 1000 / float64(ttiStride))
	every := reportEvery(ttiStride)
	dt := float64(every) * tti
	for s := 0; s < steps; s++ {
		// Packet phases read event time as start + s·tti, full-buffer
		// phases as the running clock. The two can differ in the last
		// bit, which moves handover timing, so each keeps its reading.
		now := m.Clock
		if pk != nil {
			now = start + float64(s)*tti
		}
		if s%every == 0 {
			if err := m.reportTick(now, dt, float64(s)*tti, plan, links, moving); err != nil {
				return err
			}
		}
		var grant func(int, float64)
		if pk != nil {
			// Enqueue everything arriving during this TTI before its grants.
			m.enqueue(pk, plan, start, float64(s+1)*tti)
			done := now + tti
			grant = func(i int, bits float64) {
				for _, d := range m.ctxs[i].Bearer().Credit(bits * float64(ttiStride)) {
					pk.col.Delivered(i, d.Bytes, done-d.EnqueuedAt)
				}
			}
		}
		m.runTTI(occ, bits, grant)
		m.Clock += tti
	}
	return nil
}

// enqueue offers every arrival before limit (phase-relative seconds)
// to its UE's bearer.
func (m *MultiCell) enqueue(pk *packetPhase, plan *fault.ServePlan, start, limit float64) {
	for {
		a, ok := pk.gen.Pop(limit)
		if !ok {
			return
		}
		// Capture upstream of the fault plan and the bearer path: the
		// trace records the offered workload itself, and replay re-runs
		// faults and queueing against the same derived streams.
		if pk.rec != nil {
			pk.rec.Arrival(a)
		}
		pk.col.Offered(a.UE, a.Bytes)
		// Serving-phase faults act on the S1-U leg: a packet for a
		// churned-out UE or one landing in a loss window never
		// reaches the bearer; a duplicated packet reaches it twice.
		if plan.ChurnedOut(a.UE, a.T) {
			pk.col.FaultDropped(a.UE, a.Bytes)
			plan.NoteChurnDrop()
			continue
		}
		if plan.DropGTPU(a.UE, a.T) {
			pk.col.FaultDropped(a.UE, a.Bytes)
			continue
		}
		copies := 1
		if plan.DupGTPU(a.UE) {
			copies = 2
			pk.col.Duplicated(a.UE, a.Bytes)
		}
		for c := 0; c < copies; c++ {
			if c == 1 {
				pk.col.Offered(a.UE, a.Bytes)
			}
			if !m.ctxs[a.UE].Bearer().Enqueue(a.Bytes, start+a.T) {
				pk.col.Dropped(a.UE, a.Bytes)
			}
		}
	}
}

// ServeSeconds hovers serving full-buffer traffic for the given
// simulated duration: SNR reports refresh every 10 ms (with mobility
// and handovers on a mobile fleet) and the schedulers run every TTI.
// It returns the per-UE served bits during the interval. ttiStride > 1
// trades accuracy for speed by running one TTI per stride milliseconds
// and scaling the credit. UEs inside a churn outage report an
// undecodable channel (CQI 0), so the scheduler starves them until
// they rejoin.
func (m *MultiCell) ServeSeconds(seconds float64, ttiStride int) ([]float64, error) {
	if ttiStride < 1 {
		ttiStride = 1
	}
	var plan *fault.ServePlan
	if m.Faults != nil {
		plan = m.Faults.NewServePlan(m.Cfg.Seed, m.servePhase, len(m.UEs), seconds)
		m.servePhase++
	}
	startBits := make([]float64, len(m.UEs))
	for i := range m.UEs {
		startBits[i] = m.ctxs[i].ServedBits()
	}
	if err := m.serve(seconds, ttiStride, plan, nil); err != nil {
		return nil, err
	}
	out := make([]float64, len(m.UEs))
	for i := range m.UEs {
		out[i] = (m.ctxs[i].ServedBits() - startBits[i]) * float64(ttiStride)
		if m.Tracer != nil {
			m.Tracer.Emit(trace.Record{Kind: trace.KindServe, T: m.Clock, UE: m.UEs[i].ID, Value: out[i]})
		}
	}
	return out, nil
}

// ServeTraffic hovers serving the given workload: a seeded per-UE
// arrival process (or a recorded trace, in replay mode) offers
// downlink packets, by size, into each UE's bearer, the schedulers run
// every TTI, and their grants drain the bearers packet by packet. It
// returns the per-UE KPI report (throughput, queueing delay, loss; on
// a fleet also each UE's cell and handover count). Handovers triggered
// by the 10 ms A3 sweep move live contexts between cells mid-phase;
// the bearer (and its in-flight bytes) moves with the UE, so
// offered/delivered/dropped packet accounting is conserved across
// handovers by construction.
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
func (m *MultiCell) ServeTraffic(seconds float64, ttiStride int, spec traffic.Spec) (*traffic.Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if ttiStride < 1 {
		ttiStride = 1
	}
	ids := make([]int, len(m.UEs))
	startHO := make([]uint64, len(m.UEs))
	for i, u := range m.UEs {
		ids[i] = u.ID
		startHO[i] = m.HO.UESuccesses(i)
	}

	if spec.Model == traffic.ModelFullBuffer && spec.Mode != traffic.ModeReplay {
		bits, err := m.ServeSeconds(seconds, ttiStride)
		if err != nil {
			return nil, err
		}
		col := traffic.NewCollector(spec.Model, ids)
		for i, b := range bits {
			col.FullBufferServed(i, b)
		}
		rep := col.Report(seconds, nil, nil)
		m.stampCells(rep, startHO)
		m.emitTraffic(rep, false) // ServeSeconds already emitted KindServe
		return rep, nil
	}

	phase := m.servePhase
	m.servePhase++
	var plan *fault.ServePlan
	if m.Faults != nil {
		plan = m.Faults.NewServePlan(m.Cfg.Seed, phase, len(m.UEs), seconds)
	}
	pk := &packetPhase{rec: m.Capture}
	model := spec.Model
	if spec.Mode == traffic.ModeReplay {
		ph, err := m.replayPhase(spec, phase, seconds)
		if err != nil {
			return nil, err
		}
		model, pk.gen, pk.rec = m.replay.Spec.Model, ph.Stream(), nil
	} else {
		pk.gen = traffic.NewGenerator(traffic.NewSources(spec, ids, m.Cfg.Seed+0x9e3779b97f4a7c15*phase, seconds))
	}
	pk.col = traffic.NewCollector(model, ids)
	if pk.rec != nil {
		ues := make([]traffic.TraceUE, len(m.UEs))
		for i, u := range m.UEs {
			ues[i] = traffic.TraceUE{ID: u.ID, X: u.Pos.X, Y: u.Pos.Y}
		}
		pk.rec.BeginPhase(seconds, ues)
	}

	// Under fault injection the report carries each UE's starved-TTI
	// delta (scheduler TTIs spent undecodable with data queued) — the
	// eNodeB-side view of churn and loss windows.
	var startStarved []uint64
	if m.Faults != nil {
		startStarved = make([]uint64, len(m.UEs))
		for i := range m.UEs {
			startStarved[i] = m.ctxs[i].StarvedTTIs()
		}
	}

	if err := m.serve(seconds, ttiStride, plan, pk); err != nil {
		return nil, err
	}

	backlog := make([]int, len(m.UEs))
	peak := make([]int, len(m.UEs))
	for i, ctx := range m.ctxs {
		backlog[i] = ctx.Bearer().QueuedPackets()
		peak[i] = ctx.Bearer().PeakQueue()
	}
	if startStarved != nil {
		for i, ctx := range m.ctxs {
			pk.col.Starved(i, ctx.StarvedTTIs()-startStarved[i])
		}
	}
	rep := pk.col.Report(seconds, backlog, peak)
	m.stampCells(rep, startHO)
	m.emitTraffic(rep, true)
	return rep, nil
}

// SetReplayTrace preloads the trace used when serving with
// Spec.Mode = replay, bypassing the lazy TraceFile load. Scenario runs
// preload so fingerprint verification happens before any simulation.
func (m *MultiCell) SetReplayTrace(tr *traffic.Trace) { m.replay = tr }

// replayPhase resolves the recorded phase for the current serve-phase
// counter: it lazily loads Spec.TraceFile on first use, checks the
// phase's duration, UE field (IDs, and positions on the terrain) and
// arrivals against the live run, and moves every UE to its recorded
// phase-start position so the radio streams see the same geometry the
// capturing run did.
func (m *MultiCell) replayPhase(spec traffic.Spec, phase uint64, seconds float64) (*traffic.TracePhase, error) {
	if m.replay == nil {
		tr, err := traffic.ReadTraceFile(spec.TraceFile)
		if err != nil {
			return nil, err
		}
		m.replay = tr
	}
	ph, err := m.replay.Phase(phase)
	if err != nil {
		return nil, err
	}
	if ph.Seconds != seconds {
		return nil, fmt.Errorf("sim: replay phase %d recorded %gs, run serves %gs", phase, ph.Seconds, seconds)
	}
	if len(ph.UEs) != len(m.UEs) {
		return nil, fmt.Errorf("sim: replay phase %d recorded %d UEs, world has %d", phase, len(ph.UEs), len(m.UEs))
	}
	// The container CRC proves the file intact, not the arrivals sane:
	// each must name a recorded UE, carry a packet size the generators
	// can emit, and keep pop order inside the phase.
	prev := 0.0
	for k, a := range ph.Arrivals {
		if a.UE < 0 || a.UE >= len(ph.UEs) || a.Bytes < 1 || a.Bytes > traffic.MaxPacketBytes ||
			math.IsNaN(a.T) || a.T < prev || a.T >= seconds {
			return nil, fmt.Errorf("sim: replay phase %d arrival %d (UE index %d, %d bytes at %gs) is outside the recorded phase",
				phase, k, a.UE, a.Bytes, a.T)
		}
		prev = a.T
	}
	for i, tu := range ph.UEs {
		if m.UEs[i].ID != tu.ID {
			return nil, fmt.Errorf("sim: replay phase %d UE index %d recorded ID %d, world has %d",
				phase, i, tu.ID, m.UEs[i].ID)
		}
		if !m.Cfg.Terrain.Bounds().Contains(geom.V2(tu.X, tu.Y)) {
			return nil, fmt.Errorf("sim: replay phase %d UE %d recorded position (%g, %g) is off the terrain", phase, tu.ID, tu.X, tu.Y)
		}
		m.UEs[i].Pos = geom.V2(tu.X, tu.Y)
	}
	return ph, nil
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

// FaultCounts returns the cumulative injected-fault and degradation
// counters (zero without an active injector).
func (m *MultiCell) FaultCounts() fault.Counts { return m.Faults.Counts() }

// emitTraffic publishes per-UE traffic KPIs to the tracer. withServe
// additionally emits the KindServe records (delivered bits) for paths
// that did not already go through ServeSeconds.
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
