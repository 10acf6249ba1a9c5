package sim

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/enb"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/radio"
	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/ue"
)

func flatUEs(surf *terrain.Surface, n int) []*ue.UE {
	b := surf.Bounds()
	out := make([]*ue.UE, n)
	for i := 0; i < n; i++ {
		fx := (float64(i%4) + 0.5) / 4
		fy := (float64(i/4) + 0.5) / 4
		out[i] = ue.New(i+1, geom.V2(b.MinX+fx*b.Width(), b.MinY+fy*b.Height()))
	}
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Backward-compat golden: a single UAV is the one-cell fleet, so a
// World serving from its UAV must produce byte-identical KPI rows to a
// bare one-cell MultiCell parked at the same spot — World adds nothing
// of its own to a serving phase: not its construction (the UAV
// platform, the SRS chains), not the measurement stream it shares with
// its flights, not the hover that parks its cell. Two phases with the
// UEs moved in between, and an on-off case whose churn schedule drives
// CQI-0 reports and starved TTIs. Both worlds use the per-phase SNR
// cache; TestSNRCacheMatchesPerTick is the cache's oracle.
func TestSingleCellMatchesLegacyWorld(t *testing.T) {
	churn := &fault.Schedule{UEChurnRate: 0.6, UEChurnOutS: 0.8, GTPULossRate: 0.1, GTPUDupRate: 0.1}
	if err := churn.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		model  traffic.Model
		faults *fault.Schedule
	}{
		{traffic.ModelPoisson, nil},
		{traffic.ModelFullBuffer, nil},
		{traffic.ModelOnOff, churn},
	} {
		surf := terrain.ByName("FLAT", 11)
		cfg := Config{Terrain: surf, Seed: 11, FastRanging: true, Faults: tc.faults}
		w, err := New(cfg, flatUEs(surf, 6))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMultiCell(cfg, 1, interference.PlanCochannel, enb.DefaultHandoverConfig(), flatUEs(surf, 6), 1)
		if err != nil {
			t.Fatal(err)
		}
		spec := traffic.Spec{Model: tc.model, RateBps: 2e6}
		var starved uint64
		for phase := 0; phase < 2; phase++ {
			legacy, err := w.ServeTraffic(3, 10, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.ServeTraffic(3, 10, spec)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mustJSON(t, legacy), mustJSON(t, got); a != b {
				t.Errorf("%s phase %d: one-cell fleet diverged from the single-UAV world:\nworld %s\nfleet %s", tc.model, phase, a, b)
			}
			if w.Clock != m.Clock {
				t.Errorf("%s phase %d: clock diverged: %v vs %v", tc.model, phase, w.Clock, m.Clock)
			}
			starved += legacy.Summary.StarvedTTIs
			// Move every UE before the next phase, identically in both.
			for i := range w.UEs {
				d := geom.V2(float64(7*i%5)-2, float64(3*i%7)-3)
				w.UEs[i].Pos = w.UEs[i].Pos.Add(d)
				m.UEs[i].Pos = m.UEs[i].Pos.Add(d)
			}
		}
		if tc.faults != nil && starved == 0 {
			t.Errorf("%s: churn schedule starved no TTI; the fault path went unchecked", tc.model)
		}
	}
}

// server is the serving phase World and MultiCell share.
type server interface {
	ServeTraffic(seconds float64, ttiStride int, spec traffic.Spec) (*traffic.Report, error)
}

// TestSNRCacheMatchesPerTick is the oracle for the per-phase SNR cache.
// Setting Mobile on UEs without a mobility model forces the loop to
// re-evaluate every UE's SNR on every report tick with identical draws
// (ue.Step is then a no-op and draws nothing), so the default cached
// run must match it report for report over two phases: on one cell,
// and on a static co-channel fleet whose UEs hand over mid-phase — the
// handover must refresh the moved UE's cached entry.
func TestSNRCacheMatchesPerTick(t *testing.T) {
	churn := &fault.Schedule{UEChurnRate: 0.6, UEChurnOutS: 0.8, GTPULossRate: 0.1, GTPUDupRate: 0.1}
	if err := churn.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec := traffic.Spec{Model: traffic.ModelOnOff, RateBps: 2e6}
	for _, tc := range []struct {
		name string
		// build returns the world to serve, its fleet, and the step run
		// before each phase.
		build func(t *testing.T) (server, *MultiCell, func() error)
	}{
		{"one-cell", func(t *testing.T) (server, *MultiCell, func() error) {
			surf := terrain.ByName("FLAT", 11)
			w, err := New(Config{Terrain: surf, Seed: 11, FastRanging: true, Faults: churn}, flatUEs(surf, 6))
			if err != nil {
				t.Fatal(err)
			}
			move := func() error {
				for i, u := range w.UEs {
					u.Pos = u.Pos.Add(geom.V2(float64(7*i%5)-2, float64(3*i%7)-3))
				}
				return nil
			}
			return w, w.MultiCell, move
		}},
		{"static-3cell-cochannel", func(t *testing.T) (server, *MultiCell, func() error) {
			surf := terrain.ByName("CAMPUS", 2)
			area := surf.Bounds().Inset(surf.Bounds().Width() * 0.08)
			ues := ue.PlaceRandomOpen(24, area, surf.IsOpen, 15, rand.New(rand.NewSource(2)))
			ho := enb.DefaultHandoverConfig()
			ho.HysteresisDB, ho.TTTs = 0.01, 0.02
			m, err := NewMultiCell(Config{Terrain: surf, Seed: 2, FastRanging: true, Faults: churn}, 3, interference.PlanCochannel, ho, ues, 1)
			if err != nil {
				t.Fatal(err)
			}
			place := func() error {
				if err := m.PlaceCells(); err != nil {
					return err
				}
				return m.Reselect()
			}
			return m, m, place
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(perTick bool) ([]string, *MultiCell) {
				srv, m, prepare := tc.build(t)
				m.Mobile = perTick
				var reps []string
				for phase := 0; phase < 2; phase++ {
					if err := prepare(); err != nil {
						t.Fatal(err)
					}
					rep, err := srv.ServeTraffic(3, 10, spec)
					if err != nil {
						t.Fatal(err)
					}
					reps = append(reps, mustJSON(t, rep))
				}
				return reps, m
			}
			cached, m := run(false)
			perTick, _ := run(true)
			for phase := range cached {
				if cached[phase] != perTick[phase] {
					t.Errorf("phase %d: cached SNR diverged from per-tick evaluation:\ncached   %s\nper-tick %s", phase, cached[phase], perTick[phase])
				}
			}
			if m.NCells > 1 && m.HO.Stats().Successes == 0 {
				t.Error("no handover; the cache refresh on a cell change went unchecked")
			}
		})
	}
}

// TestMobileRowsBypassObstructionCache: a moving UE never repeats a
// ray, so a mobile fleet refills its link rows around the obstruction
// cache. Over one serving phase the process-wide lookups grow by at
// most the phase-start fill, one per UE and cell; per-tick evaluation
// through the cache would add about ticks × UEs × cells more.
func TestMobileRowsBypassObstructionCache(t *testing.T) {
	surf := terrain.ByName("CAMPUS", 5)
	area := surf.Bounds().Inset(surf.Bounds().Width() * 0.08)
	ues := ue.PlaceRandomOpen(12, area, surf.IsOpen, 15, rand.New(rand.NewSource(5)))
	for _, u := range ues {
		u.Mobility = ue.NewRandomWaypoint(area, 3, 0)
	}
	m, err := NewMultiCell(Config{Terrain: surf, Seed: 5, FastRanging: true}, 3, interference.PlanCochannel, enb.DefaultHandoverConfig(), ues, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Mobile = true
	start := ues[0].Pos
	h0, m0 := radio.ObsCacheStats()
	if _, err := m.ServeTraffic(1, 10, traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e5}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := radio.ObsCacheStats()
	if ues[0].Pos == start {
		t.Fatal("UE 0 did not move; the per-tick refill went unchecked")
	}
	if got, fill := (h1+m1)-(h0+m0), uint64(len(ues)*m.NCells); got > fill {
		t.Errorf("obstruction-cache lookups grew by %d over a mobile phase, want at most the phase-start fill %d", got, fill)
	}
}

// Separate-carrier golden: with no shared spectrum the interference-
// degraded bit mapping must equal the legacy CQI arithmetic bit for
// bit (penalty identically zero), pinned by diffing the degraded path
// against the legacyBits hook.
func TestSeparateCarriersMatchLegacyBits(t *testing.T) {
	build := func(legacy bool) *traffic.Report {
		surf := terrain.ByName("FLAT", 13)
		cfg := Config{Terrain: surf, Seed: 13, FastRanging: true}
		m, err := NewMultiCell(cfg, 3, interference.PlanSeparate, enb.DefaultHandoverConfig(), flatUEs(surf, 8), 1)
		if err != nil {
			t.Fatal(err)
		}
		m.legacyBits = legacy
		rep, err := m.ServeTraffic(2, 10, traffic.Spec{Model: traffic.ModelCBR, RateBps: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := mustJSON(t, build(true)), mustJSON(t, build(false)); a != b {
		t.Errorf("separate-carrier SINR path diverged from legacy bits:\nlegacy %s\nsinr   %s", a, b)
	}
}

// handoverFleet builds a 2-cell co-channel fleet with one mobile UE
// routed from under cell 0 to under cell 1 (forcing an A3 trigger) and
// static anchors holding each cell in place.
func handoverFleet(t *testing.T, seed uint64) *MultiCell {
	t.Helper()
	surf := terrain.ByName("FLAT", seed)
	b := surf.Bounds()
	left := geom.V2(b.MinX+0.2*b.Width(), b.Center().Y)
	right := geom.V2(b.MinX+0.8*b.Width(), b.Center().Y)
	ues := []*ue.UE{
		ue.New(1, left),
		ue.New(2, right),
		ue.New(3, left), // the traveler
	}
	ues[2].Mobility = ue.NewRoute([]geom.Vec2{right}, 60, false)
	ho := enb.HandoverConfig{HysteresisDB: 1, TTTs: 0.1, LoadBiasDB: 0.1, InterruptS: 0.05, PingPongWindowS: 1}
	m, err := NewMultiCell(Config{Terrain: surf, Seed: seed, FastRanging: true}, 2, interference.PlanCochannel, ho, ues, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Mobile = true
	return m
}

// The acceptance path: a mobile UE crossing between co-channel cells
// completes at least one handover, loses no bearer byte to the
// transfer (offered = delivered + dropped + backlog for every UE), and
// the whole phase is deterministic run-to-run.
func TestHandoverZeroByteLossAndDeterminism(t *testing.T) {
	run := func(seed uint64) (*traffic.Report, enb.HandoverStats) {
		m := handoverFleet(t, seed)
		rep, err := m.ServeTraffic(20, 10, traffic.Spec{Model: traffic.ModelCBR, RateBps: 4e5})
		if err != nil {
			t.Fatal(err)
		}
		return rep, m.HO.Stats()
	}
	rep, stats := run(21)
	if stats.Successes < 1 {
		t.Fatalf("expected at least one handover, got stats %+v", stats)
	}
	if stats.Successes != stats.Attempts {
		t.Errorf("attempts %d != successes %d (no failure path exists)", stats.Attempts, stats.Successes)
	}
	var sawHO bool
	for _, k := range rep.KPIs {
		if k.OfferedPackets != k.DeliveredPackets+k.DroppedPackets+uint64(k.BacklogPackets) {
			t.Errorf("UE %d leaks packets across handover: offered %d != delivered %d + dropped %d + backlog %d",
				k.UE, k.OfferedPackets, k.DeliveredPackets, k.DroppedPackets, k.BacklogPackets)
		}
		if k.Handovers > 0 {
			sawHO = true
			if k.Cell != 2 {
				t.Errorf("traveler UE %d ended on cell %d, want 2", k.UE, k.Cell)
			}
		}
	}
	if !sawHO {
		t.Error("no KPI row recorded a handover")
	}
	rep2, stats2 := run(21)
	if mustJSON(t, rep) != mustJSON(t, rep2) || mustJSON(t, stats) != mustJSON(t, stats2) {
		t.Error("handover run is not deterministic across identical runs")
	}
}

// Checkpoint/restore mid-window: serving 2N seconds straight must be
// byte-identical to serving N, snapshotting, restoring into a fresh
// fleet, and serving N more — with handovers landing in both halves.
func TestMultiCellSnapshotRestoreMidHandover(t *testing.T) {
	spec := traffic.Spec{Model: traffic.ModelCBR, RateBps: 4e5}

	full := handoverFleet(t, 33)
	repA, err := full.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := full.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}

	half := handoverFleet(t, 33)
	repA2, err := half.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := half.Snapshot()

	resumed := handoverFleet(t, 33)
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	repB2, err := resumed.ServeTraffic(10, 10, spec)
	if err != nil {
		t.Fatal(err)
	}

	if mustJSON(t, repA) != mustJSON(t, repA2) {
		t.Error("first-half reports diverged run-to-run")
	}
	if mustJSON(t, repB) != mustJSON(t, repB2) {
		t.Error("resumed second half diverged from the straight-through run")
	}
	if full.HO.Stats().Successes < 1 {
		t.Fatalf("scenario produced no handovers: %+v", full.HO.Stats())
	}
	if mustJSON(t, full.HO.Stats()) != mustJSON(t, resumed.HO.Stats()) {
		t.Errorf("handover stats diverged: %+v vs %+v", full.HO.Stats(), resumed.HO.Stats())
	}
	if mustJSON(t, full.Snapshot()) != mustJSON(t, resumed.Snapshot()) {
		t.Error("final fleet states diverged")
	}

	// A single UAV is the one-cell fleet plus its platform: serve, fly a
	// short leg, snapshot, restore into a fresh World, then serve and
	// fly again. Reports, flight samples, the UAV and the final snapshot
	// must match the straight-through run.
	faults := &fault.Schedule{UEChurnRate: 0.6, UEChurnOutS: 0.8, GTPULossRate: 0.1, LegAbortRate: 0.5}
	if err := faults.Normalize(); err != nil {
		t.Fatal(err)
	}
	newWorld := func() *World {
		surf := terrain.ByName("FLAT", 33)
		w, err := New(Config{Terrain: surf, Seed: 33, FastRanging: true, Faults: faults}, flatUEs(surf, 6))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	b := terrain.ByName("FLAT", 33).Bounds()
	leg := geom.Polyline{b.Center(), geom.V2(b.MinX+0.3*b.Width(), b.MinY+0.7*b.Height())}
	phase := func(w *World) string {
		rep, err := w.ServeTraffic(3, 10, traffic.Spec{Model: traffic.ModelOnOff, RateBps: 2e6})
		if err != nil {
			t.Fatal(err)
		}
		samples, flown := w.FlyMeasure(leg, 60, 0)
		return mustJSON(t, rep) + mustJSON(t, samples) + mustJSON(t, flown)
	}
	fullW := newWorld()
	phase(fullW)
	wantB := phase(fullW)
	halfW := newWorld()
	phase(halfW)
	snapW := halfW.Snapshot()
	resumedW := newWorld()
	if err := resumedW.Restore(snapW); err != nil {
		t.Fatal(err)
	}
	if phase(resumedW) != wantB {
		t.Error("resumed world's second phase diverged from the straight-through run")
	}
	if mustJSON(t, fullW.UAV.Snapshot()) != mustJSON(t, resumedW.UAV.Snapshot()) {
		t.Error("UAV states diverged")
	}
	if mustJSON(t, fullW.Snapshot()) != mustJSON(t, resumedW.Snapshot()) {
		t.Error("final world states diverged")
	}
}

// Restore rejects a serving map that disagrees with the cell snapshots
// before it changes anything: a cell outside the fleet, a UE its
// serving cell holds no context for, and a UE another cell also holds.
func TestRestoreRejectsInconsistentServingMap(t *testing.T) {
	src := handoverFleet(t, 33)
	if _, err := src.ServeTraffic(10, 10, traffic.Spec{Model: traffic.ModelCBR, RateBps: 4e5}); err != nil {
		t.Fatal(err)
	}
	if src.HO.Stats().Successes < 1 {
		t.Fatalf("scenario produced no handovers: %+v", src.HO.Stats())
	}
	for _, tc := range []struct {
		name string
		edit func(st *State)
	}{
		{"cell-out-of-range", func(st *State) { st.Serving[0] = 5 }},
		{"negative-cell", func(st *State) { st.Serving[0] = -1 }},
		{"missing-from-serving-cell", func(st *State) { st.Serving[0] = 1 - st.Serving[0] }},
		{"held-by-another-cell", func(st *State) {
			home, other := st.Serving[0], 1-st.Serving[0]
			for _, cs := range st.Cells[home].UEs {
				if cs.IMSI == src.imsis[0] {
					cs.RNTI = st.Cells[other].NextRNTI
					st.Cells[other].UEs = append(st.Cells[other].UEs, cs)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := src.Snapshot()
			tc.edit(&st)
			dst := handoverFleet(t, 33)
			before := mustJSON(t, dst.Snapshot())
			if err := dst.Restore(st); err == nil {
				t.Fatal("restore accepted a serving map that disagrees with the cells")
			}
			if mustJSON(t, dst.Snapshot()) != before {
				t.Error("rejected restore changed the fleet")
			}
		})
	}
	if err := handoverFleet(t, 33).Restore(src.Snapshot()); err != nil {
		t.Fatalf("consistent snapshot rejected: %v", err)
	}
}

// Co-channel interference must cost throughput: the same fleet on
// separate carriers delivers at least as much as on one shared carrier.
func TestCochannelDegradesThroughput(t *testing.T) {
	run := func(plan interference.Plan) float64 {
		surf := terrain.ByName("FLAT", 17)
		cfg := Config{Terrain: surf, Seed: 17, FastRanging: true}
		m, err := NewMultiCell(cfg, 3, plan, enb.DefaultHandoverConfig(), flatUEs(surf, 8), 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.ServeTraffic(2, 10, traffic.Spec{Model: traffic.ModelFullBuffer})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Summary.DeliveredBps
	}
	sep, co := run(interference.PlanSeparate), run(interference.PlanCochannel)
	if co > sep {
		t.Errorf("co-channel fleet delivered more than separate carriers: %.0f > %.0f bps", co, sep)
	}
}

// Reselect moves a UE to a less-loaded cell with no handover KPIs.
func TestReselectLoadBalances(t *testing.T) {
	m := handoverFleet(t, 51)
	// Teleport the traveler next to the right-hand anchor and reselect.
	m.UEs[2].Mobility = nil
	m.UEs[2].Pos = m.UEs[1].Pos
	// KMeans ordering decides which cell index covers the right side.
	rightCell := 0
	if m.Graph.Cells[1].XY().Dist(m.UEs[1].Pos) < m.Graph.Cells[0].XY().Dist(m.UEs[1].Pos) {
		rightCell = 1
	}
	if err := m.Reselect(); err != nil {
		t.Fatal(err)
	}
	if m.CellOf(2) != rightCell {
		t.Fatalf("traveler on cell %d after reselection, want %d", m.CellOf(2), rightCell)
	}
	if s := m.HO.Stats(); s.Attempts != 0 || s.Successes != 0 {
		t.Fatalf("reselection counted as handover: %+v", s)
	}
	// The context moved intact: the new cell can serve it, and the
	// fleet holds it.
	if _, ok := m.Cells[rightCell].Context(m.imsis[2]); !ok {
		t.Fatal("context did not move with reselection")
	}
	checkContexts(t, m)
}
