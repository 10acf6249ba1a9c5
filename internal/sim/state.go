package sim

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/epc"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/uav"
	"repro/internal/ue"
)

// State is the serving world's complete serializable state at a
// quiescent point (no flight or serving phase in progress): the clock,
// the serving phase counter, the RNG stream cursors, the UE and cell
// state, and the layout handovers reshuffle — cell positions and the
// UE↔cell map. A single UAV is the one-cell fleet and adds only its
// platform. The static configuration — terrain, radio model,
// numerology, mobility models — is rebuilt from the scenario spec, not
// serialized; restoring a snapshot into a world built from a different
// spec fails loudly at a higher layer (scenario fingerprinting).
type State struct {
	Clock      float64
	ServePhase uint64

	RNG         detrand.State
	MobilityRNG detrand.State
	PlaceRNG    detrand.State

	UEs      []ue.State
	Cells    []enb.State
	CellPos  []geom.Vec3
	Serving  []int
	Handover enb.HandoverEngineState

	// Faults carries the fault injector's stream cursors and counters;
	// nil for worlds without an active schedule.
	Faults *fault.State

	// UAV is a single-UAV World's platform; nil on a fleet.
	UAV *uav.State
}

// Snapshot captures the fleet state at a quiescent point.
func (m *MultiCell) Snapshot() State {
	st := State{
		Clock:       m.Clock,
		ServePhase:  m.servePhase,
		RNG:         m.rng.State(),
		MobilityRNG: m.mrng.State(),
		PlaceRNG:    m.placeRNG.State(),
		CellPos:     append([]geom.Vec3(nil), m.Graph.Cells...),
		Serving:     append([]int(nil), m.Serving...),
		Handover:    m.HO.Snapshot(),
	}
	for _, u := range m.UEs {
		st.UEs = append(st.UEs, u.Snapshot())
	}
	for _, c := range m.Cells {
		st.Cells = append(st.Cells, c.Snapshot())
	}
	if m.Faults != nil {
		fs := m.Faults.Snapshot()
		st.Faults = &fs
	}
	return st
}

// Restore reinstates a snapshot into a fleet built from the same
// configuration. Each cell's contexts are rebuilt from its snapshot
// (enb.ENodeB.Restore), because the checkpointed attach layout — which
// UE lives in which cell, under which RNTI — generally differs from the
// freshly constructed one; the serving map must agree with that
// layout. After a successful restore the fleet continues
// byte-identically to the one the snapshot was taken from.
func (m *MultiCell) Restore(st State) error {
	if len(st.UEs) != len(m.UEs) {
		return fmt.Errorf("sim: snapshot has %d UEs, fleet has %d", len(st.UEs), len(m.UEs))
	}
	if len(st.Cells) != m.NCells || len(st.CellPos) != m.NCells || len(st.Serving) != len(m.UEs) {
		return fmt.Errorf("sim: snapshot shape mismatch: %d cells/%d positions/%d serving, fleet has %d cells/%d UEs",
			len(st.Cells), len(st.CellPos), len(st.Serving), m.NCells, len(m.UEs))
	}
	if err := m.checkServing(st); err != nil {
		return err
	}
	if err := m.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("sim: measurement RNG: %w", err)
	}
	if err := m.mrng.Restore(st.MobilityRNG); err != nil {
		return fmt.Errorf("sim: mobility RNG: %w", err)
	}
	if err := m.placeRNG.Restore(st.PlaceRNG); err != nil {
		return fmt.Errorf("sim: placement RNG: %w", err)
	}
	for i, u := range m.UEs {
		if err := u.Restore(st.UEs[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	index := make(map[epc.IMSI]int, len(m.imsis))
	for i, imsi := range m.imsis {
		index[imsi] = i
	}
	resolve := func(imsi epc.IMSI) (int, *epc.Session, bool) {
		i, known := index[imsi]
		s, ok := m.Core.Session(imsi)
		return i, s, known && ok
	}
	for c, cs := range st.Cells {
		if err := m.Cells[c].Restore(cs, resolve); err != nil {
			return fmt.Errorf("sim: cell %d: %w", c, err)
		}
	}
	for c, pos := range st.CellPos {
		m.Graph.SetCell(c, pos)
	}
	copy(m.Serving, st.Serving)
	for i, imsi := range m.imsis {
		m.ctxs[i], _ = m.Cells[m.Serving[i]].Context(imsi)
	}
	if err := m.HO.Restore(st.Handover); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if st.Faults != nil {
		if m.Faults == nil {
			return fmt.Errorf("sim: snapshot carries fault state but the fleet has no fault schedule")
		}
		if err := m.Faults.Restore(*st.Faults); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	m.Clock = st.Clock
	m.servePhase = st.ServePhase
	return nil
}

// checkServing verifies that the snapshot's serving map names, for
// every UE, the one cell whose snapshot holds that UE's context.
func (m *MultiCell) checkServing(st State) error {
	holder := make(map[epc.IMSI]int, len(m.UEs))
	for c, cs := range st.Cells {
		for _, u := range cs.UEs {
			if prev, dup := holder[u.IMSI]; dup {
				return fmt.Errorf("sim: snapshot UE %s has contexts in cells %d and %d", u.IMSI, prev, c)
			}
			holder[u.IMSI] = c
		}
	}
	for i, c := range st.Serving {
		imsi := m.imsis[i]
		if c < 0 || c >= m.NCells {
			return fmt.Errorf("sim: snapshot serves UE %s from cell %d, fleet has %d cells", imsi, c, m.NCells)
		}
		if got, ok := holder[imsi]; !ok || got != c {
			return fmt.Errorf("sim: snapshot serves UE %s from cell %d, which holds no context for it", imsi, c)
		}
	}
	return nil
}

// Snapshot captures the world state: the one-cell fleet plus the UAV.
func (w *World) Snapshot() State {
	st := w.MultiCell.Snapshot()
	us := w.UAV.Snapshot()
	st.UAV = &us
	return st
}

// Restore reinstates a snapshot into a world built from the same
// configuration.
func (w *World) Restore(st State) error {
	if st.UAV == nil {
		return fmt.Errorf("sim: snapshot carries no UAV state")
	}
	if err := w.MultiCell.Restore(st); err != nil {
		return err
	}
	return w.UAV.Restore(*st.UAV)
}
