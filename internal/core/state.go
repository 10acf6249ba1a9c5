package core

import (
	"fmt"
	"sort"

	"repro/internal/detrand"
	"repro/internal/geom"
	"repro/internal/locate"
	"repro/internal/rem"
	"repro/internal/traj"
)

// Checkpoint support. Each controller's cross-epoch state snapshots
// into plain gob-friendly structs: sorted slices instead of maps (gob
// walks maps in random order, which would break the byte-identity
// contract of checkpoint files), RNGs as (seed, draws) counters, and
// the REM store as its own container encoding.

// UEHistory is one UE's measurement-flight history.
type UEHistory struct {
	ID      int
	History traj.History
}

// UEEstimate is one UE's last estimated position.
type UEEstimate struct {
	ID  int
	Est geom.Vec2
}

// UETracker is one UE's drift-predictor state.
type UETracker struct {
	ID      int
	Tracker locate.TrackerState
}

// SkyRANState is the SkyRAN controller's serializable cross-epoch
// state (§3.5): epoch counter, target altitude, serving baseline, the
// controller RNG cursor, per-UE histories/estimates/trackers, and the
// REM store. Per-UE slices are sorted by UE ID.
type SkyRANState struct {
	Epoch              int
	TargetAlt          float64
	ServingBase        float64
	MeasurementBudgetM float64
	RNG                detrand.State

	Histories []UEHistory
	LastEst   []UEEstimate
	Trackers  []UETracker

	// Store is the REM store in its container encoding.
	Store []byte
}

// Snapshot captures the controller state.
func (s *SkyRAN) Snapshot() (SkyRANState, error) {
	st := SkyRANState{
		Epoch:              s.epoch,
		TargetAlt:          s.targetAlt,
		ServingBase:        s.servingBase,
		MeasurementBudgetM: s.cfg.MeasurementBudgetM,
		RNG:                s.rng.State(),
	}
	for id, h := range s.histories {
		st.Histories = append(st.Histories, UEHistory{ID: id, History: h})
	}
	for id, p := range s.lastEst {
		st.LastEst = append(st.LastEst, UEEstimate{ID: id, Est: p})
	}
	for id, tr := range s.trackers {
		st.Trackers = append(st.Trackers, UETracker{ID: id, Tracker: tr.Snapshot()})
	}
	sort.Slice(st.Histories, func(i, j int) bool { return st.Histories[i].ID < st.Histories[j].ID })
	sort.Slice(st.LastEst, func(i, j int) bool { return st.LastEst[i].ID < st.LastEst[j].ID })
	sort.Slice(st.Trackers, func(i, j int) bool { return st.Trackers[i].ID < st.Trackers[j].ID })
	b, err := s.store.Encode()
	if err != nil {
		return SkyRANState{}, fmt.Errorf("core: encoding REM store: %w", err)
	}
	st.Store = b
	return st, nil
}

// Restore reinstates a snapshot into a controller built from the same
// configuration.
func (s *SkyRAN) Restore(st SkyRANState) error {
	if err := s.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("core: controller RNG: %w", err)
	}
	if st.Store != nil {
		store, err := rem.DecodeStore(st.Store)
		if err != nil {
			return fmt.Errorf("core: REM store: %w", err)
		}
		store.R = reuseRadiusM
		s.store = store
	}
	s.epoch = st.Epoch
	s.targetAlt = st.TargetAlt
	s.servingBase = st.ServingBase
	s.cfg.MeasurementBudgetM = st.MeasurementBudgetM
	s.histories = make(map[int]traj.History, len(st.Histories))
	for _, h := range st.Histories {
		s.histories[h.ID] = h.History
	}
	s.lastEst = make(map[int]geom.Vec2, len(st.LastEst))
	for _, p := range st.LastEst {
		s.lastEst[p.ID] = p.Est
	}
	s.trackers = make(map[int]*locate.Tracker, len(st.Trackers))
	for _, tr := range st.Trackers {
		s.trackers[tr.ID] = locate.RestoreTracker(tr.Tracker)
	}
	return nil
}

// BaselineState is the serializable state of the RNG-bearing baseline
// controllers (Centroid, Random): whether the lazy RNG has been
// created, and its cursor if so.
type BaselineState struct {
	Initialized bool
	RNG         detrand.State
}

// Snapshot captures the Centroid baseline's state.
func (c *Centroid) Snapshot() BaselineState {
	if c.rng == nil {
		return BaselineState{}
	}
	return BaselineState{Initialized: true, RNG: c.rng.State()}
}

// Restore reinstates a Centroid snapshot (Seed must match the
// original).
func (c *Centroid) Restore(st BaselineState) error {
	if !st.Initialized {
		c.rng = nil
		return nil
	}
	c.rng = detrand.New(c.Seed + 11)
	if err := c.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("core: centroid RNG: %w", err)
	}
	return nil
}

// Snapshot captures the Random baseline's state.
func (r *Random) Snapshot() BaselineState {
	if r.rng == nil {
		return BaselineState{}
	}
	return BaselineState{Initialized: true, RNG: r.rng.State()}
}

// Restore reinstates a Random snapshot (Seed must match the original).
func (r *Random) Restore(st BaselineState) error {
	if !st.Initialized {
		r.rng = nil
		return nil
	}
	r.rng = detrand.New(r.Seed + 13)
	if err := r.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("core: random RNG: %w", err)
	}
	return nil
}
