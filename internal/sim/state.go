package sim

import (
	"fmt"

	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/fault"
	"repro/internal/uav"
	"repro/internal/ue"
)

// WorldState is the world's complete serializable simulation state at
// a quiescent point (no flight in progress): the clock, the serving
// phase counter, both RNG stream cursors, and the platform/UE/LTE
// stack state. The static configuration — terrain, radio model,
// numerology, mobility models — is rebuilt from the scenario spec, not
// serialized; restoring a snapshot into a world built from a different
// spec fails loudly at a higher layer (scenario fingerprinting).
type WorldState struct {
	Clock      float64
	ServePhase uint64

	RNG         detrand.State
	MobilityRNG detrand.State

	UAV uav.State
	UEs []ue.State
	ENB enb.State

	// Faults carries the fault injector's stream cursors and counters;
	// nil for worlds without an active schedule (gob omits the nil
	// pointer, keeping fault-free checkpoints on the existing wire
	// form).
	Faults *fault.State
}

// Snapshot captures the world state.
func (w *World) Snapshot() WorldState {
	st := WorldState{
		Clock:       w.Clock,
		ServePhase:  w.servePhase,
		RNG:         w.rng.State(),
		MobilityRNG: w.mrng.State(),
		UAV:         w.UAV.Snapshot(),
		ENB:         w.Cells[0].Snapshot(),
	}
	for _, u := range w.UEs {
		st.UEs = append(st.UEs, u.Snapshot())
	}
	if w.Faults != nil {
		fs := w.Faults.Snapshot()
		st.Faults = &fs
	}
	return st
}

// Restore reinstates a snapshot into a world built from the same
// configuration. After a successful restore the world continues
// byte-identically to the one the snapshot was taken from.
func (w *World) Restore(st WorldState) error {
	if len(st.UEs) != len(w.UEs) {
		return fmt.Errorf("sim: snapshot has %d UEs, world has %d", len(st.UEs), len(w.UEs))
	}
	if err := w.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("sim: measurement RNG: %w", err)
	}
	if err := w.mrng.Restore(st.MobilityRNG); err != nil {
		return fmt.Errorf("sim: mobility RNG: %w", err)
	}
	if err := w.UAV.Restore(st.UAV); err != nil {
		return err
	}
	for i, u := range w.UEs {
		if err := u.Restore(st.UEs[i]); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if err := w.Cells[0].Restore(st.ENB); err != nil {
		return err
	}
	if st.Faults != nil {
		if w.Faults == nil {
			return fmt.Errorf("sim: snapshot carries fault state but the world has no fault schedule")
		}
		if err := w.Faults.Restore(*st.Faults); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	w.Clock = st.Clock
	w.servePhase = st.ServePhase
	return nil
}
