package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/ue"
)

// TestSkyRANSnapshotRoundTrip exercises the controller state codec
// directly: snapshot, restore into a fresh controller, snapshot again
// — both snapshots must match exactly.
func TestSkyRANSnapshotRoundTrip(t *testing.T) {
	tr := terrain.Campus(9)
	ues := ue.PlaceRandomOpen(3, tr.Bounds().Inset(60), tr.IsOpen, 25, newTestRNG(9))
	w, err := sim.New(sim.Config{Terrain: tr, Seed: 9, FastRanging: true}, ues)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 9, FixedAltitudeM: 60, MeasurementBudgetM: 300}
	ctrl := NewSkyRAN(cfg)
	if _, err := ctrl.RunEpoch(w); err != nil {
		t.Fatal(err)
	}
	st1, err := ctrl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSkyRAN(cfg)
	if err := restored.Restore(st1); err != nil {
		t.Fatal(err)
	}
	st2, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("snapshot → restore → snapshot is not a fixed point")
	}
	if restored.Epoch() != 1 || restored.TargetAltitude() != ctrl.TargetAltitude() {
		t.Fatalf("restored progress: epoch=%d alt=%v", restored.Epoch(), restored.TargetAltitude())
	}
}
