package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/terrain"
	"repro/internal/ue"
)

func TestFleetValidation(t *testing.T) {
	tr := terrain.Campus(1)
	if _, err := NewFleet(0, tr, Config{}, 1, true); err == nil {
		t.Error("zero UAVs should fail")
	}
	f, err := NewFleet(2, tr, Config{Seed: 1, FixedAltitudeM: 60, MeasurementBudgetM: 300}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunEpoch(nil); err == nil {
		t.Error("epoch without UEs should fail")
	}
}

func TestFleetPartitionsAndPlaces(t *testing.T) {
	tr := terrain.Large(1)
	ues := ue.PlaceRandomOpen(8, tr.Bounds().Inset(80), tr.IsOpen, 30,
		newTestRNG(3))
	f, err := NewFleet(2, tr, Config{
		Seed:               3,
		FixedAltitudeM:     60,
		MeasurementBudgetM: 700,
	}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunEpoch(ues)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sectors) != 2 {
		t.Fatalf("sectors = %d", len(res.Sectors))
	}
	total := 0
	for _, s := range res.Sectors {
		total += len(s)
	}
	if total != 8 {
		t.Errorf("partition lost UEs: %d", total)
	}
	if res.MaxFlightS <= 0 {
		t.Error("no flight overhead recorded")
	}
	if rel := res.MeanRelativeThroughput(16); rel < 0.4 {
		t.Errorf("fleet relative throughput %.2f too low", rel)
	}
	if f.shared.Len() == 0 {
		t.Error("shared store empty after epoch")
	}
}

// TestFleetParallelDeterminism: per-sector epochs fan out over the
// parallel engine; results and the shared store, merged from the
// sectors' contributions, must be byte-identical at any worker count.
func TestFleetParallelDeterminism(t *testing.T) {
	tr := terrain.Campus(5)
	ues := ue.PlaceRandomOpen(6, tr.Bounds().Inset(60), tr.IsOpen, 25, newTestRNG(5))
	run := func(workers int) (*FleetResult, *Fleet) {
		f, err := NewFleet(3, tr, Config{
			Seed:               5,
			FixedAltitudeM:     60,
			MeasurementBudgetM: 300,
			Workers:            workers,
		}, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunEpoch(ues)
		if err != nil {
			t.Fatal(err)
		}
		return res, f
	}
	seq, fseq := run(1)
	par, fpar := run(8)
	if !reflect.DeepEqual(seq.PerUAV, par.PerUAV) {
		t.Fatal("per-UAV epoch results differ between 1 and 8 workers")
	}
	if seq.MaxFlightS != par.MaxFlightS {
		t.Fatalf("MaxFlightS %v vs %v", seq.MaxFlightS, par.MaxFlightS)
	}
	if !reflect.DeepEqual(fseq.shared.Positions(), fpar.shared.Positions()) {
		t.Fatal("merged shared stores differ between 1 and 8 workers")
	}
	seqStore, err := fseq.shared.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parStore, err := fpar.shared.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqStore, parStore) {
		t.Fatal("merged shared-store bytes differ between 1 and 8 workers")
	}
}

func TestFleetEpochCancellation(t *testing.T) {
	tr := terrain.Campus(6)
	ues := ue.PlaceRandomOpen(4, tr.Bounds().Inset(60), tr.IsOpen, 25, newTestRNG(6))
	f, err := NewFleet(2, tr, Config{Seed: 6, FixedAltitudeM: 60, MeasurementBudgetM: 300}, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.RunEpochCtx(ctx, ues); err == nil {
		t.Fatal("cancelled fleet epoch should fail")
	}
	if f.shared.Len() != 0 {
		t.Error("cancelled epoch should not have merged maps into the store")
	}
}

func TestFleetSharedStoreAcrossMembers(t *testing.T) {
	// Two UAVs, UEs clustered so sectors are distinct; after the first
	// epoch the shared store should hold entries from both sectors.
	tr := terrain.Campus(2)
	var ues []*ue.UE
	for i := 0; i < 3; i++ {
		ues = append(ues, ue.New(i, tr.Bounds().Center().Add(vec(float64(-80+10*i), -80))))
	}
	for i := 3; i < 6; i++ {
		ues = append(ues, ue.New(i, tr.Bounds().Center().Add(vec(float64(60+10*(i-3)), 80))))
	}
	f, err := NewFleet(2, tr, Config{Seed: 4, FixedAltitudeM: 60, MeasurementBudgetM: 300}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunEpoch(ues)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sectors[0]) == 0 || len(res.Sectors[1]) == 0 {
		t.Fatal("clustered UEs should split across both sectors")
	}
	if f.shared.Len() < 4 {
		t.Errorf("shared store holds %d entries, want entries from both sectors", f.shared.Len())
	}
}
