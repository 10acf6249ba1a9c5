package scenario

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/traffic"
)

func flatSpec() Spec {
	return Spec{Terrain: "FLAT", UEs: 3, BudgetM: 200, Epochs: 1, Seed: 7, ServeS: 1}
}

func TestRunDeterministicBytes(t *testing.T) {
	run := func() []byte {
		res, store, err := Run(context.Background(), flatSpec(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if store == nil || store.Len() == 0 {
			t.Fatal("skyran run should leave a populated REM store")
		}
		b, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical specs produced different result bytes")
	}
	if !strings.HasSuffix(string(a), "\n") {
		t.Error("canonical wire form should end in a newline")
	}
}

func TestRunEmitsTelemetry(t *testing.T) {
	rec := trace.NewRecorder(nil)
	var kinds []trace.Kind
	rec.Subscribe(func(r trace.Record) { kinds = append(kinds, r.Kind) })
	spec := flatSpec()
	spec.ServeS = 0
	if _, _, err := Run(context.Background(), spec, Options{Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) == 0 || kinds[0] != trace.KindMeta {
		t.Fatalf("expected telemetry starting with meta, got %v", kinds[:min(len(kinds), 3)])
	}
	var epochs int
	for _, k := range kinds {
		if k == trace.KindEpoch {
			epochs++
		}
	}
	if epochs != 1 {
		t.Errorf("saw %d epoch records, want 1", epochs)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, flatSpec(), Options{})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled run: err = %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Topology: "ring"},
		{Controller: "magic"},
		{BudgetM: -5},
		{Epochs: 1000},
		{UEs: 10000},
		{ServeS: -1},
	}
	for _, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %+v should fail validation", s)
		}
	}
	var def Spec
	if err := def.Normalize(); err != nil {
		t.Fatal(err)
	}
	if def.Terrain != "CAMPUS" || def.UEs != 6 || def.Controller != "skyran" ||
		def.Topology != "uniform" || def.BudgetM != 800 || def.Epochs != 1 || def.ServeS != 0 {
		t.Errorf("defaults = %+v", def)
	}
	unknown := Spec{Terrain: "ATLANTIS"}
	if _, _, err := Run(context.Background(), unknown, Options{}); err == nil {
		t.Error("unknown terrain should fail at Run")
	}
}

// NaN and ±Inf pass every sign and range check: unchecked, a NaN
// serve_s or budget_m runs, and a NaN mobility_ms leaves a fleet
// silently static and then fails the fingerprint. Each float of the
// spec, and those of its traffic section (checked by traffic's own
// Normalize), is refused by name.
func TestSpecRejectsNonFiniteFloats(t *testing.T) {
	for _, f := range []struct {
		name string
		set  func(s *Spec, v float64)
	}{
		{"budget_m", func(s *Spec, v float64) { s.BudgetM = v }},
		{"serve_s", func(s *Spec, v float64) { s.ServeS = v }},
		{"handover_hysteresis_db", func(s *Spec, v float64) { s.HandoverHysteresisDB = v }},
		{"handover_ttt_s", func(s *Spec, v float64) { s.HandoverTTTs = v }},
		{"mobility_ms", func(s *Spec, v float64) { s.MobilityMS = v }},
		{"rate_bps", func(s *Spec, v float64) { s.Traffic = &traffic.Spec{Model: traffic.ModelPoisson, RateBps: v} }},
		{`cohort "a" share`, func(s *Spec, v float64) {
			s.Traffic = &traffic.Spec{Model: traffic.ModelPoisson, Cohorts: []traffic.Cohort{{Name: "a", Share: v}}}
		}},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := Spec{Cells: 3, ServeS: 1}
			f.set(&s, v)
			if err := s.Normalize(); err == nil || !strings.Contains(err.Error(), f.name+" must be finite") {
				t.Errorf("%s = %g: err = %v, want it named as non-finite", f.name, v, err)
			}
		}
	}
	ok := Spec{Cells: 3, ServeS: 1, MobilityMS: 3}
	if err := ok.Normalize(); err != nil {
		t.Fatalf("finite fleet spec rejected: %v", err)
	}
}

// A spec Normalize accepts but whose UEs cannot all be placed fails
// Run with an error, not a panic: at seed 1, 150 UEs at the 15 m
// separation do not fit on FLAT's open ground.
func TestRunRejectsUnplaceableUEs(t *testing.T) {
	spec := Spec{Terrain: "FLAT", UEs: 150, Controller: "random", Seed: 1}
	if err := spec.Normalize(); err != nil {
		t.Fatalf("spec rejected before Run: %v", err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Run panicked: %v", r)
		}
	}()
	if _, _, err := Run(context.Background(), spec, Options{}); err == nil || !strings.Contains(err.Error(), "cannot place UE") {
		t.Fatalf("Run err = %v, want a placement error", err)
	}
}

func TestRunTrafficDeterministicBytes(t *testing.T) {
	spec := flatSpec()
	spec.Epochs = 2
	spec.Traffic = &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 3e6}
	run := func() []byte {
		res, _, err := Run(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical bursty-traffic specs produced different result bytes")
	}
	// The report must carry per-UE KPI rows with traffic actually flowing.
	res, _, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range res.Epochs {
		if ep.Traffic == nil || len(ep.Traffic.KPIs) != spec.UEs {
			t.Fatalf("epoch %d missing traffic KPIs", ep.Epoch)
		}
		if ep.Traffic.Summary.OfferedBytes == 0 {
			t.Fatalf("epoch %d offered no traffic", ep.Epoch)
		}
		if len(ep.Served) != spec.UEs {
			t.Fatalf("epoch %d Served rows = %d", ep.Epoch, len(ep.Served))
		}
	}
	// Different epochs must draw fresh arrival streams.
	if res.Epochs[0].Traffic.Summary.OfferedBytes == res.Epochs[1].Traffic.Summary.OfferedBytes {
		t.Error("both epochs offered byte-identical traffic; per-phase seeding broken")
	}
}

func TestRunTrafficFullBufferMatchesLegacy(t *testing.T) {
	legacy := flatSpec()
	explicit := flatSpec()
	explicit.Traffic = &traffic.Spec{Model: traffic.ModelFullBuffer}
	res1, _, err := Run(context.Background(), legacy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := Run(context.Background(), explicit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The serving numbers must agree; only the KPI report is new.
	for i := range res1.Epochs {
		if res1.Epochs[i].AggregateServedBps != res2.Epochs[i].AggregateServedBps {
			t.Fatalf("epoch %d: full-buffer traffic %g != legacy %g", i+1,
				res2.Epochs[i].AggregateServedBps, res1.Epochs[i].AggregateServedBps)
		}
	}
	if res2.Epochs[0].Traffic == nil {
		t.Fatal("explicit full-buffer spec should attach a traffic report")
	}
}

func TestSpecScaleUpRequiresRandomController(t *testing.T) {
	big := Spec{UEs: 5000, Controller: "random"}
	if err := big.Normalize(); err != nil {
		t.Fatalf("random controller should allow 5000 UEs: %v", err)
	}
	tooBig := Spec{UEs: 30000, Controller: "random"}
	if err := tooBig.Normalize(); err == nil {
		t.Error("30000 UEs should exceed the scale-up cap")
	}
	bad := Spec{UEs: 5000, Controller: "skyran"}
	if err := bad.Normalize(); err == nil {
		t.Error("probing controller should stay capped at 200 UEs")
	}
	badTraffic := Spec{Traffic: &traffic.Spec{Model: "warp-drive"}}
	if err := badTraffic.Normalize(); err == nil {
		t.Error("invalid traffic spec should fail scenario validation")
	}
}
