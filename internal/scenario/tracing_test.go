package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/traffic"
)

// cohortSpec is the multi-cohort acceptance workload: three traffic
// classes on dedicated streams — heavy-tailed gamma, weibull, and a
// diurnal+flash poisson cohort — over a mobile fleet.
func cohortTraffic() *traffic.Spec {
	return &traffic.Spec{
		Model: traffic.ModelPoisson, RateBps: 3e5,
		Cohorts: []traffic.Cohort{
			{Name: "bulk", Share: 0.5, Model: traffic.ModelGamma, Shape: 0.4},
			{Name: "iot", Share: 0.2, Model: traffic.ModelWeibull, Shape: 0.7, RateBps: 5e4},
			{Name: "crowd", Share: 0.3,
				Diurnal: []traffic.Period{{Seconds: 3, Mult: 0.5}, {Seconds: 3, Mult: 2}},
				Flash:   &traffic.Flash{AtS: 2, Peak: 4, RampS: 1, HoldS: 2, DecayS: 1}},
		},
	}
}

// TestCohortFleetByteIdenticalAcrossWorkers is the cohort determinism
// contract at the fleet layer: gamma, weibull and enveloped streams
// are byte-identical at workers 1 vs 8.
func TestCohortFleetByteIdenticalAcrossWorkers(t *testing.T) {
	spec := Spec{
		Terrain: "FLAT", UEs: 8, Epochs: 2, Seed: 11, ServeS: 5,
		Traffic: cohortTraffic(),
		Cells:   2, MobilityMS: 15, HandoverHysteresisDB: 1, HandoverTTTs: 0.1,
	}
	ref, _ := runFleet(t, spec, Options{Workers: 1})
	got, _ := runFleet(t, spec, Options{Workers: 8})
	if !bytes.Equal(ref, got) {
		t.Fatal("cohort fleet result differs between workers 1 and 8")
	}
}

// TestCohortResumeByteIdentical checkpoints a cohort run mid-sweep and
// resumes it: the per-phase (seed, phase, cohort, UE) stream derivation
// must survive the world rebuild.
func TestCohortResumeByteIdentical(t *testing.T) {
	spec := Spec{
		Terrain: "FLAT", UEs: 6, Controller: "random",
		BudgetM: 200, Epochs: 4, Seed: 13, ServeS: 2,
		Traffic: cohortTraffic(),
	}
	ref, _, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := MarshalResult(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last string
	_, _, err = Run(ctx, spec, Options{
		Checkpoint: &CheckpointConfig{Dir: dir},
		OnEpoch: func(rep EpochReport) {
			if rep.Epoch == 2 {
				cancel()
			}
		},
		OnCheckpoint: func(ev CheckpointEvent) { last = ev.Path },
	})
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	got, _, err := Resume(context.Background(), last, &spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := MarshalResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("resumed cohort run differs from uninterrupted run")
	}
}

// traceSpec is the capture/replay scenario: packet traffic under an
// active fault schedule (so replay must reproduce fault handling too).
func traceSpec() Spec {
	return Spec{
		Terrain: "FLAT", UEs: 4, Controller: "random",
		BudgetM: 200, Epochs: 2, Seed: 21, ServeS: 2,
		Traffic: &traffic.Spec{Model: traffic.ModelPoisson, RateBps: 2e5},
		Faults:  &fault.Schedule{GTPULossRate: 0.05},
	}
}

// fleetTraceSpec is the fleet capture/replay scenario: a mobile
// two-cell co-channel fleet under faults, whose UEs hand over mid-phase.
func fleetTraceSpec() Spec {
	return Spec{
		Terrain: "FLAT", UEs: 8, Epochs: 2, Seed: 21, ServeS: 5,
		Traffic:              &traffic.Spec{Model: traffic.ModelPoisson, RateBps: 2e5},
		Faults:               &fault.Schedule{GTPULossRate: 0.05, UEChurnRate: 0.3},
		Cells:                2,
		MobilityMS:           15,
		HandoverHysteresisDB: 1,
		HandoverTTTs:         0.1,
	}
}

// captureAndReplay runs spec plainly and with trace capture, requires
// the capturing run to be byte-identical to the plain one, replays the
// trace, and requires every replayed epoch to be byte-identical to the
// captured one. It returns the captured result.
func captureAndReplay(t *testing.T, spec Spec) *Result {
	t.Helper()
	plain, _, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := MarshalResult(plain)
	if err != nil {
		t.Fatal(err)
	}

	trace := filepath.Join(t.TempDir(), "run.trace")
	captured, _, err := Run(context.Background(), spec, Options{RecordTrace: trace})
	if err != nil {
		t.Fatal(err)
	}
	capturedJSON, err := MarshalResult(captured)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, capturedJSON) {
		t.Fatal("capturing changed the run")
	}

	replay := spec
	replay.Traffic = &traffic.Spec{Mode: traffic.ModeReplay, TraceFile: trace}
	replayed, _, err := Run(context.Background(), replay, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Epochs) != len(captured.Epochs) {
		t.Fatalf("replay ran %d epochs, capture ran %d", len(replayed.Epochs), len(captured.Epochs))
	}
	for i := range captured.Epochs {
		want, err := json.Marshal(captured.Epochs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(replayed.Epochs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("epoch %d differs under replay:\n--- captured ---\n%s\n--- replayed ---\n%s", i+1, want, got)
		}
	}
	return captured
}

// TestTraceCaptureReplayByteIdentical is the acceptance contract: a
// captured trace replayed via traffic mode "replay" reproduces the
// original run's per-UE KPI rows byte for byte — and capturing never
// changes the capturing run itself.
func TestTraceCaptureReplayByteIdentical(t *testing.T) {
	captureAndReplay(t, traceSpec())
}

// TestFleetTraceCaptureReplayByteIdentical is the same contract on a
// mobile fleet: capture and replay run in the one serving loop, so the
// replayed epochs — handovers, per-cell rows and fault deltas included
// — match the capturing run byte for byte.
func TestFleetTraceCaptureReplayByteIdentical(t *testing.T) {
	res := captureAndReplay(t, fleetTraceSpec())
	var handovers uint64
	for _, ep := range res.Epochs {
		handovers += ep.Handover.Successes
	}
	if handovers == 0 {
		t.Fatal("fleet trace scenario completed no handover; the mid-phase cell change went unchecked")
	}
}

// TestReplayRejectsBadArrivals edits one arrival or the first UE's
// phase-start position in a captured trace, re-writes it with a valid
// container CRC, and replays it: every arrival outside the recorded
// phase — an unknown UE index, a packet size no generator emits, a
// time that is not finite, outside the phase or earlier than its
// predecessor — and every position off the terrain must fail the run
// with an error, never a panic, on a single UAV and on a fleet.
func TestReplayRejectsBadArrivals(t *testing.T) {
	edits := []struct {
		name string
		edit func(ph *traffic.TracePhase, k int)
	}{
		{"bytes-70000", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].Bytes = 70000 }},
		{"bytes-negative", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].Bytes = -1 }},
		{"bytes-zero", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].Bytes = 0 }},
		{"ue-99", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].UE = 99 }},
		{"ue-negative", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].UE = -1 }},
		{"t-nan", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].T = math.NaN() }},
		{"t-inf", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].T = math.Inf(1) }},
		{"t-negative", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].T = -0.5 }},
		{"t-past-phase", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].T = 1e3 }},
		{"t-decreasing", func(ph *traffic.TracePhase, k int) { ph.Arrivals[k].T = ph.Arrivals[k-1].T / 2 }},
		{"x-nan", func(ph *traffic.TracePhase, _ int) { ph.UEs[0].X = math.NaN() }},
		{"x-inf", func(ph *traffic.TracePhase, _ int) { ph.UEs[0].X = math.Inf(1) }},
		{"x-minus-1e6", func(ph *traffic.TracePhase, _ int) { ph.UEs[0].X = -1e6 }},
		{"x-1e300", func(ph *traffic.TracePhase, _ int) { ph.UEs[0].X = 1e300 }},
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"single-uav", traceSpec()},
		{"fleet", fleetTraceSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			good := filepath.Join(dir, "good.trace")
			if _, _, err := Run(context.Background(), tc.spec, Options{RecordTrace: good}); err != nil {
				t.Fatal(err)
			}
			for _, ed := range edits {
				tr, err := traffic.ReadTraceFile(good)
				if err != nil {
					t.Fatal(err)
				}
				as := tr.Phases[0].Arrivals
				if len(as) < 4 || as[len(as)/2-1].T <= 0 {
					t.Fatalf("captured phase too sparse to edit: %d arrivals", len(as))
				}
				ed.edit(&tr.Phases[0], len(as)/2)
				bad := filepath.Join(dir, ed.name+".trace")
				if _, err := tr.WriteFile(bad); err != nil {
					t.Fatal(err)
				}
				replay := tc.spec
				replay.Traffic = &traffic.Spec{Mode: traffic.ModeReplay, TraceFile: bad}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: replay panicked: %v", ed.name, r)
						}
					}()
					if _, _, err := Run(context.Background(), replay, Options{}); err == nil {
						t.Errorf("%s: replay of a bad trace accepted", ed.name)
					}
				}()
			}
		})
	}
}

func TestReplayWrongScenarioRejected(t *testing.T) {
	spec := traceSpec()
	trace := filepath.Join(t.TempDir(), "run.trace")
	if _, _, err := Run(context.Background(), spec, Options{RecordTrace: trace}); err != nil {
		t.Fatal(err)
	}
	wrong := spec
	wrong.Seed = 22
	wrong.Traffic = &traffic.Spec{Mode: traffic.ModeReplay, TraceFile: trace}
	if _, _, err := Run(context.Background(), wrong, Options{}); err == nil {
		t.Fatal("replay into a different scenario accepted")
	}
	// The matching scenario must still load.
	right := spec
	right.Traffic = &traffic.Spec{Mode: traffic.ModeReplay, TraceFile: trace}
	if _, _, err := Run(context.Background(), right, Options{}); err != nil {
		t.Fatalf("replay into the capturing scenario rejected: %v", err)
	}
}

func TestRecordTraceValidation(t *testing.T) {
	ctx := context.Background()
	trace := filepath.Join(t.TempDir(), "t.trace")

	fullBuffer := traceSpec()
	fullBuffer.Traffic = nil
	if _, _, err := Run(ctx, fullBuffer, Options{RecordTrace: trace}); err == nil {
		t.Fatal("capture without a packet model accepted")
	}

	withCkpt := traceSpec()
	if _, _, err := Run(ctx, withCkpt, Options{
		RecordTrace: trace,
		Checkpoint:  &CheckpointConfig{Dir: t.TempDir()},
	}); err == nil {
		t.Fatal("capture combined with checkpointing accepted")
	}
}
