package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// skyrandBin is built once for the tests that start a daemon.
var skyrandBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	skyrandBin = filepath.Join(dir, "skyrand")
	if err := ensureSkyrand(skyrandBin); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs every workload's timed pass, and one traced pass, at
// smoke size, and checks each run is correct and reports every metric
// it owes.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var rec *runRecord
			if w.daemon {
				rec = runDaemonWorkload(ctx, w, 1, 0, true, skyrandBin, t.TempDir())
			} else {
				rec = runInProcess(ctx, w, 1, 0, true)
			}
			checkRecord(t, rec)
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := workloadByName("ctrl-5ue")
		dir := t.TempDir()
		rec := runTraced(ctx, w, 1, true, skyrandBin, dir, filepath.Join(dir, "spans.json"))
		checkRecord(t, rec)
		if _, err := os.Stat(rec.SpanFile); err != nil {
			t.Errorf("span file: %v", err)
		}
	})
}

func checkRecord(t *testing.T, rec *runRecord) {
	t.Helper()
	if !rec.Correct {
		t.Fatalf("run not correct: %d/%d jobs failed; problems: %s", rec.Failed, rec.Attempted, strings.Join(rec.Problems, "; "))
	}
	line := rec.line()
	if len(line.Metrics) != len(rec.defs()) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(rec.defs()))
	}
	if _, err := json.Marshal(line); err != nil {
		t.Errorf("result line does not encode: %v", err)
	}
	if _, err := json.Marshal(rec.forFile()); err != nil {
		t.Errorf("record does not encode: %v", err)
	}
	if rec.ResultSHA256 == "" || len(rec.SeedSHA256) != smokeSeeds {
		t.Errorf("digests missing: %q, %v", rec.ResultSHA256, rec.SeedSHA256)
	}
}

// TestReplicaMatchesScenario checks the traced replica against
// scenario.Run on one seed of each in-process workload.
func TestReplicaMatchesScenario(t *testing.T) {
	for _, w := range workloads {
		if w.daemon {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			spec := w.spec(3, true)
			res, _, err := scenario.Run(context.Background(), spec, scenario.Options{})
			if err != nil {
				t.Fatal(err)
			}
			out, err := replicate(context.Background(), newTracer(w.name), spec, layerSamples{})
			if err != nil {
				t.Fatal(err)
			}
			if err := matchReport(out, placementsOf(res)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckResultRejects feeds the output checks results that break
// each rule.
func TestCheckResultRejects(t *testing.T) {
	w, _ := workloadByName("ctrl-5ue")
	spec := w.spec(1, true)
	res, _, err := scenario.Run(context.Background(), spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := scenario.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkResult(good, spec); err != nil {
		t.Fatalf("a real result fails the checks: %v", err)
	}
	for name, mutate := range map[string]func(r *scenario.Result){
		"missing epoch": func(r *scenario.Result) { r.Epochs = r.Epochs[:0] },
		"relative > 1":  func(r *scenario.Result) { r.Epochs[0].RelativeThroughput = 1.5 },
		"bytes created": func(r *scenario.Result) {
			r.Epochs[0].Traffic.KPIs[0].DeliveredBytes += 1 + r.Epochs[0].Traffic.KPIs[0].OfferedBytes
		},
		"handover successes":  func(r *scenario.Result) { r.Epochs[0].Handover = &scenario.HandoverReport{Attempts: 1, Successes: 2} },
		"missing traffic row": func(r *scenario.Result) { r.Epochs[0].Traffic.KPIs = r.Epochs[0].Traffic.KPIs[1:] },
	} {
		var r scenario.Result
		if err := json.Unmarshal(good, &r); err != nil {
			t.Fatal(err)
		}
		mutate(&r)
		b, err := scenario.MarshalResult(&r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkResult(b, spec); err == nil {
			t.Errorf("%s: checks passed", name)
		}
	}
	if _, err := checkResult([]byte("{"), spec); err == nil {
		t.Error("truncated JSON passed the checks")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code: the
// same workloads with the same reasons, the same metrics with the same
// units and directions, and bounds inside the limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(f.EndToEnd), len(endToEndMetrics))
	}
	largest := 0.0
	for i, d := range endToEndMetrics {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, code has %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		largest = max(largest, e.Bound)
	}
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first with the largest bound (%v)", largest)
	}
	if len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(f.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		e := f.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %+v", i, e, d)
		}
	}
}

// TestRunShRefusesIncompleteTree runs bench/run.sh in a directory that
// holds only the benchmark: it must fail without printing a result.
func TestRunShRefusesIncompleteTree(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "bench", f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", "ctrl-5ue", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("run.sh succeeded without the repository")
	}
	if len(out) != 0 {
		t.Errorf("run.sh printed %q", out)
	}
}
