package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rem"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tinySpec is the smallest interesting job: FLAT terrain runs in ~1 s
// and the skyran controller leaves a populated REM store.
func tinySpec(seed int64) scenario.Spec {
	return scenario.Spec{Terrain: "FLAT", UEs: 3, BudgetM: 200, Epochs: 1, Seed: seed, ServeS: 1}
}

func postJob(t *testing.T, ts *httptest.Server, spec scenario.Spec) (*http.Response, jobEnvelope) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env jobEnvelope
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
	}
	return resp, env
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish (state %s)", j.ID(), j.State())
	}
}

// TestEndToEnd is the acceptance test from the issue: overflow gets
// 429, completed jobs are byte-identical to the direct skyranctl-path
// run at 1 and 8 workers, /metrics reflects the job counts, and a
// SIGTERM-equivalent drain leaks no goroutines.
func TestEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	// The reference result comes straight down the skyranctl path.
	res, _, err := scenario.Run(context.Background(), tinySpec(7), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const queueCap = 2
			s := mustNew(t, Config{QueueCap: queueCap, Workers: workers, JobTimeout: time.Minute})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// Fill the queue before starting the workers so the
			// overflow outcome is deterministic.
			var jobs []*Job
			for i := 0; i < queueCap; i++ {
				resp, env := postJob(t, ts, tinySpec(7))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %d: status %d", i, resp.StatusCode)
				}
				if want := fmt.Sprintf("j%d", i+1); env.ID != want {
					t.Fatalf("job id = %q, want %q", env.ID, want)
				}
				j, ok := s.Get(env.ID)
				if !ok {
					t.Fatalf("job %s not visible after submit", env.ID)
				}
				jobs = append(jobs, j)
			}
			resp, _ := postJob(t, ts, tinySpec(7))
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 response should carry Retry-After")
			}

			s.Start()
			for _, j := range jobs {
				waitDone(t, j)
				if st := j.State(); st != JobSucceeded {
					t.Fatalf("job %s finished %s", j.ID(), st)
				}
				code, got := getBody(t, ts.URL+"/v1/jobs/"+j.ID()+"/result")
				if code != http.StatusOK {
					t.Fatalf("result status %d", code)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("job %s result differs from the direct skyranctl-path run", j.ID())
				}
			}

			// Metrics reflect what the server just did.
			code, metricsText := getBody(t, ts.URL+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("metrics status %d", code)
			}
			for _, want := range []string{
				"skyrand_jobs_accepted_total 2",
				"skyrand_jobs_rejected_total 1",
				"skyrand_jobs_completed_total 2",
				"skyrand_queue_depth 0",
				"# TYPE skyrand_epoch_latency_seconds histogram",
				"skyrand_epoch_latency_seconds_count 2",
			} {
				if !strings.Contains(string(metricsText), want) {
					t.Errorf("metrics missing %q", want)
				}
			}

			// SIGTERM-equivalent drain: readiness flips, submissions are
			// refused, workers exit.
			drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := s.Shutdown(drainCtx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
				t.Errorf("readyz during drain: status %d, want 503", code)
			}
			if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
				t.Errorf("healthz during drain: status %d, want 200", code)
			}
			if resp, _ := postJob(t, ts, tinySpec(7)); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("submit during drain: status %d, want 503", resp.StatusCode)
			}
		})
	}

	// No goroutines may outlive the drained servers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestEventsStreamAndREM(t *testing.T) {
	s := mustNew(t, Config{QueueCap: 4, Workers: 1, JobTimeout: time.Minute})
	s.Start()
	defer s.Shutdown(context.Background()) //nolint:errcheck
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, env := postJob(t, ts, tinySpec(11))

	// Stream the telemetry while the job runs; the stream must replay
	// history, follow live emission, and close when the job finishes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var recs []trace.Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var r trace.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Kind != trace.KindMeta {
		t.Fatalf("stream should start with meta, got %d records", len(recs))
	}
	var epochs int
	for _, r := range recs {
		if r.Kind == trace.KindEpoch {
			epochs++
		}
	}
	if epochs != 1 {
		t.Errorf("streamed %d epoch records, want 1", epochs)
	}

	j, _ := s.Get(env.ID)
	waitDone(t, j)

	// A late reader replays the full, now-closed log.
	code, replay := getBody(t, ts.URL+"/v1/jobs/"+env.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("replay status %d", code)
	}
	if n := strings.Count(string(replay), "\n"); n != len(recs) {
		t.Errorf("replay has %d lines, live stream had %d", n, len(recs))
	}

	// The REM snapshot round-trips through rem.LoadStore.
	code, snap := getBody(t, ts.URL+"/v1/jobs/"+env.ID+"/rem")
	if code != http.StatusOK {
		t.Fatalf("rem status %d", code)
	}
	store, err := rem.LoadStore(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("snapshot store is empty")
	}

	// Point queries evaluate every stored REM.
	pos := store.Positions()[0]
	code, body := getBody(t, fmt.Sprintf("%s/v1/jobs/%s/rem/query?x=%g&y=%g", ts.URL, env.ID, pos.X, pos.Y))
	if code != http.StatusOK {
		t.Fatalf("rem/query status %d: %s", code, body)
	}
	var q struct {
		REMs []rem.PointValue `json:"rems"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.REMs) != store.Len() {
		t.Errorf("query returned %d REM values, store has %d", len(q.REMs), store.Len())
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+env.ID+"/rem/query?x=abc&y=0"); code != http.StatusBadRequest {
		t.Errorf("malformed query: status %d, want 400", code)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	// Workers not started: the first job stays queued.
	s := mustNew(t, Config{QueueCap: 4, Workers: 1, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, env := postJob(t, ts, tinySpec(3))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+env.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j, _ := s.Get(env.ID)
	waitDone(t, j)
	if st := j.State(); st != JobCanceled {
		t.Fatalf("canceled queued job state = %s", st)
	}
	code, _ := getBody(t, ts.URL+"/v1/jobs/"+env.ID+"/result")
	if code != http.StatusGone {
		t.Errorf("result of canceled job: status %d, want 410", code)
	}

	// The worker must skip the canceled job and run the next one.
	_, env2 := postJob(t, ts, tinySpec(4))
	s.Start()
	j2, _ := s.Get(env2.ID)
	waitDone(t, j2)
	if st := j2.State(); st != JobSucceeded {
		t.Fatalf("job after canceled one finished %s", st)
	}

	// Cancel a running job: a long CAMPUS run observes ctx at phase
	// boundaries.
	long := scenario.Spec{Terrain: "CAMPUS", UEs: 6, BudgetM: 800, Epochs: 50, Seed: 1, ServeS: 0}
	_, env3 := postJob(t, ts, long)
	j3, _ := s.Get(env3.ID)
	for j3.State() == JobQueued {
		time.Sleep(5 * time.Millisecond)
	}
	if !s.Cancel(env3.ID) {
		t.Fatal("cancel returned false")
	}
	waitDone(t, j3)
	if st := j3.State(); st != JobCanceled {
		t.Fatalf("canceled running job state = %s", st)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobTimeout(t *testing.T) {
	s := mustNew(t, Config{QueueCap: 2, Workers: 1, JobTimeout: 50 * time.Millisecond})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, env := postJob(t, ts, scenario.Spec{Terrain: "CAMPUS", UEs: 6, BudgetM: 800, Epochs: 50, Seed: 1})
	j, _ := s.Get(env.ID)
	waitDone(t, j)
	if st := j.State(); st != JobCanceled {
		t.Fatalf("timed-out job state = %s", st)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, Config{QueueCap: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"bad JSON":      "{",
		"unknown field": `{"terrain":"FLAT","warp":9}`,
		"bad spec":      `{"topology":"ring"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// trafficSpec is tinySpec driving the bursty discrete-event workload
// through the serving phase.
func trafficSpec(seed int64) scenario.Spec {
	s := tinySpec(seed)
	s.Traffic = &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 3e6}
	return s
}

// TestTrafficJobDeterministicAcrossWorkers is the issue's golden test:
// per-UE KPI rows from a seeded bursty scenario must be byte-identical
// across runs and across worker counts, and the daemon must surface the
// traffic counters on /metrics.
func TestTrafficJobDeterministicAcrossWorkers(t *testing.T) {
	res, _, err := scenario.Run(context.Background(), trafficSpec(7), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].Traffic == nil || len(res.Epochs[0].Traffic.KPIs) == 0 {
		t.Fatal("reference run has no traffic KPIs")
	}

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := mustNew(t, Config{QueueCap: 8, Workers: workers, JobTimeout: time.Minute})
			s.Start()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var jobs []*Job
			for i := 0; i < 4; i++ {
				resp, env := postJob(t, ts, trafficSpec(7))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %d: status %d", i, resp.StatusCode)
				}
				j, _ := s.Get(env.ID)
				jobs = append(jobs, j)
			}
			for _, j := range jobs {
				waitDone(t, j)
				code, body := getBody(t, ts.URL+"/v1/jobs/"+j.ID()+"/result")
				if code != http.StatusOK {
					t.Fatalf("result %s: status %d", j.ID(), code)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("job %s result bytes differ from the reference run", j.ID())
				}
			}

			code, body := getBody(t, ts.URL+"/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics: status %d", code)
			}
			for _, name := range []string{
				"skyran_traffic_offered_bytes_total",
				"skyran_traffic_delivered_bytes_total",
				"skyran_traffic_dropped_bytes_total",
				"skyran_bearer_backlog_packets",
				"skyran_bearer_peak_queue_depth",
				"skyran_traffic_ue_mean_delay_seconds",
			} {
				if !strings.Contains(string(body), name) {
					t.Errorf("/metrics missing %s", name)
				}
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFleetJobMetrics: a multi-cell job served over HTTP matches the
// direct scenario run byte for byte and surfaces the fleet metrics —
// handover counters, SINR gauges, aggregate and per-cell Jain fairness
// — on /metrics.
func TestFleetJobMetrics(t *testing.T) {
	spec := scenario.Spec{
		Terrain: "FLAT", UEs: 6, Epochs: 2, Seed: 9, ServeS: 10,
		Traffic:              &traffic.Spec{Model: traffic.ModelCBR, RateBps: 4e5},
		Cells:                3,
		HandoverHysteresisDB: 1,
		HandoverTTTs:         0.1,
		MobilityMS:           20,
	}
	res, _, err := scenario.Run(context.Background(), spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{QueueCap: 2, Workers: 1, JobTimeout: time.Minute})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, env := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	j, _ := s.Get(env.ID)
	waitDone(t, j)
	code, body := getBody(t, ts.URL+"/v1/jobs/"+j.ID()+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("fleet job result differs from the direct scenario run")
	}

	code, mtext := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, name := range []string{
		"skyran_handover_attempts_total",
		"skyran_handover_successes_total",
		"skyran_handover_pingpongs_total",
		"skyran_handover_interruption_seconds_total",
		"skyran_sinr_min_db",
		"skyran_sinr_mean_db",
		"skyran_traffic_jain_fairness",
		"skyran_cell1_jain_fairness",
		"skyran_cell3_ues",
	} {
		if !strings.Contains(string(mtext), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if strings.Contains(string(mtext), "skyran_handover_successes_total 0\n") {
		t.Error("fleet job completed no handovers according to /metrics")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// recSpec is a multi-epoch job that leaves several checkpoints behind.
func recSpec(seed int64) scenario.Spec {
	return scenario.Spec{Terrain: "FLAT", UEs: 3, BudgetM: 200, Epochs: 3, Seed: seed, ServeS: 1}
}

// TestCheckpointDirFailFast: a daemon configured with an unusable
// checkpoint dir must refuse to start, not fail at the first write.
func TestCheckpointDirFailFast(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The parent path is a regular file, so MkdirAll must fail even for
	// a privileged user.
	if _, err := New(Config{CheckpointDir: filepath.Join(blocker, "ckpt")}); err == nil {
		t.Fatal("New accepted a checkpoint dir under a regular file")
	}
}

// TestJournalAndCheckpointLayout: a checkpointing daemon leaves the
// on-disk layout recovery depends on — journal/<id>.ckpt tracking the
// lifecycle and jobs/<id>/epoch-*.ckpt snapshots — and surfaces the
// checkpoint counters on /metrics.
func TestJournalAndCheckpointLayout(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{QueueCap: 4, Workers: 1, JobTimeout: time.Minute, CheckpointDir: dir})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, env := postJob(t, ts, recSpec(7))
	j, _ := s.Get(env.ID)
	waitDone(t, j)
	if st := j.State(); st != JobSucceeded {
		t.Fatalf("job finished %s", st)
	}

	box, err := checkpoint.ReadFile(filepath.Join(dir, "journal", env.ID+checkpoint.FileExt))
	if err != nil {
		t.Fatalf("journal entry: %v", err)
	}
	b, ok := box.Section("job")
	if !ok {
		t.Fatal("journal entry has no job section")
	}
	var ent journalEntry
	if err := json.Unmarshal(b, &ent); err != nil {
		t.Fatal(err)
	}
	if ent.ID != env.ID || ent.State != JobSucceeded {
		t.Fatalf("journal entry %+v", ent)
	}

	files, err := checkpoint.ListDir(filepath.Join(dir, "jobs", env.ID))
	if err != nil || len(files) != 3 {
		t.Fatalf("checkpoint files %v, %v (want 3)", files, err)
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"skyran_checkpoint_writes_total 3",
		"skyran_checkpoint_bytes_total",
		"# TYPE skyran_checkpoint_write_seconds histogram",
		"skyran_checkpoint_recoveries_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverInterruptedJob is the in-process version of the SIGKILL
// smoke test: given the on-disk layout a crashed daemon leaves behind
// (a journal entry stuck in "running" plus epoch checkpoints, the
// newest deliberately corrupted), a fresh daemon on the same dir must
// re-enqueue the job under its original ID, resume it from the newest
// intact checkpoint, and finish with bytes identical to an
// uninterrupted reference run.
func TestRecoverInterruptedJob(t *testing.T) {
	spec := recSpec(7)
	ref, _, err := scenario.Run(context.Background(), spec, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scenario.MarshalResult(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the crash leftovers: checkpoints from a partial run and
	// a journal entry that never reached a terminal state.
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "j1")
	if _, _, err := scenario.Run(context.Background(), spec, scenario.Options{
		Checkpoint: &scenario.CheckpointConfig{Dir: jobDir},
	}); err != nil {
		t.Fatal(err)
	}
	files, err := checkpoint.ListDir(jobDir)
	if err != nil || len(files) != 3 {
		t.Fatalf("checkpoint files %v, %v", files, err)
	}
	raw, err := os.ReadFile(files[2])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(files[2], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	normalized := spec
	if err := normalized.Normalize(); err != nil {
		t.Fatal(err)
	}
	entJSON, err := json.Marshal(journalEntry{ID: "j1", Spec: normalized, State: JobRunning})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal", "j1.json"), entJSON, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{QueueCap: 4, Workers: 2, JobTimeout: time.Minute, CheckpointDir: dir})
	j, ok := s.Get("j1")
	if !ok {
		t.Fatal("interrupted job not re-enqueued")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitDone(t, j)
	if st := j.State(); st != JobSucceeded {
		j.mu.Lock()
		msg := j.errMsg
		j.mu.Unlock()
		t.Fatalf("recovered job finished %s: %s", st, msg)
	}
	code, got := getBody(t, ts.URL+"/v1/jobs/j1/result")
	if code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered job's result differs from the uninterrupted reference run")
	}
	code, body := getBody(t, ts.URL+"/v1/jobs/j1")
	if code != http.StatusOK {
		t.Fatalf("job status %d", code)
	}
	var envl jobEnvelope
	if err := json.Unmarshal(body, &envl); err != nil {
		t.Fatal(err)
	}
	if !envl.Recovered {
		t.Error("job envelope does not mark the job recovered")
	}
	if !strings.HasPrefix(envl.ResumeError, "epoch-00003.ckpt: ") {
		t.Errorf("job envelope resume_error %q, want the corrupt epoch-00003.ckpt", envl.ResumeError)
	}

	// New submissions must not collide with the recovered job's ID.
	_, env2 := postJob(t, ts, tinySpec(3))
	if env2.ID != "j2" {
		t.Errorf("post-recovery job ID = %s, want j2", env2.ID)
	}
	j2, _ := s.Get(env2.ID)
	waitDone(t, j2)

	code, body = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(string(body), "skyran_checkpoint_recoveries_total 1") {
		t.Error("metrics missing skyran_checkpoint_recoveries_total 1")
	}
	if !strings.Contains(string(body), "skyran_checkpoint_resume_failures_total 1\n") {
		t.Error("metrics missing skyran_checkpoint_resume_failures_total 1 (the corrupt newest checkpoint)")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
