package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// A poisoned seed panics mid-run; the per-job recover converts the
// panic into an ordinary failed job — deterministic "panic: <value>"
// error, stack trace on the side — instead of crashing the daemon.
func TestPoisonSeedPanicBecomesFailedJob(t *testing.T) {
	reg := metrics.NewRegistry()
	s := mustNew(t, Config{
		QueueCap:   4,
		Workers:    1,
		JobTimeout: time.Minute,
		Registry:   reg,
		Chaos:      &ChaosConfig{PoisonSeeds: []int64{9}},
	})
	s.Start()
	defer s.Shutdown(context.Background()) //nolint:errcheck

	job, err := s.Submit(tinySpec(9))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if job.State() != JobFailed {
		t.Fatalf("poisoned job state = %s, want failed", job.State())
	}
	env := job.envelope(false)
	if env.Error != "panic: chaos: poison seed 9" {
		t.Errorf("error = %q, want deterministic panic message", env.Error)
	}
	if !strings.Contains(env.Stack, "goroutine") {
		t.Errorf("failed job carries no stack trace: %q", env.Stack)
	}
	if v := reg.Counter("skyran_panic_recovered_total", "").Value(); v != 1 {
		t.Errorf("panic_recovered_total = %v, want 1", v)
	}

	// The daemon survived: a healthy seed still runs to completion.
	ok, err := s.Submit(tinySpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ok)
	if ok.State() != JobSucceeded {
		t.Fatalf("healthy job after a panic: %s", ok.State())
	}
}

// Consecutive panics from the same spec fingerprint trip the
// quarantine: further jobs for it fail fast (with the run never
// started) while other specs keep running, and /readyz reports the
// quarantined count.
func TestConsecutivePanicsQuarantine(t *testing.T) {
	reg := metrics.NewRegistry()
	s := mustNew(t, Config{
		QueueCap:        8,
		Workers:         1,
		JobTimeout:      time.Minute,
		Registry:        reg,
		QuarantineAfter: 2,
		Chaos:           &ChaosConfig{PoisonSeeds: []int64{7}},
	})
	s.Start()
	defer s.Shutdown(context.Background()) //nolint:errcheck

	for i := 0; i < 2; i++ {
		j, err := s.Submit(tinySpec(7))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != JobFailed {
			t.Fatalf("poisoned run %d: %s", i, j.State())
		}
	}
	if n := s.QuarantinedJobs(); n != 1 {
		t.Fatalf("quarantined fingerprints = %d, want 1", n)
	}

	// Third dispatch: failed fast by the quarantine, not by a panic.
	j, err := s.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	env := j.envelope(false)
	if j.State() != JobFailed || !strings.Contains(env.Error, "quarantined after 2 consecutive panics") {
		t.Fatalf("quarantined job: state=%s error=%q", j.State(), env.Error)
	}
	if env.Stack != "" {
		t.Error("fail-fast rejection should not carry a stack trace")
	}
	if v := reg.Counter("skyran_panic_recovered_total", "").Value(); v != 2 {
		t.Errorf("panic_recovered_total = %v, want 2 (no third panic)", v)
	}
	if v := reg.Counter("skyran_quarantine_rejections_total", "").Value(); v != 1 {
		t.Errorf("quarantine_rejections_total = %v, want 1", v)
	}
	if v := reg.Gauge("skyran_quarantined_jobs", "").Value(); v != 1 {
		t.Errorf("skyran_quarantined_jobs = %v, want 1", v)
	}

	// An unpoisoned spec is a different fingerprint: unaffected.
	ok, err := s.Submit(tinySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ok)
	if ok.State() != JobSucceeded {
		t.Fatalf("healthy job while another spec is quarantined: %s", ok.State())
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep struct {
		Quarantined int `json:"quarantined_jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Errorf("/readyz quarantined_jobs = %d, want 1", rep.Quarantined)
	}
}

// Restart-time journal GC: terminal job records beyond JournalRetain
// are collected oldest-first, together with their checkpoint
// directories, and counted.
func TestJobJournalGCRetention(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{QueueCap: 8, Workers: 1, JobTimeout: time.Minute, CheckpointDir: dir})
	s.Start()
	for i := int64(1); i <= 3; i++ {
		j, err := s.Submit(tinySpec(i))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != JobSucceeded {
			t.Fatalf("job seed %d: %s", i, j.State())
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	s2 := mustNew(t, Config{QueueCap: 8, Workers: 1, JobTimeout: time.Minute, CheckpointDir: dir, JournalRetain: 1, Registry: reg})
	defer s2.Shutdown(context.Background()) //nolint:errcheck
	left, err := filepath.Glob(filepath.Join(dir, "journal", "j*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || !strings.HasSuffix(left[0], "j3.ckpt") {
		t.Fatalf("retention left %v, want only j3.ckpt", left)
	}
	if v := reg.Counter("skyran_journal_gc_total", "").Value(); v != 2 {
		t.Errorf("journal_gc_total = %v, want 2", v)
	}
	for _, id := range []string{"j1", "j2"} {
		if _, err := os.Stat(filepath.Join(dir, "jobs", id)); !os.IsNotExist(err) {
			t.Errorf("checkpoint dir for collected job %s still exists", id)
		}
	}
	// Collected IDs are not reissued: the next submission advances.
	j4, err := s2.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID() != "j4" {
		t.Errorf("post-GC job ID = %s, want j4", j4.ID())
	}
}
