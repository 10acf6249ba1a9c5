package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
)

// TestJobRecordBitFlipsCaught: every single-bit flip of a job record is
// caught by the container CRCs and counted, never recovered as a job —
// neither as the journaled one nor as some other — and scrub lists the
// damaged record.
func TestJobRecordBitFlipsCaught(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	if _, err := s.Submit(tinySpec(7)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal", "j1.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restart := func() (*Server, float64) {
		t.Helper()
		reg := metrics.NewRegistry()
		s := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir, Registry: reg})
		return s, reg.Counter("skyran_journal_corrupt_total", "").Value()
	}
	for bit := 0; bit < 8*len(raw); bit++ {
		raw[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, corrupt := restart()
		if jobs := s2.Jobs(); len(jobs) != 0 {
			t.Fatalf("bit %d: flipped record recovered as job %s", bit, jobs[0].ID())
		}
		if corrupt != 1 {
			t.Fatalf("bit %d: skyran_journal_corrupt_total = %v, want 1", bit, corrupt)
		}
		if bit == 8*len(raw)/2 {
			rep, err := checkpoint.Scrub(dir, false)
			if err != nil || len(rep.Corrupt) != 1 || rep.Corrupt[0].Path != path {
				t.Fatalf("scrub of a flipped record: %+v, %v", rep, err)
			}
		}
		raw[bit/8] ^= 1 << (bit % 8)
	}

	// The pristine record still recovers: the loop above was not vacuous.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if s3, corrupt := restart(); corrupt != 0 {
		t.Fatalf("pristine record counted corrupt")
	} else if _, ok := s3.Get("j1"); !ok {
		t.Fatal("pristine record not recovered")
	}
}

// TestLegacyJSONJournalMigrates: the j<N>.json records an older daemon
// wrote are read once, rewritten as containers and deleted, while a
// JSON record next to a container of the same ID is stale and is
// deleted unread.
func TestLegacyJSONJournalMigrates(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(7)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, ent := range []journalEntry{
		{ID: "j2", Spec: spec, State: JobRunning},
		{ID: "j3", Spec: spec, State: JobRunning}, // stale: j3 went on to succeed
	} {
		b, err := json.MarshalIndent(ent, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jdir, ent.ID+".json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	box, err := encodeJobRecord(journalEntry{ID: "j3", Spec: spec, State: JobSucceeded})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.WriteFileAtomic(filepath.Join(jdir, "j3.ckpt"), box); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{QueueCap: 4, JobTimeout: time.Minute, CheckpointDir: dir})
	if j, ok := s.Get("j2"); !ok || !j.recovered {
		t.Fatal("running legacy record j2 not recovered")
	}
	if _, ok := s.Get("j3"); ok {
		t.Fatal("stale legacy record j3 recovered over its terminal container")
	}
	left, err := filepath.Glob(filepath.Join(jdir, "*.json"))
	if err != nil || len(left) != 0 {
		t.Fatalf("legacy records left behind: %v, %v", left, err)
	}
	for _, id := range []string{"j2", "j3"} {
		box, err := checkpoint.ReadFile(filepath.Join(jdir, id+".ckpt"))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if ent, err := decodeJobRecord(id, box); err != nil {
			t.Fatalf("%s: %v", id, err)
		} else if id == "j3" && ent.State != JobSucceeded {
			t.Fatalf("j3's terminal record was overwritten: %s", ent.State)
		}
	}
	j4, err := s.Submit(tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID() != "j4" {
		t.Errorf("post-migration job ID = %s, want j4", j4.ID())
	}
}

// TestChaosCrashDecisionsIgnoreRequests: a job run's crash decision is
// keyed by its run ordinal alone, so HTTP requests served between runs
// (each drawing a slow-handler decision) change none of them.
func TestChaosCrashDecisionsIgnoreRequests(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, SlowHandlerRate: 0.5, WorkerCrashRate: 0.5, MaxCrashes: 20}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	decisions := func(requestsPerRun int) []bool {
		st := newChaosState(cfg)
		out := make([]bool, 20)
		for i := range out {
			for range requestsPerRun {
				st.slowDelay()
			}
			_, out[i] = st.planCrash()
		}
		return out
	}
	want := decisions(0)
	if !slices.Contains(want, true) || !slices.Contains(want, false) {
		t.Fatalf("rate 0.5 drew one-sided decisions %v", want)
	}
	if got := decisions(3); !slices.Equal(got, want) {
		t.Fatalf("crash decisions moved with request traffic:\n got %v\nwant %v", got, want)
	}
}

// FuzzJobJournal drives the job-record reader with arbitrary container
// bytes. It must never panic, and a record it accepts must survive the
// writer's encoding: re-encoded and read back, it yields the same
// recovered state, compared as the writer's bytes (a nil and an empty
// list are one state).
func FuzzJobJournal(f *testing.F) {
	jr, err := checkpoint.OpenJournal(f.TempDir(), "j", checkpoint.KindJobJournal)
	if err != nil {
		f.Fatal(err)
	}
	spec := tinySpec(7)
	if err := spec.Normalize(); err != nil {
		f.Fatal(err)
	}
	written, err := encodeJobRecord(journalEntry{ID: "j1", Spec: spec, State: JobFailed, IdemKey: "k", Error: "boom"})
	if err != nil {
		f.Fatal(err)
	}
	// The same section under another kind, and a sealed record that
	// holds another job.
	job, _ := written.Section("job")
	foreign := checkpoint.New(checkpoint.KindCampaignJournal, jobJournalVersion, 0)
	foreign.Add("job", job)
	misfiled := checkpoint.New(checkpoint.KindJobJournal, jobJournalVersion, 0)
	misfiled.Add("job", []byte(`{"id":"j2","state":"queued"}`))
	var seeds [][]byte
	for _, box := range []*checkpoint.Container{written, foreign, misfiled} {
		b, err := box.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		seeds = append(seeds, b)
	}
	read := func(b []byte) (journalEntry, error) {
		box, err := jr.Decode(b)
		if err != nil {
			return journalEntry{}, err
		}
		return decodeJobRecord("j1", box)
	}
	if _, err := read(seeds[0]); err != nil {
		f.Fatalf("the writer's own record rejected: %v", err)
	}
	if _, err := read(seeds[1]); !errors.Is(err, checkpoint.ErrKind) {
		f.Fatalf("foreign-kind record: %v, want ErrKind", err)
	}
	if _, err := read(seeds[2]); err == nil {
		f.Fatal("record filed under another job's ID accepted")
	}
	encode := func(t *testing.T, ent journalEntry) []byte {
		box, err := encodeJobRecord(ent)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		b, err := box.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ent, err := read(data)
		if err != nil {
			return
		}
		b := encode(t, ent)
		again, err := read(b)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !bytes.Equal(encode(t, again), b) {
			t.Fatal("round trip changed the recovered state")
		}
	})
}
