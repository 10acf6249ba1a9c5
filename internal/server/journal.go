package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
)

// The job journal makes the daemon crash-recoverable. When Config
// enables checkpointing, every job gets a durable record at
// journal/<id>.json under the checkpoint dir: its spec and lifecycle
// state, updated (atomic temp+rename) at each transition. A restarted
// daemon scans the journal, re-enqueues every non-terminal job under
// its original ID, and resumes each from its newest intact checkpoint
// (jobs/<id>/epoch-*.ckpt) — falling back to older snapshots on CRC
// failure and to a fresh run when none survive. Determinism makes the
// fallback safe: a fresh run of the same spec produces the same bytes
// a resumed run would.

// journalEntry is the durable wire form of one job's lifecycle record.
type journalEntry struct {
	ID        string        `json:"id"`
	Spec      scenario.Spec `json:"spec"`
	State     JobState      `json:"state"`
	Recovered bool          `json:"recovered,omitempty"`
	IdemKey   string        `json:"idem_key,omitempty"`
	CkptDir   string        `json:"ckpt_dir,omitempty"` // external shard checkpoint dir
	Error     string        `json:"error,omitempty"`    // terminal failure message
	Stack     string        `json:"stack,omitempty"`    // stack trace when the run died by panic
}

// journalPath returns the journal file for a job ID.
func (s *Server) journalPath(id string) string {
	return filepath.Join(s.journalDir, id+".json")
}

// jobCheckpointDir returns the per-job checkpoint directory.
func (s *Server) jobCheckpointDir(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, "jobs", id)
}

// writeJournal persists the job's current state. Best-effort after the
// startup writability probe: a transient write failure must not take
// down a running job, and the next transition rewrites the file.
//
// Writers race: the submitter journals "queued" after a worker can
// already see the job, and the worker journals each later transition.
// Each write holds the job's journalMu from reading the state to the
// rename, so the write that lands last also read the state last, and a
// stale "queued" or "running" record never overwrites a terminal one.
func (s *Server) writeJournal(j *Job) {
	if s.journalDir == "" {
		return
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	ent := journalEntry{ID: j.id, Spec: j.spec, State: j.state, Recovered: j.recovered, IdemKey: j.idemKey, CkptDir: j.ckptDir, Error: j.errMsg, Stack: j.panicStack}
	j.mu.Unlock()
	b, err := json.MarshalIndent(ent, "", "  ")
	if err != nil {
		return
	}
	writeFileAtomic(s.journalPath(ent.ID), append(b, '\n'))
}

// writeFileAtomic writes data to path via a same-directory temp file
// and rename, so readers never observe a torn journal entry. It
// delegates to the checkpoint package's raw writer so the disk chaos
// hook covers job journals too.
func writeFileAtomic(path string, data []byte) error {
	return checkpoint.WriteRawFileAtomic(path, data)
}

// probeCheckpointDirs creates the checkpoint layout and proves it
// writable, so a daemon with broken persistence fails fast at startup
// instead of discovering the problem at the first checkpoint.
func probeCheckpointDirs(root, journal string) error {
	for _, dir := range []string{root, filepath.Join(root, "jobs"), journal} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("server: checkpoint dir %s: %w", dir, err)
		}
	}
	probe, err := os.CreateTemp(journal, ".probe*")
	if err != nil {
		return fmt.Errorf("server: checkpoint dir %s not writable: %w", journal, err)
	}
	probe.Close()
	os.Remove(probe.Name()) //nolint:errcheck
	return nil
}

// loadJournal reads every journal entry, sorted by numeric job ID.
// Unreadable or malformed entries are skipped — recovery degrades to
// whatever survived the crash — and counted, so the daemon can
// surface the damage as skyran_journal_corrupt_total instead of
// silently forgetting jobs.
func loadJournal(dir string) (entries []journalEntry, corrupt int) {
	names, err := filepath.Glob(filepath.Join(dir, "j*.json"))
	if err != nil {
		return nil, 0
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			corrupt++
			continue
		}
		var ent journalEntry
		if err := json.Unmarshal(b, &ent); err != nil || jobNum(ent.ID) < 0 {
			corrupt++
			continue
		}
		entries = append(entries, ent)
	}
	sort.Slice(entries, func(i, j int) bool { return jobNum(entries[i].ID) < jobNum(entries[j].ID) })
	return entries, corrupt
}

// jobNum parses the numeric part of a "j<N>" job ID, or -1.
func jobNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if !strings.HasPrefix(id, "j") || err != nil || n <= 0 {
		return -1
	}
	return n
}

// sweepJournal applies retention to terminal journal records at
// restart: JournalRetain caps how many are kept (oldest numeric IDs
// collected first) and JournalMaxAge drops records whose file is
// older. A collected job loses its journal record and its checkpoint
// directory — the disk the retention knobs actually bound. Recovery
// already advanced nextID past every journaled job, so collected IDs
// are never reissued. Entries arrive sorted by numeric ID, making the
// sweep deterministic for a given directory state.
func (s *Server) sweepJournal(entries []journalEntry) {
	if s.journalDir == "" || (s.cfg.JournalRetain <= 0 && s.cfg.JournalMaxAge <= 0) {
		return
	}
	var term []journalEntry
	for _, ent := range entries {
		if terminal(ent.State) {
			term = append(term, ent)
		}
	}
	drop := make(map[string]bool)
	if s.cfg.JournalRetain > 0 {
		for i := 0; i < len(term)-s.cfg.JournalRetain; i++ {
			drop[term[i].ID] = true
		}
	}
	if s.cfg.JournalMaxAge > 0 {
		now := time.Now()
		for _, ent := range term {
			st, err := os.Stat(s.journalPath(ent.ID))
			if err == nil && now.Sub(st.ModTime()) > s.cfg.JournalMaxAge {
				drop[ent.ID] = true
			}
		}
	}
	for _, ent := range term {
		if !drop[ent.ID] {
			continue
		}
		if err := os.Remove(s.journalPath(ent.ID)); err != nil {
			continue
		}
		os.RemoveAll(s.jobCheckpointDir(ent.ID)) //nolint:errcheck
		s.mJournalGC.Inc()
	}
}

// recoverJobs re-enqueues every non-terminal journaled job under its
// original ID and advances nextID past every journaled job (terminal
// ones included) so new submissions never collide with old checkpoint
// directories. It returns the recovered jobs in submission order.
func (s *Server) recoverJobs(entries []journalEntry) []*Job {
	var recovered []*Job
	for _, ent := range entries {
		if n := jobNum(ent.ID); n > s.nextID {
			s.nextID = n
		}
		if terminal(ent.State) {
			continue
		}
		job := &Job{
			id:        ent.ID,
			spec:      ent.Spec,
			idemKey:   ent.IdemKey,
			ckptDir:   ent.CkptDir,
			state:     JobQueued,
			recovered: true,
			events:    newEventLog(),
			done:      make(chan struct{}),
		}
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		if ent.IdemKey != "" {
			s.idemKeys[ent.IdemKey] = job.id
		}
		recovered = append(recovered, job)
	}
	return recovered
}
