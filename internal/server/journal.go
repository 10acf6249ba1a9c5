package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
)

// The job journal makes the daemon crash-recoverable. When Config
// enables checkpointing, every job gets a durable record at
// journal/<id>.ckpt under the checkpoint dir: a KindJobJournal
// container whose "job" section holds its spec and lifecycle state,
// rewritten atomically at each transition. A restarted daemon loads
// the intact records, re-enqueues every non-terminal job under its
// original ID, and resumes each from its newest intact checkpoint
// (jobs/<id>/epoch-*.ckpt) — falling back to older snapshots on CRC
// failure and to a fresh run when none survive. Determinism makes the
// fallback safe: a fresh run of the same spec produces the same bytes
// a resumed run would.

// jobJournalVersion is the payload version of KindJobJournal.
const jobJournalVersion = 1

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

// encodeJobRecord is the writer's encoding of one record.
func encodeJobRecord(ent journalEntry) (*checkpoint.Container, error) {
	b, err := json.Marshal(ent)
	if err != nil {
		return nil, err
	}
	box := checkpoint.New(checkpoint.KindJobJournal, jobJournalVersion, 0)
	box.Add("job", b)
	return box, nil
}

// decodeJobRecord reads the record journaled as id.
func decodeJobRecord(id string, box *checkpoint.Container) (ent journalEntry, err error) {
	b, ok := box.Section("job")
	if !ok {
		return ent, errors.New("server: job record without a job section")
	}
	if err := json.Unmarshal(b, &ent); err != nil {
		return ent, err
	}
	if ent.ID != id {
		return ent, fmt.Errorf("server: record %s holds job %q", id, ent.ID)
	}
	return ent, nil
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
	if s.journal == nil {
		return
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	ent := journalEntry{ID: j.id, Spec: j.spec, State: j.state, Recovered: j.recovered, IdemKey: j.idemKey, CkptDir: j.ckptDir, Error: j.errMsg, Stack: j.panicStack}
	j.mu.Unlock()
	if box, err := encodeJobRecord(ent); err == nil {
		s.journal.Write(ent.ID, box) //nolint:errcheck // best-effort, see above
	}
}

// loadJournal reads every intact job record, in ascending ID order,
// and counts the damaged ones. It first migrates the j<N>.json records
// an older daemon wrote, once: each is read with the old rule, written
// as a container and deleted. A JSON record whose container already
// exists is stale and is deleted unread; one that does not parse stays
// and is counted.
func loadJournal(j *checkpoint.Journal) (entries []journalEntry, corrupt int) {
	for _, id := range j.IDs(".json") {
		legacy := filepath.Join(j.Dir, id+".json")
		if _, err := os.Stat(j.Path(id)); err == nil {
			os.Remove(legacy) //nolint:errcheck // a leftover is deleted as stale at the next start
			continue
		}
		var ent journalEntry
		b, _ := os.ReadFile(legacy) // an unreadable file fails to parse
		if json.Unmarshal(b, &ent) != nil || j.Num(ent.ID) < 0 {
			corrupt++
		} else if box, err := encodeJobRecord(ent); err == nil && j.Write(ent.ID, box) == nil {
			os.Remove(legacy) //nolint:errcheck // a leftover is deleted as stale at the next start
		}
	}
	corrupt += j.Load(func(id string, box *checkpoint.Container) error {
		ent, err := decodeJobRecord(id, box)
		if err == nil {
			entries = append(entries, ent)
		}
		return err
	})
	return entries, corrupt
}

// sweepJournal applies retention to terminal journal records at
// restart (JournalRetain, JournalMaxAge). A collected job loses its
// journal record and its checkpoint directory — the disk the retention
// knobs actually bound. Recovery already advanced nextID past every
// journaled job, so collected IDs are never reissued.
func (s *Server) sweepJournal(entries []journalEntry) {
	var term []string
	for _, ent := range entries {
		if terminal(ent.State) {
			term = append(term, ent.ID)
		}
	}
	for _, id := range s.journal.Sweep(term, s.cfg.JournalRetain, s.cfg.JournalMaxAge, time.Now()) {
		os.RemoveAll(s.jobCheckpointDir(id)) //nolint:errcheck
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
		if n := s.journal.Num(ent.ID); n > s.nextID {
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
