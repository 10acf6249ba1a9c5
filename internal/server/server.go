// Package server implements skyrand, the SkyRAN control-plane daemon:
// an HTTP API that accepts scenario specs as jobs, runs them on a
// bounded worker pool over internal/scenario, and serves job status,
// results, live JSONL telemetry, REM snapshots and operational
// metrics. The serving path is deterministic: a job's result bytes are
// exactly what `skyranctl -json` prints for the same spec, regardless
// of worker count or queue order, because every job runs scenario.Run
// with state derived only from its own spec.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/rem"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Config tunes the daemon.
type Config struct {
	// QueueCap bounds the number of jobs waiting to run. Submissions
	// beyond it are rejected with 429 + Retry-After (backpressure, not
	// buffering). Default 16.
	QueueCap int
	// Workers is the number of concurrent scenario runners. 0 selects
	// the CPU count. Each worker additionally inherits the spec-level
	// parallelism inside core (fleet sectors, experiment fan-out).
	Workers int
	// JobTimeout caps one job's run time; past it the job is canceled.
	// Default 10 minutes.
	JobTimeout time.Duration
	// Registry receives operational metrics; nil creates a private one.
	Registry *metrics.Registry

	// CheckpointDir enables crash recovery: each job checkpoints its
	// simulation state there at epoch boundaries (jobs/<id>/) and keeps
	// a durable lifecycle record (journal/<id>.ckpt). A restarted
	// daemon pointed at the same dir re-enqueues interrupted jobs and
	// resumes them from their newest intact checkpoint. Empty disables
	// both. New fails fast if the dir is not writable.
	CheckpointDir string
	// CheckpointEvery is the epoch interval between checkpoints
	// (default 1: every epoch boundary).
	CheckpointEvery int
	// CheckpointRetain bounds the checkpoint files kept per job
	// (0 keeps all).
	CheckpointRetain int
	// JournalRetain caps how many terminal job journal records (and
	// their checkpoint directories) a restarted daemon keeps, oldest
	// IDs collected first (0 keeps all).
	JournalRetain int
	// JournalMaxAge collects terminal journal records whose file is
	// older at restart (0 keeps all). Non-terminal records are never
	// collected by either knob.
	JournalMaxAge time.Duration

	// Chaos enables daemon-level fault injection (slow handlers,
	// simulated worker crashes, poison seeds). Nil disables it.
	Chaos *ChaosConfig

	// QuarantineAfter is how many consecutive panics a spec fingerprint
	// may cause before its jobs are failed fast instead of run — so one
	// poisoned (spec, seed) point cannot crash workers forever or wedge
	// a campaign that keeps re-dispatching it. Default 3.
	QuarantineAfter int
}

// JobState is a job's lifecycle state. Transitions are linear:
// queued -> running -> {succeeded, failed, canceled}; a queued job can
// also go straight to canceled (DELETE before a worker picks it up).
type JobState string

// Job states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Job is one managed scenario run.
type Job struct {
	id        string
	spec      scenario.Spec
	recovered bool   // re-enqueued from the journal after a restart
	idemKey   string // client idempotency key, empty when none given
	ckptDir   string // external checkpoint/resume dir (cluster shard sub-jobs)

	events *eventLog
	done   chan struct{} // closed when the job reaches a terminal state

	// journalMu serializes the job's journal writes; see writeJournal.
	journalMu sync.Mutex

	mu         sync.Mutex
	state      JobState
	errMsg     string
	panicStack string // stack trace when the run died by panic
	resumeErr  string // the last checkpoint this run could not resume from, and why
	resultJSON []byte // canonical scenario.MarshalResult bytes
	store      *rem.Store
	remSnap    []byte // rem.Store.Save output, frozen at completion
	cancel     context.CancelFunc
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed once the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// terminal reports whether s is an end state.
func terminal(s JobState) bool {
	return s == JobSucceeded || s == JobFailed || s == JobCanceled
}

// Server owns the job queue, worker pool and metrics. Create with New,
// start the workers with Start, expose Handler over HTTP, and drain
// with Shutdown.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	journal *checkpoint.Journal // nil when checkpointing is disabled

	runCtx    context.Context // parent of every job context
	runCancel context.CancelFunc

	mu       sync.RWMutex // guards jobs/order/idemKeys/draining and queue sends
	jobs     map[string]*Job
	order    []string
	idemKeys map[string]string // idempotency key -> job ID
	nextID   int
	draining bool

	chaos *chaosState // nil unless Config.Chaos is active

	// Poison-job quarantine: spec fingerprints that panicked
	// QuarantineAfter times in a row are failed fast until restart.
	qmu         sync.Mutex
	panicStreak map[uint64]int
	quarantined map[uint64]bool

	queue chan *Job
	wg    sync.WaitGroup

	mAccepted  *metrics.Counter
	mRejected  *metrics.Counter
	mCompleted *metrics.Counter
	mFailed    *metrics.Counter
	mCanceled  *metrics.Counter
	gDepth     *metrics.Gauge
	gRunning   *metrics.Gauge
	hEpoch     *metrics.Histogram

	// Traffic-subsystem KPIs, aggregated over every traffic-driven
	// serving phase that completes on this daemon.
	mTrafficOffered   *metrics.Counter
	mTrafficDelivered *metrics.Counter
	mTrafficDropped   *metrics.Counter
	gBearerBacklog    *metrics.Gauge
	gBearerPeakQueue  *metrics.Gauge
	hUEDelay          *metrics.Histogram
	gJain             *metrics.Gauge

	// Multi-cell fleet metrics (handover engine + interference graph).
	mHOAttempts  *metrics.Counter
	mHOSuccesses *metrics.Counter
	mHOPingPongs *metrics.Counter
	mHOInterrupt *metrics.Counter
	gSINRMin     *metrics.Gauge
	gSINRMean    *metrics.Gauge

	// Checkpoint subsystem metrics.
	mCkptWrites *metrics.Counter
	mCkptBytes  *metrics.Counter
	hCkptWrite  *metrics.Histogram
	mRecovered  *metrics.Counter
	mResumeFail *metrics.Counter
	mJournalGC  *metrics.Counter

	// Fault-injection / chaos subsystem metrics.
	mJournalCorrupt    *metrics.Counter
	mWorkerCrashes     *metrics.Counter
	mSlowHandlers      *metrics.Counter
	mIdemReplays       *metrics.Counter
	mPanics            *metrics.Counter
	mQuarantineRejects *metrics.Counter
	gQuarantined       *metrics.Gauge
}

// New builds a server; call Start to launch the workers. With
// Config.CheckpointDir set it proves the checkpoint and journal
// directories writable (failing fast otherwise) and re-enqueues every
// interrupted job found in the journal.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	cfg.Workers = engine.WorkerCount(cfg.Workers)
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.normalize(); err != nil {
			return nil, err
		}
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}

	var journal *checkpoint.Journal
	var journaled []journalEntry
	var corruptEntries int
	if cfg.CheckpointDir != "" {
		err := os.MkdirAll(filepath.Join(cfg.CheckpointDir, "jobs"), 0o755)
		if err == nil {
			journal, err = checkpoint.OpenJournal(filepath.Join(cfg.CheckpointDir, "journal"), "j", checkpoint.KindJobJournal)
		}
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
		journaled, corruptEntries = loadJournal(journal)
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		journal:     journal,
		runCtx:      ctx,
		runCancel:   cancel,
		jobs:        make(map[string]*Job),
		idemKeys:    make(map[string]string),
		panicStreak: make(map[uint64]int),
		quarantined: make(map[uint64]bool),
		queue:       make(chan *Job, cfg.QueueCap+len(journaled)),

		mAccepted:  reg.Counter("skyrand_jobs_accepted_total", "Jobs admitted to the queue."),
		mRejected:  reg.Counter("skyrand_jobs_rejected_total", "Jobs rejected with 429 (queue full) or 503 (draining)."),
		mCompleted: reg.Counter("skyrand_jobs_completed_total", "Jobs that reached a terminal state."),
		mFailed:    reg.Counter("skyrand_jobs_failed_total", "Jobs that finished in error."),
		mCanceled:  reg.Counter("skyrand_jobs_canceled_total", "Jobs canceled by request, timeout or shutdown."),
		gDepth:     reg.Gauge("skyrand_queue_depth", "Jobs currently waiting in the queue."),
		gRunning:   reg.Gauge("skyrand_jobs_running", "Jobs currently executing."),
		hEpoch:     reg.Histogram("skyrand_epoch_latency_seconds", "Wall-clock latency per controller epoch.", nil),

		mTrafficOffered:   reg.Counter("skyran_traffic_offered_bytes_total", "Bytes offered by traffic generators across serving phases."),
		mTrafficDelivered: reg.Counter("skyran_traffic_delivered_bytes_total", "Bytes delivered to UEs across serving phases."),
		mTrafficDropped:   reg.Counter("skyran_traffic_dropped_bytes_total", "Bytes tail-dropped at bearer queues across serving phases."),
		gBearerBacklog:    reg.Gauge("skyran_bearer_backlog_packets", "Packets still queued at the end of the latest serving phase."),
		gBearerPeakQueue:  reg.Gauge("skyran_bearer_peak_queue_depth", "Deepest bearer queue observed in the latest serving phase."),
		hUEDelay:          reg.Histogram("skyran_traffic_ue_mean_delay_seconds", "Per-UE mean queueing delay per serving phase.", traffic.DelayBuckets),
		gJain:             reg.Gauge("skyran_traffic_jain_fairness", "Jain fairness index over per-UE throughput in the latest serving phase."),

		mHOAttempts:  reg.Counter("skyran_handover_attempts_total", "A3 handover triggers across fleet serving phases."),
		mHOSuccesses: reg.Counter("skyran_handover_successes_total", "Completed handovers across fleet serving phases."),
		mHOPingPongs: reg.Counter("skyran_handover_pingpongs_total", "Handovers that returned a UE to its previous cell within the ping-pong window."),
		mHOInterrupt: reg.Counter("skyran_handover_interruption_seconds_total", "Cumulative service interruption caused by handovers."),
		gSINRMin:     reg.Gauge("skyran_sinr_min_db", "Fleet max-min SINR objective at the latest epoch."),
		gSINRMean:    reg.Gauge("skyran_sinr_mean_db", "UE-weighted mean wideband SINR at the latest epoch."),

		mCkptWrites: reg.Counter("skyran_checkpoint_writes_total", "Checkpoint files written at epoch boundaries."),
		mCkptBytes:  reg.Counter("skyran_checkpoint_bytes_total", "Total bytes written to checkpoint files."),
		hCkptWrite:  reg.Histogram("skyran_checkpoint_write_seconds", "Wall-clock latency per checkpoint write.", nil),
		mRecovered:  reg.Counter("skyran_checkpoint_recoveries_total", "Interrupted jobs re-enqueued from the journal after a restart."),
		mResumeFail: reg.Counter("skyran_checkpoint_resume_failures_total", "Checkpoints a job could not resume from (or checkpoint directories it could not list); the job fell back to an older checkpoint or a rerun."),
		mJournalGC:  reg.Counter("skyran_journal_gc_total", "Terminal job journal records collected by retention at restart."),

		mJournalCorrupt:    reg.Counter("skyran_journal_corrupt_total", "Journal records skipped during recovery because they were unreadable or malformed."),
		mWorkerCrashes:     reg.Counter("skyrand_worker_crashes_total", "Simulated worker crashes injected by the chaos layer."),
		mSlowHandlers:      reg.Counter("skyrand_chaos_slow_handlers_total", "HTTP requests delayed by the chaos layer."),
		mIdemReplays:       reg.Counter("skyrand_idempotent_replays_total", "Job submissions answered from an existing job via Idempotency-Key."),
		mPanics:            reg.Counter("skyran_panic_recovered_total", "Simulation panics caught by the per-job recover and converted into failed jobs."),
		mQuarantineRejects: reg.Counter("skyran_quarantine_rejections_total", "Jobs failed fast because their spec fingerprint is quarantined."),
		gQuarantined:       reg.Gauge("skyran_quarantined_jobs", "Spec fingerprints currently quarantined after consecutive panics."),
	}
	if cfg.Chaos.active() {
		s.chaos = newChaosState(*cfg.Chaos)
	}
	s.mJournalCorrupt.Add(float64(corruptEntries))
	for _, job := range s.recoverJobs(journaled) {
		s.queue <- job
		s.writeJournal(job)
		s.mRecovered.Inc()
	}
	s.sweepJournal(journaled)
	return s, nil
}

// Start launches the worker pool. It must be called exactly once.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// ErrDraining is returned by Submit once Shutdown has begun.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// ErrQueueFull is returned by Submit when the queue is at capacity;
// the HTTP layer maps it to 429 + Retry-After.
var ErrQueueFull = errors.New("server: job queue full")

// Submit validates spec and enqueues it as a new job. The returned job
// is already visible under its ID. Backpressure is immediate: a full
// queue rejects rather than blocks, so clients always get a prompt
// accept-or-retry answer.
func (s *Server) Submit(spec scenario.Spec) (*Job, error) {
	job, _, err := s.SubmitIdem(spec, "")
	return job, err
}

// SubmitIdem is Submit with an optional idempotency key. A non-empty
// key that was already used returns the existing job (replayed=true)
// instead of enqueueing a duplicate — so a client retrying a
// submission across a network failure or daemon restart never
// double-runs a job. Keys survive restarts for every job the journal
// recovers.
func (s *Server) SubmitIdem(spec scenario.Spec, key string) (job *Job, replayed bool, err error) {
	if err := spec.Normalize(); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	job, replayed, err = s.enqueueLocked(spec, key, "")
	s.mu.Unlock()
	switch {
	case err != nil:
		s.mRejected.Inc()
		return nil, false, err
	case replayed:
		s.mIdemReplays.Inc()
		return job, true, nil
	}
	s.mAccepted.Inc()
	s.writeJournal(job)
	return job, false, nil
}

// enqueueLocked creates and enqueues one job (or replays an existing
// one via the idempotency key). Callers hold s.mu and handle metrics
// and journaling after unlocking.
func (s *Server) enqueueLocked(spec scenario.Spec, key, ckptDir string) (*Job, bool, error) {
	if key != "" {
		if id, ok := s.idemKeys[key]; ok {
			return s.jobs[id], true, nil
		}
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	job := &Job{
		id:        fmt.Sprintf("j%d", s.nextID+1),
		spec:      spec,
		idemKey:   key,
		ckptDir:   ckptDir,
		state:     JobQueued,
		events:    newEventLog(),
		done:      make(chan struct{}),
		submitted: time.Now(),
	}
	select {
	case s.queue <- job:
	default:
		return nil, false, ErrQueueFull
	}
	s.nextID++
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	if key != "" {
		s.idemKeys[key] = job.id
	}
	return job, false, nil
}

// ShardJob maps one campaign seed to the sub-job running it.
type ShardJob struct {
	Seed     int64  `json:"seed"`
	ID       string `json:"id"`
	Replayed bool   `json:"replayed,omitempty"`
}

// shardIdemKey derives the deterministic idempotency key of one shard
// sub-job from the campaign fingerprint, the dispatcher's salt and the
// seed, so a re-dispatched shard replays the sub-jobs this worker
// already accepted instead of double-running them.
func shardIdemKey(fp uint64, salt string, seed int64) string {
	return fmt.Sprintf("shard-%016x-%s-%d", fp, salt, seed)
}

// SubmitShard fans a campaign shard into one sub-job per seed,
// all-or-nothing: if the queue cannot absorb every fresh (non-replayed)
// seed, the whole shard is rejected with ErrQueueFull and nothing is
// enqueued — so the coordinator can re-dispatch the shard elsewhere
// without leaking half a shard here. With ShardSpec.CheckpointDir set,
// each sub-job checkpoints under its per-seed directory and first tries
// to resume from the newest intact checkpoint found there (the resteal
// path after a worker eviction).
func (s *Server) SubmitShard(ss scenario.ShardSpec) ([]ShardJob, error) {
	if err := ss.Normalize(); err != nil {
		return nil, err
	}
	fp, err := scenario.CampaignFingerprint(ss.Spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.mRejected.Inc()
		return nil, ErrDraining
	}
	fresh := 0
	for _, seed := range ss.Seeds {
		if _, ok := s.idemKeys[shardIdemKey(fp, ss.IdemSalt, seed)]; !ok {
			fresh++
		}
	}
	if free := cap(s.queue) - len(s.queue); fresh > free {
		s.mu.Unlock()
		s.mRejected.Inc()
		return nil, ErrQueueFull
	}
	out := make([]ShardJob, 0, len(ss.Seeds))
	var accepted []*Job
	for _, seed := range ss.Seeds {
		ckptDir := ""
		if ss.CheckpointDir != "" {
			ckptDir = scenario.SeedCheckpointDir(ss.CheckpointDir, seed)
		}
		job, replayed, err := s.enqueueLocked(scenario.SpecForSeed(ss.Spec, seed), shardIdemKey(fp, ss.IdemSalt, seed), ckptDir)
		if err != nil {
			// Unreachable short of a concurrent shard racing the capacity
			// check above; report the partial acceptance honestly.
			s.mu.Unlock()
			for _, j := range accepted {
				s.writeJournal(j)
			}
			return out, err
		}
		out = append(out, ShardJob{Seed: seed, ID: job.ID(), Replayed: replayed})
		if replayed {
			s.mIdemReplays.Inc()
		} else {
			accepted = append(accepted, job)
		}
	}
	s.mu.Unlock()
	for _, j := range accepted {
		s.mAccepted.Inc()
		s.writeJournal(j)
	}
	return out, nil
}

// Get returns the job with the given ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Cancel stops the job: queued jobs go terminal immediately (the
// worker skips them when they surface), running jobs get their context
// canceled and go terminal once the runner observes it. Canceling a
// finished job is a no-op. It reports whether the job existed.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.errMsg = "canceled before start"
		j.finished = time.Now()
		j.mu.Unlock()
		s.writeJournal(j)
		j.events.close()
		s.mCanceled.Inc()
		s.mCompleted.Inc()
		close(j.done)
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	return true
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Shutdown drains the server: no new submissions are accepted, queued
// jobs still run (workers empty the closed queue), and Shutdown
// returns when every worker has exited. If ctx expires first, all
// in-flight job contexts are canceled and Shutdown waits for the
// runners to observe that (scenario epochs check cancellation at phase
// boundaries), returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.runCancel()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until it is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job through scenario.Run and records the
// outcome. All result bytes are produced by scenario.MarshalResult, so
// they are identical to the skyranctl -json output for the same spec.
func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if job.state != JobQueued { // canceled while waiting
		job.mu.Unlock()
		return
	}
	ctx, cancel := context.WithTimeout(s.runCtx, s.cfg.JobTimeout)
	defer cancel()
	job.state = JobRunning
	job.cancel = cancel
	job.started = time.Now()
	recovered := job.recovered
	job.mu.Unlock()
	s.gRunning.Add(1)
	defer s.gRunning.Add(-1)
	s.writeJournal(job)

	rec := trace.NewRecorder(nil)
	unsub := rec.Subscribe(job.events.append)
	epochStart := time.Now()
	opts := scenario.Options{
		Tracer: rec,
		OnEpoch: func(rep scenario.EpochReport) {
			s.hEpoch.Observe(time.Since(epochStart).Seconds())
			epochStart = time.Now()
			s.observeTraffic(rep.Traffic)
			s.observeFaults(rep.Faults)
			s.observeFleet(rep)
		},
	}
	if dir := s.checkpointDirFor(job); dir != "" {
		opts.Checkpoint = &scenario.CheckpointConfig{
			Dir:         dir,
			EveryEpochs: s.cfg.CheckpointEvery,
			Retain:      s.cfg.CheckpointRetain,
		}
		opts.OnCheckpoint = func(ev scenario.CheckpointEvent) {
			s.mCkptWrites.Inc()
			s.mCkptBytes.Add(float64(ev.Bytes))
			s.hCkptWrite.Observe(ev.Seconds)
		}
	}
	var res *scenario.Result
	var store *rem.Store
	var err error
	if crashAfter, doomed := s.chaos.planCrash(); doomed {
		// Simulated worker crash: abort the run mid-flight, then take
		// the same recovery path a restarted daemon would — resume from
		// the newest intact checkpoint (or rerun from scratch).
		// Determinism makes the two-phase execution byte-identical to an
		// uninterrupted run.
		crashCtx, crashCancel := context.WithCancel(ctx)
		timer := time.AfterFunc(crashAfter, crashCancel)
		res, store, err = s.runScenario(crashCtx, job, recovered, opts)
		timer.Stop()
		crashCancel()
		if err != nil && crashCtx.Err() != nil && ctx.Err() == nil {
			s.mWorkerCrashes.Inc()
			res, store, err = s.runScenario(ctx, job, true, opts)
		}
	} else {
		res, store, err = s.runScenario(ctx, job, recovered, opts)
	}
	unsub()

	var resultJSON, remSnap []byte
	if err == nil {
		resultJSON, err = scenario.MarshalResult(res)
	}
	if err == nil && store != nil && store.Len() > 0 {
		var buf bytes.Buffer
		if serr := store.Save(&buf); serr == nil {
			remSnap = buf.Bytes()
		} else {
			err = serr
		}
	}

	job.mu.Lock()
	job.finished = time.Now()
	switch {
	case err == nil:
		job.state = JobSucceeded
		job.resultJSON = resultJSON
		job.store = store
		job.remSnap = remSnap
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = JobCanceled
		job.errMsg = err.Error()
	default:
		job.state = JobFailed
		job.errMsg = err.Error()
	}
	st := job.state
	job.mu.Unlock()
	// The terminal record is durable, and counted, before anyone
	// waiting on done wakes up.
	s.writeJournal(job)
	job.events.close()
	s.mCompleted.Inc()
	switch st {
	case JobFailed:
		s.mFailed.Inc()
	case JobCanceled:
		s.mCanceled.Inc()
	}
	close(job.done)
}

// checkpointDirFor resolves a job's checkpoint directory: a cluster
// shard sub-job carries its own (shared-filesystem) directory so a
// re-dispatched shard can resume on another worker; ordinary jobs use
// the daemon's per-job layout when checkpointing is enabled.
func (s *Server) checkpointDirFor(job *Job) string {
	if job.ckptDir != "" {
		return job.ckptDir
	}
	if s.cfg.CheckpointDir != "" {
		return s.jobCheckpointDir(job.id)
	}
	return ""
}

// runScenario executes a job, resuming from the newest intact
// checkpoint when one may exist: journal-recovered jobs after a daemon
// restart, and shard sub-jobs always (their checkpoint dir is shared
// across workers, so a restolen shard continues where the evicted
// worker left off). Resume attempts walk checkpoints newest to oldest:
// a snapshot that fails verification (CRC, kind, fingerprint) is
// skipped in favor of an older one, and when none survive the job
// reruns from scratch — determinism guarantees the rerun produces the
// bytes the resumed run would have.
//
// The call is the daemon's panic boundary: a simulation panic (an
// engine.Panic re-raised from a worker goroutine, or a direct panic on
// the calling goroutine) is recovered here and converted into an
// ordinary failed job whose error is the deterministic "panic: <value>"
// string; the stack trace is kept on the job (and in its journal
// record) for debugging, out of the error so campaign error rows stay
// byte-identical across workers. Fingerprints that panic
// QuarantineAfter times in a row are quarantined: their jobs fail fast
// without running, so a poisoned seed being re-dispatched forever
// cannot keep crashing runners.
func (s *Server) runScenario(ctx context.Context, job *Job, recovered bool, opts scenario.Options) (res *scenario.Result, store *rem.Store, err error) {
	fp, fpErr := scenario.Fingerprint(job.spec)
	if fpErr == nil && s.isQuarantined(fp) {
		s.mQuarantineRejects.Inc()
		return nil, nil, fmt.Errorf("server: spec %016x quarantined after %d consecutive panics", fp, s.cfg.QuarantineAfter)
	}
	defer func() {
		r := recover()
		if r == nil {
			if err == nil && fpErr == nil {
				s.clearPanicStreak(fp)
			}
			return
		}
		val, stack := panicInfo(r)
		s.mPanics.Inc()
		if fpErr == nil {
			s.notePanic(fp)
		}
		job.mu.Lock()
		job.panicStack = string(stack)
		job.mu.Unlock()
		res, store = nil, nil
		err = fmt.Errorf("panic: %v", val)
	}()
	if s.chaos.poisonSeed(job.spec.Seed) {
		panic(fmt.Sprintf("chaos: poison seed %d", job.spec.Seed))
	}
	if dir := s.checkpointDirFor(job); dir != "" && (recovered || job.ckptDir != "") {
		files, err := checkpoint.ListDir(dir)
		if err != nil {
			s.noteResumeFailure(job, dir, err)
		}
		for i := len(files) - 1; i >= 0; i-- {
			res, store, err := scenario.Resume(ctx, files[i], &job.spec, opts)
			if err == nil || ctx.Err() != nil {
				return res, store, err
			}
			s.noteResumeFailure(job, files[i], err)
		}
	}
	return scenario.Run(ctx, job.spec, opts)
}

// noteResumeFailure counts a checkpoint the job could not resume from
// and keeps it, with its error, on the job envelope: determinism makes
// a fallback run's bytes identical, so without this a broken restore
// would cost a rerun unseen.
func (s *Server) noteResumeFailure(job *Job, path string, err error) {
	s.mResumeFail.Inc()
	job.mu.Lock()
	job.resumeErr = filepath.Base(path) + ": " + err.Error()
	job.mu.Unlock()
}

// panicInfo unwraps a recovered panic: an engine.Panic carries the
// original value and the stack of the worker goroutine that died;
// anything else is a panic on this goroutine, stacked here.
func panicInfo(r any) (val any, stack []byte) {
	if p, ok := r.(*engine.Panic); ok {
		return p.Value, p.Stack
	}
	return r, debug.Stack()
}

// isQuarantined reports whether the fingerprint is quarantined.
func (s *Server) isQuarantined(fp uint64) bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.quarantined[fp]
}

// notePanic records one panic against the fingerprint and quarantines
// it once the consecutive streak reaches the threshold.
func (s *Server) notePanic(fp uint64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	s.panicStreak[fp]++
	if s.panicStreak[fp] >= s.cfg.QuarantineAfter && !s.quarantined[fp] {
		s.quarantined[fp] = true
		s.gQuarantined.Set(float64(len(s.quarantined)))
	}
}

// clearPanicStreak resets the consecutive-panic count after a clean
// run (quarantine itself is sticky until restart: a fingerprint that
// crossed the threshold stays failed fast).
func (s *Server) clearPanicStreak(fp uint64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	delete(s.panicStreak, fp)
}

// QuarantinedJobs returns how many spec fingerprints are quarantined.
func (s *Server) QuarantinedJobs() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.quarantined)
}

// observeFaults folds one epoch's fault/degradation counter deltas
// into per-kind daemon counters (skyran_fault_<kind>_total).
func (s *Server) observeFaults(c *fault.Counts) {
	if c == nil {
		return
	}
	for _, nc := range c.NonZero() {
		s.reg.Counter("skyran_fault_"+nc.Name+"_total",
			"Injected faults or degradation events of this kind, summed over epochs.").Add(float64(nc.N))
	}
}

// observeTraffic folds one serving phase's KPI report into the
// daemon-wide traffic metrics.
func (s *Server) observeTraffic(rep *traffic.Report) {
	if rep == nil {
		return
	}
	s.mTrafficOffered.Add(float64(rep.Summary.OfferedBytes))
	s.mTrafficDelivered.Add(float64(rep.Summary.DeliveredBytes))
	s.mTrafficDropped.Add(float64(rep.Summary.DroppedBytes))
	s.gBearerBacklog.Set(float64(rep.Summary.BacklogPackets))
	peak := 0
	for _, k := range rep.KPIs {
		if k.PeakQueue > peak {
			peak = k.PeakQueue
		}
		if k.DeliveredPackets > 0 {
			s.hUEDelay.Observe(k.MeanDelayS)
		}
	}
	s.gBearerPeakQueue.Set(float64(peak))
	s.gJain.Set(rep.Summary.JainFairness)
}

// observeFleet folds one epoch's multi-cell columns into the fleet
// metrics: handover KPI deltas into counters, the SINR objective and
// UE-weighted mean SINR into gauges, and per-cell load/fairness into
// name-suffixed gauges (skyran_cell<N>_...). Single-UAV epochs carry
// neither column and change nothing.
func (s *Server) observeFleet(rep scenario.EpochReport) {
	if ho := rep.Handover; ho != nil {
		s.mHOAttempts.Add(float64(ho.Attempts))
		s.mHOSuccesses.Add(float64(ho.Successes))
		s.mHOPingPongs.Add(float64(ho.PingPongs))
		s.mHOInterrupt.Add(ho.InterruptionS)
	}
	if len(rep.Cells) == 0 {
		return
	}
	s.gSINRMin.Set(rep.ObjectiveValue)
	var sum float64
	attached := 0
	for _, c := range rep.Cells {
		sum += c.MeanSINRdB * float64(c.UEs)
		attached += c.UEs
		s.reg.Gauge(fmt.Sprintf("skyran_cell%d_ues", c.Cell),
			"UEs attached to this fleet cell at the latest epoch.").Set(float64(c.UEs))
		s.reg.Gauge(fmt.Sprintf("skyran_cell%d_jain_fairness", c.Cell),
			"Jain fairness over this cell's UE throughput in the latest serving phase.").Set(c.JainFairness)
	}
	if attached > 0 {
		s.gSINRMean.Set(sum / float64(attached))
	}
}

// scrape refreshes the sampled gauges just before exposition.
func (s *Server) scrape() {
	s.gDepth.Set(float64(len(s.queue)))
	hits, misses := radio.ObsCacheStats()
	s.reg.Gauge("skyrand_obscache_hits", "Obstruction-cache hits since process start.").Set(float64(hits))
	s.reg.Gauge("skyrand_obscache_misses", "Obstruction-cache misses since process start.").Set(float64(misses))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	s.reg.Gauge("skyrand_obscache_hit_ratio", "Obstruction-cache hit fraction since process start.").Set(ratio)
}
