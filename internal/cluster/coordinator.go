package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/detrand"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

// The coordinator fronts a fleet of skyrand worker daemons behind the
// existing job API. It accepts campaigns — a spec template swept over a
// Monte-Carlo seed set — shards the seeds across workers, supervises
// the sub-jobs, and merges the per-seed canonical results in
// deterministic (seed, sector) order. Workers are ordinary daemons;
// they need no cluster awareness beyond the /v1/shards endpoint.
//
// Fault model: a health prober marks a worker unhealthy after
// FailAfter consecutive /readyz failures and evicts it permanently.
// Shards outstanding on an evicted worker are re-dispatched to a
// healthy one (a "resteal"); because sub-jobs checkpoint into a
// shared per-seed directory and always climb the recovery ladder from
// the newest intact checkpoint, the restolen shard resumes mid-sweep
// and still produces byte-identical results.

// Config parameterizes a Coordinator. Zero values select defaults.
type Config struct {
	// WorkerAddrs are the worker daemon base URLs, e.g.
	// "http://127.0.0.1:8080". At least one is required.
	WorkerAddrs []string

	// Route names the routing policy (round-robin, least-loaded,
	// scenario-affinity). Empty selects round-robin.
	Route string

	// AdmitRate and AdmitBurst configure token-bucket admission in
	// front of campaign dispatch: a campaign costs one token per seed.
	// AdmitRate <= 0 disables admission (everything accepted).
	AdmitRate  float64
	AdmitBurst int

	// ProbeEvery is the health-probe interval (default 500ms).
	// FailAfter is the consecutive-failure eviction threshold
	// (default 3).
	ProbeEvery time.Duration
	FailAfter  int

	// PollEvery is the sub-job status poll interval (default 100ms).
	PollEvery time.Duration

	// ShardSeeds caps seeds per shard (default 4). Smaller shards
	// spread a campaign wider; larger ones amortize dispatch.
	ShardSeeds int

	// CheckpointRoot, when set, must be a directory visible to every
	// worker (shared filesystem). Sub-jobs checkpoint under
	// <root>/<campaign>/seed-<n>, which is what lets a restolen shard
	// resume another worker's partial sweep.
	CheckpointRoot string

	// JournalDir, when set, makes the coordinator itself
	// crash-recoverable: every campaign's lifecycle is journaled there
	// as a checkpoint container, and a restarted coordinator resumes
	// running campaigns over only their missing seeds (see journal.go).
	JournalDir string

	// JournalRetain caps how many terminal campaign journals are kept
	// (oldest first); JournalMaxAge drops ones older than the given
	// age. Zero values keep everything. The GC sweep runs once at
	// startup, after recovery.
	JournalRetain int
	JournalMaxAge time.Duration

	// BreakerFails and BreakerCooldown shape the per-worker dispatch
	// circuit breaker (defaults 3 failures, 5s cooldown). The breaker
	// only biases routing away from failing workers; eviction stays the
	// prober's job.
	BreakerFails    int
	BreakerCooldown time.Duration

	// HedgeAfter, when positive, launches one bounded hedge dispatch of
	// a shard's missing seeds to a second worker if the first has not
	// finished within the given duration. Results are keyed by seed and
	// byte-deterministic, so duplicated completions are harmless.
	HedgeAfter time.Duration

	// TimingSeed seeds the detrand counting stream behind probe-interval
	// and Retry-After jitter (default 1), so chaos runs replay their
	// timing draws exactly.
	TimingSeed int64

	// NetChaos, when active, wraps every worker client's transport in
	// the seeded network chaos layer. An inactive config changes
	// nothing.
	NetChaos *chaos.NetConfig

	// Registry receives skyran_cluster_* metrics (nil creates one).
	Registry *metrics.Registry

	// Now is the clock used by admission (nil selects time.Now).
	Now func() time.Time

	// Logf logs coordinator events (nil selects log.Printf).
	Logf func(format string, args ...any)
}

// Worker is the coordinator's view of one daemon.
type Worker struct {
	Addr  string
	Index int

	cl       *client.Client
	br       *Breaker     // dispatch circuit breaker (routing bias only)
	inflight atomic.Int64 // sub-jobs the coordinator has outstanding here
	reported atomic.Int64 // queue+inflight from the last capacity report
	fails    atomic.Int64 // consecutive probe failures
	evicted  atomic.Bool
	down     chan struct{} // closed exactly once, on eviction
}

// Healthy reports whether the worker is still in the rotation.
func (w *Worker) Healthy() bool { return !w.evicted.Load() }

// load is the least-loaded routing score: what the coordinator has
// dispatched and not yet collected, plus what the worker last reported
// queued and running (which covers work from other submitters).
func (w *Worker) load() int64 { return w.inflight.Load() + w.reported.Load() }

// CampaignState is a campaign's lifecycle phase.
type CampaignState string

const (
	CampaignRunning   CampaignState = "running"
	CampaignSucceeded CampaignState = "succeeded"
	CampaignFailed    CampaignState = "failed"
)

// Campaign is one seed sweep in flight or finished.
type Campaign struct {
	ID       string
	Template scenario.Spec
	Seeds    []int64
	fp       uint64

	mu        sync.Mutex
	state     CampaignState
	errMsg    string
	results   map[int64]json.RawMessage
	seedErrs  map[int64]string // per-seed failure rows (quarantined seeds)
	merged    []byte
	recovered bool
	done      chan struct{}

	jmu sync.Mutex // serializes journal writes for this campaign
}

// State returns the campaign's current phase.
func (cm *Campaign) State() CampaignState {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.state
}

// Err returns the failure message, if any.
func (cm *Campaign) Err() string {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.errMsg
}

// MergedCount returns how many seeds have results collected so far.
func (cm *Campaign) MergedCount() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return len(cm.results)
}

// Merged returns the merged campaign bytes once succeeded (nil before).
func (cm *Campaign) Merged() []byte {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.merged
}

// FailedSeeds returns how many seeds completed as error rows.
func (cm *Campaign) FailedSeeds() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return len(cm.seedErrs)
}

// Recovered reports whether this campaign was resumed from the journal
// by a restarted coordinator.
func (cm *Campaign) Recovered() bool {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.recovered
}

// Done is closed when the campaign reaches a terminal state.
func (cm *Campaign) Done() <-chan struct{} { return cm.done }

func (cm *Campaign) addResult(seed int64, b json.RawMessage) {
	cm.mu.Lock()
	cm.results[seed] = b
	cm.mu.Unlock()
}

// addError records a per-seed failure row. The seed is done — the
// campaign completes around it with an explicit, deterministic error
// entry instead of failing wholesale or wedging the sweep.
func (cm *Campaign) addError(seed int64, msg string) {
	cm.mu.Lock()
	cm.seedErrs[seed] = msg
	cm.mu.Unlock()
}

// missing returns the seeds with neither a result nor an error row.
func (cm *Campaign) missing() []int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	out := make([]int64, 0, len(cm.Seeds))
	for _, s := range cm.Seeds {
		if _, ok := cm.results[s]; ok {
			continue
		}
		if _, ok := cm.seedErrs[s]; ok {
			continue
		}
		out = append(out, s)
	}
	return out
}

// ThrottledError is returned by SubmitCampaign when admission rejects
// a campaign; RetryAfter is how long to wait before retrying.
type ThrottledError struct {
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("cluster: campaign throttled, retry after %s", e.RetryAfter)
}

// ErrNoWorkers is the campaign failure cause when every worker has
// been evicted.
var ErrNoWorkers = errors.New("cluster: no healthy workers")

// Coordinator runs campaigns over a worker fleet.
type Coordinator struct {
	cfg    Config
	router Router
	bucket *TokenBucket
	reg    *metrics.Registry

	workers []*Worker
	journal *checkpoint.Journal // nil without Config.JournalDir

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string
	nextID    int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	timingMu sync.Mutex
	timing   *detrand.Rand // jitter draws: probe interval, Retry-After

	mCampaigns      *metrics.Counter
	mFailed         *metrics.Counter
	mSubjobs        *metrics.Counter
	mRouted         *metrics.Counter
	mResteals       *metrics.Counter
	mEvicted        *metrics.Counter
	mThrottled      *metrics.Counter
	mHedges         *metrics.Counter
	mRecovered      *metrics.Counter
	mJournalGC      *metrics.Counter
	mJournalCorrupt *metrics.Counter
	gHealthy        *metrics.Gauge
	gRunning        *metrics.Gauge
	gBreakerOpen    *metrics.Gauge
}

// New builds a Coordinator and starts its health prober. Callers own
// shutdown via Close.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.WorkerAddrs) == 0 {
		return nil, errors.New("cluster: at least one worker address required")
	}
	router, err := NewRouter(cfg.Route)
	if err != nil {
		return nil, err
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 100 * time.Millisecond
	}
	if cfg.ShardSeeds <= 0 {
		cfg.ShardSeeds = 4
	}
	if cfg.ShardSeeds > scenario.MaxShardSeeds {
		cfg.ShardSeeds = scenario.MaxShardSeeds
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.TimingSeed == 0 {
		cfg.TimingSeed = 1
	}
	if err := cfg.NetChaos.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		router:    router,
		bucket:    NewTokenBucket(cfg.AdmitRate, cfg.AdmitBurst, cfg.Now),
		reg:       cfg.Registry,
		campaigns: make(map[string]*Campaign),
		timing:    detrand.New(cfg.TimingSeed),
		ctx:       ctx,
		cancel:    cancel,
	}
	for i, addr := range cfg.WorkerAddrs {
		w := &Worker{
			Addr:  addr,
			Index: i,
			cl:    client.New(addr),
			br:    NewBreaker(cfg.BreakerFails, cfg.BreakerCooldown, cfg.Now),
			down:  make(chan struct{}),
		}
		if cfg.NetChaos.Active() {
			w.cl.HTTP = &http.Client{Transport: chaos.NewTransport(*cfg.NetChaos, nil, cfg.Registry)}
		}
		c.workers = append(c.workers, w)
	}
	r := cfg.Registry
	c.mCampaigns = r.Counter("skyran_cluster_campaigns_total", "Campaigns accepted by the coordinator.")
	c.mFailed = r.Counter("skyran_cluster_campaigns_failed_total", "Campaigns that reached the failed state.")
	c.mSubjobs = r.Counter("skyran_cluster_subjobs_dispatched_total", "Per-seed sub-jobs dispatched to workers (resteals re-count).")
	c.mRouted = r.Counter("skyran_cluster_routing_decisions_total", "Routing decisions made when dispatching shards.")
	c.mResteals = r.Counter("skyran_cluster_resteals_total", "Shards re-dispatched after a worker failure or eviction.")
	c.mEvicted = r.Counter("skyran_cluster_evicted_total", "Workers evicted by the health prober.")
	c.mThrottled = r.Counter("skyran_cluster_throttled_total", "Campaign submissions rejected by token-bucket admission.")
	c.mHedges = r.Counter("skyran_cluster_hedges_total", "Hedge dispatches launched for slow shards.")
	c.mRecovered = r.Counter("skyran_cluster_campaigns_recovered_total", "Running campaigns relaunched from the journal after a restart.")
	c.mJournalGC = r.Counter("skyran_journal_gc_total", "Terminal campaign journal files removed by retention.")
	c.mJournalCorrupt = r.Counter("skyran_cluster_journal_corrupt_total", "Campaign journal files skipped as corrupt during recovery.")
	c.gHealthy = r.Gauge("skyran_cluster_workers_healthy", "Workers currently in the routing rotation.")
	c.gRunning = r.Gauge("skyran_cluster_campaigns_running", "Campaigns currently running.")
	c.gBreakerOpen = r.Gauge("skyran_breaker_open", "Workers whose dispatch circuit breaker is currently open.")
	c.gHealthy.Set(float64(len(c.workers)))

	// Crash recovery: rebuild the campaign table from the journal, then
	// relaunch running campaigns over their missing seeds. The preserved
	// campaign IDs keep shard IdemSalts identical, so workers' idempotency
	// keys re-adopt sub-jobs that survived the coordinator's death.
	if cfg.JournalDir != "" {
		if c.journal, err = checkpoint.OpenJournal(cfg.JournalDir, "c", checkpoint.KindCampaignJournal); err != nil {
			cancel()
			return nil, err
		}
		relaunch := c.recoverCampaigns()
		c.sweepJournals()
		for _, cm := range relaunch {
			c.mRecovered.Inc()
			c.gRunning.Add(1)
			c.wg.Add(1)
			c.cfg.Logf("cluster: recovering campaign %s (%d of %d seeds already done)",
				cm.ID, len(cm.Seeds)-len(cm.missing()), len(cm.Seeds))
			go c.runCampaign(cm)
		}
	}

	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the prober and campaign runners and waits for them.
// Running campaigns are marked failed.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

// Workers returns the coordinator's worker table (stable order).
func (c *Coordinator) Workers() []*Worker { return c.workers }

// Route returns the active routing policy name.
func (c *Coordinator) Route() string { return c.router.Name() }

// Campaigns returns all campaigns in submission order.
func (c *Coordinator) Campaigns() []*Campaign {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Campaign, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.campaigns[id])
	}
	return out
}

// Get returns one campaign by ID.
func (c *Coordinator) Get(id string) (*Campaign, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cm, ok := c.campaigns[id]
	return cm, ok
}

// SubmitCampaign validates, admits and launches a campaign. The seed
// set is sorted and deduplicated; results are keyed by seed, so order
// of submission never matters. A *ThrottledError carries the
// Retry-After for 429 mapping.
func (c *Coordinator) SubmitCampaign(template scenario.Spec, seeds []int64) (*Campaign, error) {
	norm := template
	if err := norm.Normalize(); err != nil {
		return nil, fmt.Errorf("cluster: campaign template: %w", err)
	}
	uniq, err := scenario.CanonicalSeeds(seeds)
	if err != nil {
		return nil, errors.New("cluster: campaign needs at least one seed")
	}
	fp, err := scenario.CampaignFingerprint(norm)
	if err != nil {
		return nil, err
	}
	if ok, after := c.bucket.Take(float64(len(uniq))); !ok {
		c.mThrottled.Inc()
		// Jitter the advertised wait by up to 10% from the counting
		// timing stream, de-synchronizing retry stampedes while staying
		// exactly replayable (and never promising less than the refill
		// actually needs).
		after += time.Duration(c.timingDraw() * 0.1 * float64(after))
		return nil, &ThrottledError{RetryAfter: after}
	}

	c.mu.Lock()
	c.nextID++
	// The normalized template is what shards carry and what the merged
	// document embeds: canonical in, canonical out.
	cm := &Campaign{
		ID:       fmt.Sprintf("c%d", c.nextID),
		Template: norm,
		Seeds:    uniq,
		fp:       fp,
		state:    CampaignRunning,
		results:  make(map[int64]json.RawMessage),
		seedErrs: make(map[int64]string),
		done:     make(chan struct{}),
	}
	c.campaigns[cm.ID] = cm
	c.order = append(c.order, cm.ID)
	c.mu.Unlock()
	c.journalCampaign(cm)

	c.mCampaigns.Inc()
	c.gRunning.Add(1)
	c.wg.Add(1)
	go c.runCampaign(cm)
	return cm, nil
}

// runCampaign fans the seed set out as shards, waits for all of them,
// and merges. Any shard error fails the whole campaign — partial
// campaigns are never served.
func (c *Coordinator) runCampaign(cm *Campaign) {
	defer c.wg.Done()
	defer c.gRunning.Add(-1)

	var shards [][]int64
	for lo := 0; lo < len(cm.Seeds); lo += c.cfg.ShardSeeds {
		hi := min(lo+c.cfg.ShardSeeds, len(cm.Seeds))
		shards = append(shards, cm.Seeds[lo:hi])
	}
	errCh := make(chan error, len(shards))
	var swg sync.WaitGroup
	for _, shard := range shards {
		swg.Add(1)
		go func(seeds []int64) {
			defer swg.Done()
			errCh <- c.runShard(cm, seeds)
		}(shard)
	}
	swg.Wait()
	close(errCh)
	var firstErr error
	for err := range errCh {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	if errors.Is(firstErr, errShutdown) {
		// The coordinator is going down, not the campaign: mark it
		// failed in memory but leave the journal at "running", so a
		// restarted coordinator resumes it instead of reporting a
		// failure that never happened.
		cm.mu.Lock()
		cm.state = CampaignFailed
		cm.errMsg = firstErr.Error()
		cm.mu.Unlock()
		close(cm.done)
		return
	}

	cm.mu.Lock()
	if firstErr != nil {
		cm.state = CampaignFailed
		cm.errMsg = firstErr.Error()
		c.mFailed.Inc()
		c.cfg.Logf("cluster: campaign %s failed: %v", cm.ID, firstErr)
	} else if merged, err := MergeResults(cm.Template, cm.results, cm.seedErrs); err != nil {
		cm.state = CampaignFailed
		cm.errMsg = err.Error()
		c.mFailed.Inc()
	} else {
		cm.state = CampaignSucceeded
		cm.merged = merged
		if n := len(cm.seedErrs); n > 0 {
			c.cfg.Logf("cluster: campaign %s succeeded (%d seeds, %d error rows)", cm.ID, len(cm.Seeds), n)
		} else {
			c.cfg.Logf("cluster: campaign %s succeeded (%d seeds)", cm.ID, len(cm.Seeds))
		}
	}
	cm.mu.Unlock()
	c.journalCampaign(cm)
	close(cm.done)
}

// errShutdown aborts shard loops during coordinator shutdown; it is
// deliberately not journaled as a campaign failure.
var errShutdown = errors.New("cluster: coordinator shutting down")

// runShard drives one shard to completion, restealing it to another
// worker as many times as evictions require. Completed seeds are never
// re-dispatched: each pass sends only the seeds still missing results,
// and a re-dispatched seed resumes from the newest intact checkpoint
// its previous worker left in the shared checkpoint directory. A seed
// whose sub-job *fails* (as opposed to its worker dying) becomes a
// per-seed error row, not a campaign failure.
func (c *Coordinator) runShard(cm *Campaign, seeds []int64) error {
	tried := make(map[int]bool) // workers that failed this shard since the last success
	for {
		remaining := missingOf(cm, seeds)
		if len(remaining) == 0 {
			return nil
		}
		if c.ctx.Err() != nil {
			return errShutdown
		}
		w := c.pickWorker(cm.fp, tried)
		if w == nil {
			return ErrNoWorkers
		}
		err := c.runShardHedged(cm, w, remaining, tried)
		if err == nil {
			continue // loop re-checks remaining; normally empty now
		}
		// Transient: worker died, was evicted mid-shard, or timed out.
		// Note the failure so rerouting prefers a different worker, and
		// resteal.
		tried[w.Index] = true
		c.mResteals.Inc()
		c.cfg.Logf("cluster: campaign %s restealing %d seed(s) from %s: %v",
			cm.ID, len(missingOf(cm, seeds)), w.Addr, err)
	}
}

// runShardHedged runs one dispatch pass, and — when HedgeAfter is set
// and the primary is slow — at most one concurrent hedge pass on a
// different worker. Either pass completing completes the seeds:
// results are keyed by seed and byte-deterministic, so a duplicated
// completion overwrites with identical bytes.
func (c *Coordinator) runShardHedged(cm *Campaign, w *Worker, seeds []int64, tried map[int]bool) error {
	if c.cfg.HedgeAfter <= 0 {
		return c.dispatchPass(cm, w, seeds)
	}
	primary := make(chan error, 1)
	go func() { primary <- c.dispatchPass(cm, w, seeds) }()
	select {
	case err := <-primary:
		return err
	case <-time.After(c.cfg.HedgeAfter):
	case <-c.ctx.Done():
		return <-primary
	}
	avoid := map[int]bool{w.Index: true}
	for k := range tried {
		avoid[k] = true
	}
	hw := c.pickWorker(cm.fp, avoid)
	if hw == nil || hw == w {
		return <-primary
	}
	c.mHedges.Inc()
	c.cfg.Logf("cluster: campaign %s hedging %d seed(s) from %s to %s", cm.ID, len(seeds), w.Addr, hw.Addr)
	hedge := make(chan error, 1)
	go func() { hedge <- c.dispatchPass(cm, hw, missingOf(cm, seeds)) }()
	perr, herr := <-primary, <-hedge
	if perr == nil || herr == nil {
		return nil
	}
	return perr
}

// dispatchPass runs one pass on one worker and feeds its circuit
// breaker with the outcome.
func (c *Coordinator) dispatchPass(cm *Campaign, w *Worker, seeds []int64) error {
	err := c.runShardOn(cm, w, seeds)
	if err != nil {
		w.br.Failure()
	} else {
		w.br.Success()
	}
	c.refreshBreakerGauge()
	return err
}

// refreshBreakerGauge republishes how many workers' breakers are open.
func (c *Coordinator) refreshBreakerGauge() {
	open := 0
	for _, w := range c.workers {
		if w.br.State() == BreakerOpen {
			open++
		}
	}
	c.gBreakerOpen.Set(float64(open))
}

// timingDraw consumes one uniform [0,1) draw from the counting timing
// stream.
func (c *Coordinator) timingDraw() float64 {
	c.timingMu.Lock()
	defer c.timingMu.Unlock()
	return c.timing.Float64()
}

func missingOf(cm *Campaign, seeds []int64) []int64 {
	miss := cm.missing()
	set := make(map[int64]bool, len(miss))
	for _, s := range miss {
		set[s] = true
	}
	out := make([]int64, 0, len(seeds))
	for _, s := range seeds {
		if set[s] {
			out = append(out, s)
		}
	}
	return out
}

// pickWorker routes among healthy workers, preferring ones that have
// not just failed this shard and whose circuit breaker is not open.
// The preferences degrade in order rather than block: if every
// candidate's breaker is open the avoid set still applies, and if
// every healthy worker already failed the shard, the avoid set resets
// — with one worker left, retrying it beats giving up.
func (c *Coordinator) pickWorker(fp uint64, avoid map[int]bool) *Worker {
	var healthy, candid, preferred []*Worker
	for _, w := range c.workers {
		if !w.Healthy() {
			continue
		}
		healthy = append(healthy, w)
		if avoid[w.Index] {
			continue
		}
		candid = append(candid, w)
		if w.br.Allow() {
			preferred = append(preferred, w)
		}
	}
	if len(healthy) == 0 {
		return nil
	}
	pool := preferred
	if len(pool) == 0 {
		pool = candid
	}
	if len(pool) == 0 {
		for k := range avoid {
			delete(avoid, k)
		}
		pool = healthy
	}
	c.mRouted.Inc()
	return c.router.Pick(pool, fp)
}

// runShardOn dispatches the given seeds to one worker and collects
// every result. Any transient failure aborts the whole pass (remaining
// seeds are re-dispatched by the caller); a failed sub-job is
// permanent.
func (c *Coordinator) runShardOn(cm *Campaign, w *Worker, seeds []int64) error {
	// A per-worker context: eviction cancels it so polls against a dead
	// worker abort at the prober's speed instead of the retry policy's.
	wctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	go func() {
		select {
		case <-w.down:
			cancel()
		case <-wctx.Done():
		}
	}()

	ss := scenario.ShardSpec{
		Spec:     cm.Template,
		Seeds:    seeds,
		IdemSalt: cm.ID,
	}
	if c.cfg.CheckpointRoot != "" {
		ss.CheckpointDir = filepath.Join(c.cfg.CheckpointRoot, cm.ID)
	}
	jobs, err := w.cl.SubmitShard(wctx, ss)
	if err != nil {
		return fmt.Errorf("dispatch to %s: %w", w.Addr, err)
	}
	if len(jobs) != len(seeds) {
		return fmt.Errorf("dispatch to %s: got %d sub-jobs for %d seeds", w.Addr, len(jobs), len(seeds))
	}
	c.mSubjobs.Add(float64(len(jobs)))
	w.inflight.Add(int64(len(jobs)))
	outstanding := int64(len(jobs))
	defer func() { w.inflight.Add(-outstanding) }()

	for _, sj := range jobs {
		st, err := w.cl.Await(wctx, sj.ID, c.cfg.PollEvery)
		if err != nil {
			return fmt.Errorf("awaiting %s on %s: %w", sj.ID, w.Addr, err)
		}
		switch st.Status {
		case "succeeded":
		case "failed":
			// The scenario itself failed (poisoned seed): quarantine it
			// as a deterministic per-seed error row — no worker identity,
			// no timing — and let the campaign complete around it.
			cm.addError(sj.Seed, st.Error)
			c.journalCampaign(cm)
			w.inflight.Add(-1)
			outstanding--
			continue
		default: // canceled (e.g. worker draining): transient, resteal
			return fmt.Errorf("seed %d %s on %s", sj.Seed, st.Status, w.Addr)
		}
		body, err := w.cl.Result(wctx, sj.ID)
		if err != nil {
			return fmt.Errorf("fetching result %s from %s: %w", sj.ID, w.Addr, err)
		}
		cm.addResult(sj.Seed, body)
		c.journalCampaign(cm)
		w.inflight.Add(-1)
		outstanding--
	}
	return nil
}

// probeLoop polls every worker's capacity report, feeding least-loaded
// routing and evicting workers after FailAfter consecutive failures.
// Eviction is permanent: a flapping worker that lost its in-memory job
// state cannot be trusted with shards again, and its work has already
// been restolen.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	// The interval is jittered by up to 10% per cycle, drawn from the
	// counting timing stream — de-phased from other coordinators, yet
	// exactly replayable under a fixed TimingSeed.
	timer := time.NewTimer(c.probeInterval())
	defer timer.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-timer.C:
		}
		for _, w := range c.workers {
			if !w.Healthy() {
				continue
			}
			c.probe(w)
		}
		c.refreshBreakerGauge()
		timer.Reset(c.probeInterval())
	}
}

// probeInterval is ProbeEvery plus a deterministic jitter in
// [0, ProbeEvery/10).
func (c *Coordinator) probeInterval() time.Duration {
	return c.cfg.ProbeEvery + time.Duration(c.timingDraw()*0.1*float64(c.cfg.ProbeEvery))
}

// probeTimeout bounds one probe — deliberately looser than the
// default interval: a worker saturating its CPUs answers slowly, and
// slow is not dead.
const probeTimeout = 2 * time.Second

func (c *Coordinator) probe(w *Worker) {
	ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
	rep, err := w.cl.Ready(ctx)
	cancel()
	if err == nil && rep.Ready() {
		w.fails.Store(0)
		w.reported.Store(int64(rep.Load()))
		return
	}
	n := w.fails.Add(1)
	if int(n) < c.cfg.FailAfter {
		return
	}
	if w.evicted.CompareAndSwap(false, true) {
		close(w.down)
		c.mEvicted.Inc()
		c.gHealthy.Add(-1)
		c.cfg.Logf("cluster: evicting worker %s after %d consecutive probe failures", w.Addr, n)
	}
}

// HealthyWorkers returns how many workers remain in the rotation.
func (c *Coordinator) HealthyWorkers() int {
	n := 0
	for _, w := range c.workers {
		if w.Healthy() {
			n++
		}
	}
	return n
}
