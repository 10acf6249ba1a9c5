package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// ChaosConfig switches on daemon-level fault injection: artificially
// slow HTTP handlers and simulated worker crashes mid-job. It exists
// to prove the recovery ladder under load — a crashed job re-enters
// the resume path and must still produce byte-identical results.
// Decisions are keyed chaos.Draws — slow handlers by request ordinal,
// crashes by job-run ordinal — so neither stream shifts the other.
type ChaosConfig struct {
	// Seed keys every chaos decision (0 picks a fixed default).
	Seed int64
	// SlowHandlerRate is the probability that an HTTP request is
	// delayed by up to SlowHandlerMax before being served.
	SlowHandlerRate float64
	// SlowHandlerMax bounds the injected handler delay (default 50ms
	// when SlowHandlerRate > 0).
	SlowHandlerMax time.Duration
	// WorkerCrashRate is the probability that a worker "crashes" while
	// running a job: the run is aborted after CrashAfter and the job is
	// re-run through the checkpoint-recovery ladder, exactly as a
	// restarted daemon would.
	WorkerCrashRate float64
	// CrashAfter is how long a doomed run executes before the
	// simulated crash (default 100ms when WorkerCrashRate > 0).
	CrashAfter time.Duration
	// MaxCrashes caps the total simulated crashes per daemon (default
	// 2 when WorkerCrashRate > 0) so chaos cannot starve the queue.
	MaxCrashes int
	// PoisonSeeds lists scenario seeds whose jobs panic mid-run instead
	// of completing — the deterministic stand-in for a simulation bug
	// that only one (spec, seed) point triggers. The per-job recover
	// turns each panic into a failed-job record, and the consecutive-
	// panic quarantine proves one poisoned seed cannot crash the daemon
	// or wedge a campaign.
	PoisonSeeds []int64
}

// normalize validates rates and fills defaults.
func (c *ChaosConfig) normalize() error {
	if c.SlowHandlerRate < 0 || c.SlowHandlerRate > 1 {
		return fmt.Errorf("server: chaos slow-handler rate %g outside [0, 1]", c.SlowHandlerRate)
	}
	if c.WorkerCrashRate < 0 || c.WorkerCrashRate > 1 {
		return fmt.Errorf("server: chaos worker-crash rate %g outside [0, 1]", c.WorkerCrashRate)
	}
	if c.SlowHandlerRate > 0 && c.SlowHandlerMax <= 0 {
		c.SlowHandlerMax = 50 * time.Millisecond
	}
	if c.WorkerCrashRate > 0 {
		if c.CrashAfter <= 0 {
			c.CrashAfter = 100 * time.Millisecond
		}
		if c.MaxCrashes <= 0 {
			c.MaxCrashes = 2
		}
	}
	return nil
}

// active reports whether any chaos knob is on.
func (c *ChaosConfig) active() bool {
	return c != nil && (c.SlowHandlerRate > 0 || c.WorkerCrashRate > 0 || len(c.PoisonSeeds) > 0)
}

// chaosState is the runtime side of ChaosConfig: the ordinals that
// key each draw, the crash budget and the poison-seed set.
type chaosState struct {
	cfg      ChaosConfig
	poison   map[int64]bool
	requests atomic.Uint64

	mu      sync.Mutex
	runs    uint64
	crashes int
}

func newChaosState(cfg ChaosConfig) *chaosState {
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	st := &chaosState{cfg: cfg, poison: make(map[int64]bool, len(cfg.PoisonSeeds))}
	for _, s := range cfg.PoisonSeeds {
		st.poison[s] = true
	}
	return st
}

// poisonSeed reports whether a job with this scenario seed should
// panic. Unlike the rate-based knobs this is not random at all: the
// same seed poisons on every dispatch, which is exactly what makes the
// quarantine ladder testable.
func (c *chaosState) poisonSeed(seed int64) bool {
	return c != nil && c.poison[seed]
}

// slowDelay draws the injected delay for one HTTP request (0 = serve
// normally).
func (c *chaosState) slowDelay() time.Duration {
	if c == nil || c.cfg.SlowHandlerRate <= 0 {
		return 0
	}
	n := c.requests.Add(1)
	if chaos.Draw(c.cfg.Seed, "slow-handler", n) >= c.cfg.SlowHandlerRate {
		return 0
	}
	return time.Duration(chaos.Draw(c.cfg.Seed, "slow-handler-delay", n) * float64(c.cfg.SlowHandlerMax))
}

// planCrash decides whether the next job run should be crashed, and
// after how long. Each positive decision spends one unit of the crash
// budget.
func (c *chaosState) planCrash() (time.Duration, bool) {
	if c == nil || c.cfg.WorkerCrashRate <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	if c.crashes >= c.cfg.MaxCrashes || chaos.Draw(c.cfg.Seed, "worker-crash", c.runs) >= c.cfg.WorkerCrashRate {
		return 0, false
	}
	c.crashes++
	return c.cfg.CrashAfter, true
}

// slowMiddleware wraps h with the injected-latency layer.
func (s *Server) slowMiddleware(h http.Handler, slowed *metrics.Counter) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := s.chaos.slowDelay(); d > 0 {
			slowed.Inc()
			select {
			case <-time.After(d):
			case <-r.Context().Done():
			}
		}
		h.ServeHTTP(w, r)
	})
}
