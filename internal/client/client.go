// Package client is the shared HTTP client for the skyrand daemon,
// used by skyranctl submit and the cluster coordinator. It adds
// the two things a flaky network or a restarting daemon demands:
// capped exponential backoff with *deterministic* jitter (seeded from
// the request's idempotency key, so retry schedules are reproducible
// run-to-run), and idempotent job submission — every retried POST
// carries the same Idempotency-Key, so a submission that races a
// daemon crash or a lost response is never double-run.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
)

// Client talks to one skyrand daemon.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7643".
	BaseURL string
	// HTTP is the transport; nil uses a default client with no global
	// timeout — calls are bounded per attempt instead (see
	// ControlTimeout), so long jobs and streamed JSONL telemetry are
	// never cut off by a transport-wide deadline.
	HTTP *http.Client
	// ControlTimeout bounds each attempt of a control call (submit,
	// status, shard dispatch): 0 selects the 30 s default, negative
	// disables the bound. Long calls — result downloads, which can carry
	// a full campaign — are governed only by the caller's context, so a
	// per-call deadline is one context.WithTimeout away.
	ControlTimeout time.Duration
	// MaxRetries bounds retry attempts per request (default 8).
	MaxRetries int
	// BaseDelay and MaxDelay shape the exponential backoff
	// (defaults 100 ms and 5 s). Attempt n waits roughly
	// min(BaseDelay·2ⁿ, MaxDelay), equal-jittered to half that at
	// minimum. A server Retry-After overrides a shorter backoff.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep is the wait primitive, injectable for tests
	// (default time.Sleep, interrupted by context cancellation).
	Sleep func(time.Duration)
	// OnRetry, when set, observes every retry decision.
	OnRetry func(attempt int, cause string, delay time.Duration)
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// controlTimeout resolves the per-attempt control-call bound.
func (c *Client) controlTimeout() time.Duration {
	switch {
	case c.ControlTimeout < 0:
		return 0
	case c.ControlTimeout == 0:
		return 30 * time.Second
	}
	return c.ControlTimeout
}

// attemptCtx derives one attempt's context: control calls get the
// per-attempt timeout, long calls pass the caller's context through.
func (c *Client) attemptCtx(ctx context.Context, long bool) (context.Context, context.CancelFunc) {
	if long {
		return context.WithCancel(ctx)
	}
	if d := c.controlTimeout(); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 8
}

func (c *Client) delays() (base, cap time.Duration) {
	base, cap = c.BaseDelay, c.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = 5 * time.Second
	}
	return base, cap
}

// IdempotencyKey derives a stable submission key from the spec's
// canonical JSON plus a caller salt (e.g. a job index). Identical
// (spec, salt) pairs collide on purpose: that is what makes a retried
// submission idempotent.
func IdempotencyKey(spec scenario.Spec, salt string) string {
	b, err := json.Marshal(spec)
	if err != nil {
		b = []byte(salt) // unmarshalable specs fail later, at submit
	}
	h := fnv.New64a()
	h.Write(b)              //nolint:errcheck // fnv never errors
	h.Write([]byte{0})      //nolint:errcheck
	io.WriteString(h, salt) //nolint:errcheck
	return fmt.Sprintf("%016x", h.Sum64())
}

// backoff returns the deterministic equal-jitter delay for a retry
// attempt: half the capped exponential step plus a key-and-attempt
// seeded fraction of the other half. Two runs retrying the same key
// sleep the same schedule.
func (c *Client) backoff(attempt int, key string) time.Duration {
	base, max := c.delays()
	step := base << uint(attempt)
	if step > max || step <= 0 { // <=0 on shift overflow
		step = max
	}
	h := fnv.New64a()
	io.WriteString(h, key) //nolint:errcheck
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(attempt >> (8 * i))
	}
	h.Write(buf[:]) //nolint:errcheck
	frac := float64(h.Sum64()%1000) / 1000
	return step/2 + time.Duration(frac*float64(step/2))
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether a response status is worth retrying:
// backpressure (429) and server-side trouble (5xx, as seen around a
// daemon restart).
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryAfter parses a Retry-After header into a delay, or 0.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		return time.Duration(ra) * time.Second
	}
	return 0
}

// SubmitResult is the outcome of a job submission.
type SubmitResult struct {
	ID       string
	Replayed bool // answered from an existing job via the idempotency key
	Retries  int
}

// Submit posts spec as a job, retrying transient failures (network
// errors, 429, 5xx) under the backoff policy. idemKey may be empty,
// but then a retried submission can double-run a job if the first
// attempt was accepted and only its response was lost — pass
// IdempotencyKey(spec, salt) whenever the daemon might restart.
func (c *Client) Submit(ctx context.Context, spec scenario.Spec, idemKey string) (SubmitResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return SubmitResult{}, err
	}
	var out SubmitResult
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries(); attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt-1, idemKey)
			if ra := retryAfterOf(lastErr); ra > delay {
				delay = ra
			}
			if c.OnRetry != nil {
				c.OnRetry(attempt, causeOf(lastErr), delay)
			}
			out.Retries++
			if err := c.sleep(ctx, delay); err != nil {
				return out, err
			}
		}
		actx, cancel := c.attemptCtx(ctx, false)
		req, err := http.NewRequestWithContext(actx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			cancel()
			return out, err
		}
		req.Header.Set("Content-Type", "application/json")
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			cancel()
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			lastErr = err
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		cancel()
		switch {
		case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
			var env struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(b, &env); err != nil {
				return out, fmt.Errorf("client: decoding submit response: %w", err)
			}
			out.ID = env.ID
			out.Replayed = resp.Header.Get("Idempotency-Replayed") == "true"
			return out, nil
		case retryable(resp.StatusCode):
			lastErr = &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b)), after: retryAfter(resp)}
			continue
		default:
			return out, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
		}
	}
	return out, fmt.Errorf("client: submit retries exhausted: %w", lastErr)
}

// statusError is a non-2xx daemon response.
type statusError struct {
	code  int
	body  string
	after time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("daemon returned %d: %s", e.code, e.body)
}

func causeOf(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func retryAfterOf(err error) time.Duration {
	if se, ok := err.(*statusError); ok {
		return se.after
	}
	return 0
}

// JobStatus is the subset of the job envelope clients act on.
type JobStatus struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// Terminal reports whether the job has finished.
func (j *JobStatus) Terminal() bool {
	switch j.Status {
	case "succeeded", "failed", "canceled":
		return true
	}
	return false
}

// Status fetches one job's envelope, retrying transient failures.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	b, err := c.get(ctx, "/v1/jobs/"+id, id, false)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("client: decoding job %s: %w", id, err)
	}
	return &st, nil
}

// Await polls a job until it reaches a terminal state or ctx expires.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 150 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return nil, err
		}
	}
}

// Result fetches the canonical result bytes of a terminal job — the
// exact bytes `skyranctl -json` prints for the same spec. It is a long
// call: only the caller's context bounds it, never ControlTimeout, so a
// large body (a whole campaign's merged results, streamed telemetry)
// downloads at whatever pace the network allows.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.get(ctx, "/v1/jobs/"+id+"/result", id, true)
}

// get performs a GET with the retry policy (GETs are naturally
// idempotent, so every failure class is retried). long calls skip the
// per-attempt control timeout.
func (c *Client) get(ctx context.Context, path, key string, long bool) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.maxRetries(); attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt-1, key)
			if ra := retryAfterOf(lastErr); ra > delay {
				delay = ra
			}
			if c.OnRetry != nil {
				c.OnRetry(attempt, causeOf(lastErr), delay)
			}
			if err := c.sleep(ctx, delay); err != nil {
				return nil, err
			}
		}
		actx, cancel := c.attemptCtx(ctx, long)
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.BaseURL+path, nil)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			cancel()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		cancel()
		switch {
		case resp.StatusCode == http.StatusOK:
			return b, nil
		case retryable(resp.StatusCode):
			lastErr = &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b)), after: retryAfter(resp)}
			continue
		default:
			return nil, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
		}
	}
	return nil, fmt.Errorf("client: %s retries exhausted: %w", path, lastErr)
}
