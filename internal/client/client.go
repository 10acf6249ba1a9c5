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

// The retry policy. Each attempt of a control call (submit, status,
// shard dispatch) is bounded by controlTimeout; long calls — result
// downloads, which can carry a full campaign — are governed only by
// the caller's context, so a per-call deadline is one
// context.WithTimeout away. A request is retried up to maxRetries
// times; attempt n waits roughly min(baseDelay·2ⁿ, maxDelay),
// equal-jittered to half that at minimum, and a server Retry-After
// overrides a shorter backoff.
const (
	controlTimeout = 30 * time.Second
	maxRetries     = 8
	baseDelay      = 100 * time.Millisecond
	maxDelay       = 5 * time.Second
)

// Client talks to one skyrand daemon.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7643".
	BaseURL string
	// HTTP is the transport; nil uses a default client with no global
	// timeout — calls are bounded per attempt instead, so long jobs and
	// streamed JSONL telemetry are never cut off by a transport-wide
	// deadline.
	HTTP *http.Client
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

// attemptCtx derives one attempt's context: control calls get the
// per-attempt timeout, long calls pass the caller's context through.
func attemptCtx(ctx context.Context, long bool) (context.Context, context.CancelFunc) {
	if long {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, controlTimeout)
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
	step := baseDelay << uint(attempt)
	if step > maxDelay || step <= 0 { // <=0 on shift overflow
		step = maxDelay
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
	rep, err := c.do(ctx, request{path: "/v1/jobs", body: body, key: idemKey, sendKey: true})
	out := SubmitResult{Retries: rep.retries}
	if err != nil {
		return out, err
	}
	var env struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rep.body, &env); err != nil {
		return out, fmt.Errorf("client: decoding submit response: %w", err)
	}
	out.ID = env.ID
	out.Replayed = rep.header.Get("Idempotency-Replayed") == "true"
	return out, nil
}

// request is one call under the retry policy: a POST of body as JSON
// when body is non-nil, else a GET. key seeds the backoff jitter;
// sendKey also sends it as the Idempotency-Key header (job
// submission). long calls skip the per-attempt control timeout.
type request struct {
	path    string
	body    []byte
	key     string
	sendKey bool
	long    bool
}

// reply is a successful response and the number of retries it took
// (also reported when the call fails).
type reply struct {
	body    []byte
	header  http.Header
	retries int
}

// do performs r, retrying transient failures (network errors, 429,
// 5xx) with the deterministic backoff for r.key, stretched to any
// longer Retry-After. A POST succeeds on 200 or 202, a GET on 200 only;
// any other status fails at once. Callers POST only to endpoints that
// are idempotent for the body being sent; GETs are naturally so.
func (c *Client) do(ctx context.Context, r request) (reply, error) {
	var out reply
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			delay := c.backoff(attempt-1, r.key)
			if ra := retryAfterOf(lastErr); ra > delay {
				delay = ra
			}
			if c.OnRetry != nil {
				c.OnRetry(attempt, causeOf(lastErr), delay)
			}
			out.retries++
			if err := c.sleep(ctx, delay); err != nil {
				return out, err
			}
		}
		method, body := http.MethodGet, io.Reader(nil)
		if r.body != nil {
			method, body = http.MethodPost, bytes.NewReader(r.body)
		}
		actx, cancel := attemptCtx(ctx, r.long)
		req, err := http.NewRequestWithContext(actx, method, c.BaseURL+r.path, body)
		if err != nil {
			cancel()
			return out, err
		}
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if r.sendKey && r.key != "" {
			req.Header.Set("Idempotency-Key", r.key)
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
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted && method == http.MethodPost:
			out.body, out.header = b, resp.Header
			return out, nil
		case retryable(resp.StatusCode):
			lastErr = &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b)), after: retryAfter(resp)}
		default:
			return out, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
		}
	}
	return out, fmt.Errorf("client: %s retries exhausted: %w", r.path, lastErr)
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
	rep, err := c.do(ctx, request{path: "/v1/jobs/" + id, key: id})
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return nil, fmt.Errorf("client: decoding job %s: %w", id, err)
	}
	return &st, nil
}

// Await polls a job until it reaches a terminal state or ctx expires.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	return await(ctx, c, poll, func() (*JobStatus, error) { return c.Status(ctx, id) })
}

// await polls status every poll (150 ms when not positive) until it
// reports a terminal state or ctx expires.
func await[S interface{ Terminal() bool }](ctx context.Context, c *Client, poll time.Duration, status func() (S, error)) (S, error) {
	if poll <= 0 {
		poll = 150 * time.Millisecond
	}
	for {
		st, err := status()
		if err != nil || st.Terminal() {
			return st, err
		}
		if err := c.sleep(ctx, poll); err != nil {
			var none S
			return none, err
		}
	}
}

// Result fetches the canonical result bytes of a terminal job — the
// exact bytes `skyranctl -json` prints for the same spec. It is a long
// call: only the caller's context bounds it, never the control
// timeout, so a large body (a whole campaign's merged results,
// streamed telemetry) downloads at whatever pace the network allows.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	rep, err := c.do(ctx, request{path: "/v1/jobs/" + id + "/result", key: id, long: true})
	return rep.body, err
}
