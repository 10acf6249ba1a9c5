package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// Backoff is deterministic for a fixed key, grows, and respects the
// cap.
func TestBackoffDeterministic(t *testing.T) {
	c := New("http://x")
	for attempt := 0; attempt < 10; attempt++ {
		a := c.backoff(attempt, "key-1")
		b := c.backoff(attempt, "key-1")
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		if a > maxDelay {
			t.Fatalf("attempt %d: backoff %v above cap", attempt, a)
		}
		if a <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, a)
		}
	}
	if c.backoff(0, "key-1") == c.backoff(0, "key-2") &&
		c.backoff(1, "key-1") == c.backoff(1, "key-2") &&
		c.backoff(2, "key-1") == c.backoff(2, "key-2") {
		t.Error("different keys produced identical jitter across attempts")
	}
	// Later attempts sleep at least as long as the exponential floor.
	if c.backoff(5, "k") < c.backoff(0, "k")/2 {
		t.Error("backoff does not grow with attempts")
	}
}

func TestIdempotencyKeyStable(t *testing.T) {
	spec := scenario.Spec{Terrain: "FLAT", UEs: 3, Seed: 7}
	a := IdempotencyKey(spec, "0")
	if a != IdempotencyKey(spec, "0") {
		t.Fatal("key not stable")
	}
	if a == IdempotencyKey(spec, "1") {
		t.Error("salt does not differentiate keys")
	}
	other := spec
	other.Seed = 8
	if a == IdempotencyKey(other, "0") {
		t.Error("spec does not differentiate keys")
	}
}

// Submit retries 429s (honoring Retry-After via the injected Sleep)
// and keeps sending the same Idempotency-Key.
func TestSubmitRetries429(t *testing.T) {
	var calls atomic.Int32
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j1"}) //nolint:errcheck
	}))
	defer ts.Close()

	var slept []time.Duration
	c := New(ts.URL)
	c.Sleep = func(d time.Duration) { slept = append(slept, d) }
	res, err := c.Submit(context.Background(), scenario.Spec{Terrain: "FLAT"}, "k123")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "j1" || res.Retries != 2 {
		t.Fatalf("res = %+v", res)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d < time.Second {
			t.Errorf("sleep %d = %v, want >= Retry-After (1s)", i, d)
		}
	}
	for i, k := range keys {
		if k != "k123" {
			t.Fatalf("request %d sent key %q", i, k)
		}
	}
}

// A replayed submission surfaces as Replayed=true.
func TestSubmitReplayed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Idempotency-Replayed", "true")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(map[string]string{"id": "j7"}) //nolint:errcheck
	}))
	defer ts.Close()
	res, err := New(ts.URL).Submit(context.Background(), scenario.Spec{}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.ID != "j7" {
		t.Fatalf("res = %+v", res)
	}
}

// Non-retryable statuses fail immediately.
func TestSubmitBadRequestNoRetry(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Sleep = func(time.Duration) {}
	if _, err := c.Submit(context.Background(), scenario.Spec{}, ""); err == nil {
		t.Fatal("400 should fail")
	}
	if calls.Load() != 1 {
		t.Fatalf("400 retried: %d calls", calls.Load())
	}
}

// Await polls through 5xx blips to the terminal state.
func TestAwaitRidesThroughRestart(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		switch calls.Add(1) {
		case 1:
			json.NewEncoder(w).Encode(JobStatus{ID: "j1", Status: "running"}) //nolint:errcheck
		case 2:
			w.WriteHeader(http.StatusBadGateway) // daemon restarting
		default:
			json.NewEncoder(w).Encode(JobStatus{ID: "j1", Status: "succeeded"}) //nolint:errcheck
		}
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Sleep = func(time.Duration) {}
	st, err := c.Await(context.Background(), "j1", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "succeeded" {
		t.Fatalf("status = %s", st.Status)
	}
}
