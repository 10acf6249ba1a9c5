package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/scenario"
)

// Cluster-facing calls: the coordinator drives worker daemons with
// Ready (capacity probe) and SubmitShard (campaign shard dispatch), and
// skyranctl drives a coordinator with SubmitCampaign /
// CampaignStatus / CampaignResult. All of them ride the same retry
// policy as the job calls, except Ready — a health probe wants a
// prompt verdict, not patience.

// ReadyReport mirrors the /readyz capacity body: readiness plus the
// load figures least-loaded routing feeds on.
type ReadyReport struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Inflight   int    `json:"inflight"`
	Workers    int    `json:"workers"`
}

// Ready reports whether the daemon accepts new work.
func (r *ReadyReport) Ready() bool { return r.Status == "ready" }

// Load is the capacity-report routing score: queued plus running jobs
// as the daemon itself sees them.
func (r *ReadyReport) Load() int { return r.QueueDepth + r.Inflight }

// Ready fetches the daemon's capacity report in a single attempt — no
// retries, bounded by the control timeout — so health probing detects a
// dead worker as fast as the transport does. A draining daemon answers
// 503 with a parseable body; that is a report (Status "draining"), not
// an error.
func (c *Client) Ready(ctx context.Context) (*ReadyReport, error) {
	actx, cancel := attemptCtx(ctx, false)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	var rep ReadyReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("client: decoding /readyz: %w", err)
	}
	return &rep, nil
}

// ShardJob maps one campaign seed to the worker sub-job running it.
type ShardJob struct {
	Seed     int64  `json:"seed"`
	ID       string `json:"id"`
	Replayed bool   `json:"replayed,omitempty"`
}

// SubmitShard dispatches a campaign shard to a worker daemon. The call
// is naturally idempotent — the worker derives per-seed idempotency
// keys from (campaign fingerprint, salt, seed) — so transient failures
// retry under the backoff policy without double-running sub-jobs.
func (c *Client) SubmitShard(ctx context.Context, ss scenario.ShardSpec) ([]ShardJob, error) {
	body, err := json.Marshal(ss)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s-shard-%d", ss.IdemSalt, firstSeed(ss.Seeds))
	rep, err := c.do(ctx, request{path: "/v1/shards", body: body, key: key})
	if err != nil {
		return nil, err
	}
	var env struct {
		Jobs []ShardJob `json:"jobs"`
	}
	if err := json.Unmarshal(rep.body, &env); err != nil {
		return nil, fmt.Errorf("client: decoding shard response: %w", err)
	}
	return env.Jobs, nil
}

func firstSeed(seeds []int64) int64 {
	if len(seeds) == 0 {
		return 0
	}
	return seeds[0]
}

// CampaignStatus is the coordinator's campaign envelope subset clients
// act on.
type CampaignStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Seeds  int    `json:"seeds"`
	Merged int    `json:"merged"`
}

// Terminal reports whether the campaign has finished.
func (c *CampaignStatus) Terminal() bool {
	switch c.Status {
	case "succeeded", "failed":
		return true
	}
	return false
}

// CampaignRequest is the coordinator submission body: a spec template
// plus either an explicit seed list or a contiguous [base, base+count)
// range.
type CampaignRequest struct {
	Spec      scenario.Spec `json:"spec"`
	Seeds     []int64       `json:"seeds,omitempty"`
	SeedBase  int64         `json:"seed_base,omitempty"`
	SeedCount int           `json:"seed_count,omitempty"`
}

// SubmitCampaign posts a campaign to a cluster coordinator, retrying
// transient failures (coordinator admission answers 429 + Retry-After,
// which the backoff honors).
func (c *Client) SubmitCampaign(ctx context.Context, req CampaignRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("campaign-%d-%d", req.SeedBase, len(req.Seeds)+req.SeedCount)
	rep, err := c.do(ctx, request{path: "/v1/campaigns", body: body, key: key})
	if err != nil {
		return "", err
	}
	var env struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rep.body, &env); err != nil {
		return "", fmt.Errorf("client: decoding campaign response: %w", err)
	}
	return env.ID, nil
}

// CampaignStatus fetches one campaign's envelope from a coordinator.
func (c *Client) CampaignStatus(ctx context.Context, id string) (*CampaignStatus, error) {
	rep, err := c.do(ctx, request{path: "/v1/campaigns/" + id, key: id})
	if err != nil {
		return nil, err
	}
	var st CampaignStatus
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return nil, fmt.Errorf("client: decoding campaign %s: %w", id, err)
	}
	return &st, nil
}

// AwaitCampaign polls a campaign until it reaches a terminal state.
func (c *Client) AwaitCampaign(ctx context.Context, id string, poll time.Duration) (*CampaignStatus, error) {
	return await(ctx, c, poll, func() (*CampaignStatus, error) { return c.CampaignStatus(ctx, id) })
}

// CampaignResult fetches the merged campaign bytes — per-seed canonical
// results in ascending seed order, byte-identical at any cluster
// topology. A long call: bounded only by ctx.
func (c *Client) CampaignResult(ctx context.Context, id string) ([]byte, error) {
	rep, err := c.do(ctx, request{path: "/v1/campaigns/" + id + "/result", key: id, long: true})
	return rep.body, err
}

// ClusterStatus fetches a coordinator's cluster status document (route,
// per-worker health and load, campaign count) as raw JSON.
func (c *Client) ClusterStatus(ctx context.Context) ([]byte, error) {
	rep, err := c.do(ctx, request{path: "/v1/cluster/status", key: "cluster-status"})
	return rep.body, err
}
