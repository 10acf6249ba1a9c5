package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/scenario"
)

// HTTP surface of the coordinator. It intentionally mirrors the worker
// daemon's API shape — JSON envelopes, 202 on accept, 429 +
// Retry-After on backpressure — so skyranctl drives a coordinator with
// the same client and retry policy it uses against a single daemon.

const maxCampaignBytes = 1 << 20

// CampaignRequest is the submission body: a spec template plus either
// an explicit seed list or a contiguous [seed_base, seed_base+
// seed_count) range (both may be combined; the union is used).
type CampaignRequest struct {
	Spec      scenario.Spec `json:"spec"`
	Seeds     []int64       `json:"seeds,omitempty"`
	SeedBase  int64         `json:"seed_base,omitempty"`
	SeedCount int           `json:"seed_count,omitempty"`
}

// ExpandSeeds resolves the request's seed set.
func (r *CampaignRequest) ExpandSeeds() ([]int64, error) {
	seeds := append([]int64(nil), r.Seeds...)
	if r.SeedCount < 0 || r.SeedCount > scenario.MaxShardSeeds {
		return nil, fmt.Errorf("seed_count %d out of range [0, %d]", r.SeedCount, scenario.MaxShardSeeds)
	}
	if r.SeedCount > 0 && r.SeedBase > math.MaxInt64-int64(r.SeedCount-1) {
		return nil, fmt.Errorf("seed_base %d + seed_count %d overflows int64", r.SeedBase, r.SeedCount)
	}
	for i := 0; i < r.SeedCount; i++ {
		seeds = append(seeds, r.SeedBase+int64(i))
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("campaign needs seeds or seed_base/seed_count")
	}
	return seeds, nil
}

type campaignEnvelope struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Error     string `json:"error,omitempty"`
	Seeds     int    `json:"seeds"`
	Merged    int    `json:"merged"`
	Failed    int    `json:"failed,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`
}

func envelopeOf(cm *Campaign) campaignEnvelope {
	return campaignEnvelope{
		ID:        cm.ID,
		Status:    string(cm.State()),
		Error:     cm.Err(),
		Seeds:     len(cm.Seeds),
		Merged:    cm.MergedCount(),
		Failed:    cm.FailedSeeds(),
		Recovered: cm.Recovered(),
	}
}

type workerStatus struct {
	Addr             string `json:"addr"`
	Healthy          bool   `json:"healthy"`
	Inflight         int64  `json:"inflight"`
	ReportedLoad     int64  `json:"reported_load"`
	ConsecutiveFails int64  `json:"consecutive_fails"`
	Breaker          string `json:"breaker"`
}

type clusterStatus struct {
	Route     string         `json:"route"`
	Workers   []workerStatus `json:"workers"`
	Healthy   int            `json:"healthy"`
	Campaigns int            `json:"campaigns"`
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", c.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", c.handleGet)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", c.handleResult)
	mux.HandleFunc("GET /v1/cluster/status", c.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok") //nolint:errcheck
	})
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.reg.WriteText(w) //nolint:errcheck
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCampaignBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid campaign request: "+err.Error())
		return
	}
	seeds, err := req.ExpandSeeds()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cm, err := c.SubmitCampaign(req.Spec, seeds)
	if err != nil {
		var te *ThrottledError
		if errors.As(err, &te) {
			secs := int(math.Ceil(te.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, te.Error())
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, envelopeOf(cm))
}

func (c *Coordinator) handleList(w http.ResponseWriter, _ *http.Request) {
	cms := c.Campaigns()
	out := make([]campaignEnvelope, 0, len(cms))
	for _, cm := range cms {
		out = append(out, envelopeOf(cm))
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	cm, ok := c.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, envelopeOf(cm))
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	cm, ok := c.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	switch cm.State() {
	case CampaignSucceeded:
	case CampaignFailed:
		writeError(w, http.StatusConflict, "campaign failed: "+cm.Err())
		return
	default:
		writeError(w, http.StatusConflict, "campaign still running")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(cm.Merged()) //nolint:errcheck
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := clusterStatus{Route: c.Route(), Healthy: c.HealthyWorkers()}
	for _, wk := range c.workers {
		st.Workers = append(st.Workers, workerStatus{
			Addr:             wk.Addr,
			Healthy:          wk.Healthy(),
			Inflight:         wk.inflight.Load(),
			ReportedLoad:     wk.reported.Load(),
			ConsecutiveFails: wk.fails.Load(),
			Breaker:          string(wk.br.State()),
		})
	}
	c.mu.Lock()
	st.Campaigns = len(c.campaigns)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleReadyz mirrors the worker capacity-report shape: the
// coordinator is ready while at least one worker remains routable.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := c.HealthyWorkers()
	var inflight int64
	breakersOpen := 0
	breakers := make(map[string]string, len(c.workers))
	for _, wk := range c.workers {
		inflight += wk.inflight.Load()
		st := wk.br.State()
		breakers[wk.Addr] = string(st)
		if st == BreakerOpen {
			breakersOpen++
		}
	}
	rep := map[string]any{
		"status":        "ready",
		"queue_depth":   0,
		"queue_cap":     0,
		"inflight":      inflight,
		"workers":       healthy,
		"breakers":      breakers,
		"breakers_open": breakersOpen,
	}
	code := http.StatusOK
	if healthy == 0 {
		rep["status"] = "unready"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rep)
}
