package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/scenario"
	"repro/internal/specfile"
)

// yamlContentType reports whether a Content-Type header announces a
// YAML scenario document (application/yaml, text/yaml and the legacy
// x- variants, with or without parameters).
func yamlContentType(ct string) bool {
	mediatype, _, _ := strings.Cut(ct, ";")
	switch strings.ToLower(strings.TrimSpace(mediatype)) {
	case "application/yaml", "text/yaml", "application/x-yaml", "text/x-yaml":
		return true
	}
	return false
}

// jobEnvelope is the wire form of a job's status. Result carries the
// canonical scenario.MarshalResult bytes verbatim (RawMessage, not
// re-encoded) so /v1/jobs/{id} and /v1/jobs/{id}/result never disagree
// with a skyranctl -json run of the same spec.
type jobEnvelope struct {
	ID          string          `json:"id"`
	Spec        scenario.Spec   `json:"spec"`
	Status      JobState        `json:"status"`
	Recovered   bool            `json:"recovered,omitempty"`
	ResumeError string          `json:"resume_error,omitempty"`
	Error       string          `json:"error,omitempty"`
	Stack       string          `json:"stack,omitempty"`
	Submitted   string          `json:"submitted,omitempty"`
	Started     string          `json:"started,omitempty"`
	Finished    string          `json:"finished,omitempty"`
	REMEntries  int             `json:"rem_entries,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

const timeLayout = "2006-01-02T15:04:05.000Z07:00"

func (j *Job) envelope(withResult bool) jobEnvelope {
	j.mu.Lock()
	defer j.mu.Unlock()
	env := jobEnvelope{ID: j.id, Spec: j.spec, Status: j.state, Recovered: j.recovered, ResumeError: j.resumeErr, Error: j.errMsg, Stack: j.panicStack}
	if !j.submitted.IsZero() {
		env.Submitted = j.submitted.UTC().Format(timeLayout)
	}
	if !j.started.IsZero() {
		env.Started = j.started.UTC().Format(timeLayout)
	}
	if !j.finished.IsZero() {
		env.Finished = j.finished.UTC().Format(timeLayout)
	}
	if j.store != nil {
		env.REMEntries = j.store.Len()
	}
	if withResult && len(j.resultJSON) > 0 {
		env.Result = json.RawMessage(j.resultJSON)
	}
	return env
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/shards", s.handleShard)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/rem", s.handleREM)
	mux.HandleFunc("GET /v1/jobs/{id}/rem/query", s.handleREMQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.chaos != nil && s.chaos.cfg.SlowHandlerRate > 0 {
		return s.slowMiddleware(mux, s.mSlowHandlers)
	}
	return mux
}

// maxSubmitBytes caps a job-submission body; a scenario spec is a few
// hundred bytes, so anything past this is junk or abuse.
const maxSubmitBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
	}
	return j, ok
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var spec scenario.Spec
	if yamlContentType(r.Header.Get("Content-Type")) {
		// A scenario document (kind skyran/Scenario) submitted as-is:
		// the daemon compiles it through the same strict path as
		// `skyranctl -spec`, so a file submission and the equivalent
		// JSON spec land on identical jobs.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("spec body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Sprintf("reading spec: %v", err))
			return
		}
		doc, err := specfile.Parse("request body", body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		spec, err = doc.Compile()
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("spec body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding spec: %v", err))
			return
		}
	}
	job, replayed, err := s.SubmitIdem(spec, r.Header.Get("Idempotency-Key"))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	if replayed {
		// The key was already used: answer with the existing job and
		// never enqueue a duplicate (a retried submission after a lost
		// response or daemon restart lands here).
		w.Header().Set("Idempotency-Replayed", "true")
		writeJSON(w, http.StatusOK, job.envelope(false))
		return
	}
	writeJSON(w, http.StatusAccepted, job.envelope(false))
}

// handleShard accepts a campaign shard — a spec template plus a seed
// range — and fans it into one sub-job per seed, all-or-nothing. The
// cluster coordinator is the intended caller, but the endpoint is
// plain HTTP like everything else here.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var ss scenario.ShardSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ss); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("shard body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding shard: %v", err))
		return
	}
	jobs, err := s.SubmitShard(ss)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"jobs": jobs})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]jobEnvelope, len(jobs))
	for i, j := range jobs {
		out[i] = j.envelope(false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.envelope(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !s.Cancel(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j, _ := s.Get(r.PathValue("id"))
	writeJSON(w, http.StatusOK, j.envelope(false))
}

// handleResult serves the raw canonical result bytes — exactly what
// `skyranctl -json` prints for the same spec.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, body := j.state, j.resultJSON
	j.mu.Unlock()
	if !terminal(state) {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; result not ready", state))
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusGone, fmt.Sprintf("job %s without a result", state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

// handleEvents streams the job's telemetry as JSONL: history first,
// then live records as the run emits them, closing when the job
// finishes or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		recs, closed, change := j.events.snapshot(cursor)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
		cursor += len(recs)
		if flusher != nil {
			flusher.Flush()
		}
		if closed {
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		}
	}
}

// handleREM serves the job's REM store in rem.Store.Save form —
// re-loadable with rem.LoadStore, so an operator can pull a flight's
// radio maps off the daemon and seed the next flight with them.
func (s *Server) handleREM(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	snap := j.remSnap
	state := j.state
	j.mu.Unlock()
	if len(snap) == 0 {
		if !terminal(state) {
			writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; REM snapshot not ready", state))
		} else {
			writeError(w, http.StatusNotFound, "job kept no REM store")
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+j.ID()+`.rem.gz"`)
	w.Write(snap) //nolint:errcheck
}

// handleREMQuery evaluates every stored REM at the query point:
// GET /v1/jobs/{id}/rem/query?x=120&y=85
func (s *Server) handleREMQuery(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobOr404(w, r)
	if !ok {
		return
	}
	x, errX := strconv.ParseFloat(r.URL.Query().Get("x"), 64)
	y, errY := strconv.ParseFloat(r.URL.Query().Get("y"), 64)
	if errX != nil || errY != nil {
		writeError(w, http.StatusBadRequest, "x and y must be float query parameters")
		return
	}
	j.mu.Lock()
	store := j.store
	state := j.state
	j.mu.Unlock()
	if store == nil {
		if !terminal(state) {
			writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; REM store not ready", state))
		} else {
			writeError(w, http.StatusNotFound, "job kept no REM store")
		}
		return
	}
	p := geom.V2(x, y)
	writeJSON(w, http.StatusOK, map[string]any{
		"x":    x,
		"y":    y,
		"rems": store.At(p),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyReport is the /readyz body: readiness plus the capacity report
// least-loaded cluster routing feeds on — queue depth, inflight jobs
// and worker-pool size. It is equally useful standalone: one curl tells
// an operator how loaded a daemon is.
type readyReport struct {
	Status      string `json:"status"`
	QueueDepth  int    `json:"queue_depth"`
	QueueCap    int    `json:"queue_cap"`
	Inflight    int    `json:"inflight"`
	Workers     int    `json:"workers"`
	Quarantined int    `json:"quarantined_jobs"`
}

// handleReadyz reports readiness: healthy and accepting new jobs.
// During drain it flips to 503 so load balancers stop routing here
// while in-flight jobs finish. The body always carries the capacity
// report.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rep := readyReport{
		Status:      "ready",
		QueueDepth:  len(s.queue),
		QueueCap:    s.cfg.QueueCap,
		Inflight:    int(s.gRunning.Value()),
		Workers:     s.cfg.Workers,
		Quarantined: s.QuarantinedJobs(),
	}
	if s.Draining() {
		rep.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, rep)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scrape()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w) //nolint:errcheck
}
