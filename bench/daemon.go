package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// daemonWorkers and daemonQueue configure every skyrand the benchmark
// starts: one worker per core of the 2-core reference host, and a queue
// deep enough that the open loop is never refused at its nominal rate.
const (
	daemonWorkers = 2
	daemonQueue   = 32
)

// daemon is a running skyrand child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	readyS float64
	// drained is closed once the child's stdout has been read to EOF;
	// cmd.Wait must not run before that.
	drained chan struct{}
	logMu   sync.Mutex
	log     bytes.Buffer
}

// startDaemon execs skyrand on an ephemeral port with its checkpoint
// and journal directory at ckptDir, and returns once /readyz answers
// 200. readyS is the time from exec to that answer.
func startDaemon(ctx context.Context, bin, ckptDir string, client *http.Client) (*daemon, error) {
	t0 := time.Now()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers),
		"-queue", strconv.Itoa(daemonQueue),
		"-checkpoint-dir", ckptDir,
		"-job-timeout", "5m",
		"-drain-grace", "20s")
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	cmd.Stderr = &lockedWriter{d: d}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting skyrand: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.note(line + "\n")
			if rest, ok := strings.CutPrefix(line, "skyrand: listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // drain after a scanner error
	}()

	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case d.base = <-addr:
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("skyrand exited before listening: %s", d.output())
	case <-deadline.C:
		d.stop()
		return nil, fmt.Errorf("skyrand did not report its address within 30 s: %s", d.output())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyS = time.Since(t0).Seconds()
				return d, nil
			}
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("skyrand /readyz not 200 within 30 s: %s", d.output())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
	}
}

type lockedWriter struct{ d *daemon }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.d.note(string(p))
	return len(p), nil
}

func (d *daemon) note(s string) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	if d.log.Len() < 64<<10 {
		d.log.WriteString(s)
	}
}

func (d *daemon) output() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.TrimSpace(d.log.String())
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than the drain grace allows.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	done := make(chan error, 1)
	go func() {
		<-d.drained
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("skyrand did not drain within 30 s; killed: %w", <-done)
	}
}

// peakRSSMiB reads a process's peak resident set (VmHWM) in MiB; pid
// "self" is this process.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc/" + pid + "/status")
}

// jobTrack is one job as the load generator sees it. Client times are
// on this process's monotonic clock; submitted/started/finished are the
// daemon's stamps (millisecond resolution) and are only ever
// subtracted from each other.
type jobTrack struct {
	seed      int64
	scheduled time.Time // when the job was due to be sent
	sent      time.Time // when its first POST went out
	submitS   float64   // round trip of the POST that was accepted
	fetchS    float64   // round trip of the result GET
	fetched   time.Time // when the result bytes were in
	refused   bool      // 429 on every attempt

	id                           string
	state                        string
	submitted, started, finished time.Time
	sha                          string
	err                          string
	done                         bool
}

func (j *jobTrack) late() float64      { return j.sent.Sub(j.scheduled).Seconds() }
func (j *jobTrack) latency() float64   { return j.fetched.Sub(j.scheduled).Seconds() }
func (j *jobTrack) queueWait() float64 { return j.started.Sub(j.submitted).Seconds() }
func (j *jobTrack) runTime() float64   { return j.finished.Sub(j.started).Seconds() }

// ok reports whether the job succeeded with its seed's reference bytes.
func (j *jobTrack) ok(refs map[int64]reference) bool {
	return j.done && !j.refused && j.state == "succeeded" && j.err == "" && j.sha == refs[j.seed].sha
}

// loadgen submits jobs to one daemon and a single poller follows them:
// it lists /v1/jobs for every job's stamps and fetches each finished
// job's result. Submitter and poller share one client limited to two
// connections.
type loadgen struct {
	base     string
	client   *http.Client
	specFor  func(seed int64) scenario.Spec
	rejected int // 429 answers, retried or not

	mu        sync.Mutex
	jobs      map[string]*jobTrack
	completed int
	change    chan struct{} // closed and replaced on every completion
}

// pollEvery is the poller's listing interval; it bounds how late a
// finished job is noticed.
const pollEvery = 20 * time.Millisecond

const serverTimeLayout = "2006-01-02T15:04:05.000Z07:00"

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
}

func newLoadgen(base string, client *http.Client, specFor func(int64) scenario.Spec) *loadgen {
	return &loadgen{base: base, client: client, specFor: specFor, jobs: map[string]*jobTrack{}, change: make(chan struct{})}
}

// submit posts the job, retrying a 429 after the daemon's Retry-After
// up to three times, and hands an accepted job to the poller. A job
// that is refused every time, or whose submission fails, completes at
// once as failed; it never reaches the poller.
func (g *loadgen) submit(ctx context.Context, j *jobTrack) {
	id, err := g.post(ctx, j)
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case err != nil:
		j.err, j.done = err.Error(), true
		g.markDone()
	case id == "":
		j.refused, j.done = true, true
		g.markDone()
	default:
		j.id = id
		g.jobs[id] = j
	}
}

// post sends the submission; it returns the job id, or "" when every
// attempt was refused.
func (g *loadgen) post(ctx context.Context, j *jobTrack) (string, error) {
	body, err := json.Marshal(g.specFor(j.seed))
	if err != nil {
		return "", err
	}
	j.sent = time.Now()
	for attempt := 0; attempt < 3; attempt++ {
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.client.Do(req)
		if err != nil {
			return "", fmt.Errorf("submitting seed %d: %w", j.seed, err)
		}
		var env struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		j.submitS = time.Since(t0).Seconds()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			g.mu.Lock()
			g.rejected++
			g.mu.Unlock()
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			select {
			case <-time.After(time.Duration(max(wait, 1)) * time.Second):
			case <-ctx.Done():
				return "", ctx.Err()
			}
			continue
		case resp.StatusCode != http.StatusAccepted:
			return "", fmt.Errorf("submitting seed %d: HTTP %d: %s", j.seed, resp.StatusCode, env.Error)
		case derr != nil:
			return "", fmt.Errorf("submitting seed %d: decoding reply: %w", j.seed, derr)
		}
		return env.ID, nil
	}
	return "", nil
}

// completedCount is how many jobs have completed so far.
func (g *loadgen) completedCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.completed
}

// markDone records one completion; g.mu must be held.
func (g *loadgen) markDone() {
	g.completed++
	close(g.change)
	g.change = make(chan struct{})
}

// waitCompleted blocks until at least n jobs have completed.
func (g *loadgen) waitCompleted(ctx context.Context, n int) error {
	for {
		g.mu.Lock()
		ok, ch := g.completed >= n, g.change
		g.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// poll follows every submitted job until ctx ends.
func (g *loadgen) poll(ctx context.Context) {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := g.pollOnce(ctx); err != nil && ctx.Err() == nil {
			// A failed listing is retried on the next tick; jobs that
			// never finish fail the run at the phase deadline.
			fmt.Fprintln(os.Stderr, "bench: polling skyrand:", err)
		}
	}
}

func (g *loadgen) pollOnce(ctx context.Context) error {
	var list struct {
		Jobs []struct {
			ID        string `json:"id"`
			Status    string `json:"status"`
			Error     string `json:"error"`
			Submitted string `json:"submitted"`
			Started   string `json:"started"`
			Finished  string `json:"finished"`
		} `json:"jobs"`
	}
	if err := g.getJSON(ctx, "/v1/jobs", &list); err != nil {
		return err
	}
	for _, e := range list.Jobs {
		if e.Status != "succeeded" && e.Status != "failed" && e.Status != "canceled" {
			continue
		}
		g.mu.Lock()
		j := g.jobs[e.ID]
		g.mu.Unlock()
		if j == nil || j.done {
			continue
		}
		j.state, j.err = e.Status, e.Error
		j.submitted, _ = time.Parse(serverTimeLayout, e.Submitted)
		j.started, _ = time.Parse(serverTimeLayout, e.Started)
		j.finished, _ = time.Parse(serverTimeLayout, e.Finished)
		if e.Status == "succeeded" {
			t0 := time.Now()
			b, err := g.get(ctx, "/v1/jobs/"+e.ID+"/result")
			if err != nil {
				j.err = err.Error()
			} else {
				j.sha = digest(b)
			}
			j.fetchS = time.Since(t0).Seconds()
		}
		j.fetched = time.Now()
		g.mu.Lock()
		j.done = true
		g.markDone()
		g.mu.Unlock()
	}
	return nil
}

func (g *loadgen) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (g *loadgen) getJSON(ctx context.Context, path string, v any) error {
	b, err := g.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// session is one daemon plus its load generator and poller.
type session struct {
	d      *daemon
	g      *loadgen
	stopPo context.CancelFunc
	polled sync.WaitGroup
}

// openSession starts the poller against a running daemon.
func openSession(ctx context.Context, d *daemon, client *http.Client, specFor func(int64) scenario.Spec) *session {
	s := &session{d: d, g: newLoadgen(d.base, client, specFor)}
	pctx, cancel := context.WithCancel(ctx)
	s.stopPo = cancel
	s.polled.Add(1)
	go func() {
		defer s.polled.Done()
		s.g.poll(pctx)
	}()
	return s
}

// close stops the poller, waits for it, then drains the daemon.
func (s *session) close() error {
	s.stopPo()
	s.polled.Wait()
	return s.d.stop()
}

// checkJobs counts every job as attempted and each one that errored,
// was refused, never finished, or returned bytes other than its seed's
// in-process reference as failed.
func checkJobs(rec *runRecord, jobs []*jobTrack, refs map[int64]reference) {
	for _, j := range jobs {
		rec.Attempted++
		switch {
		case j.ok(refs):
		case j.refused:
			rec.jobFailed("seed %d: refused (429) on every attempt", j.seed)
		case !j.done:
			rec.jobFailed("seed %d: job %s never finished", j.seed, j.id)
		case j.state != "succeeded" || j.err != "":
			rec.jobFailed("seed %d: job %s %s: %s", j.seed, j.id, j.state, j.err)
		default:
			rec.jobFailed("seed %d: job %s result differs from the in-process scenario.Run bytes", j.seed, j.id)
		}
	}
}

// burst submits one job per seed back to back and waits until all have
// completed.
func (s *session) burst(ctx context.Context, seeds []int64) ([]*jobTrack, error) {
	base := s.g.completedCount()
	jobs := make([]*jobTrack, len(seeds))
	for i, sd := range seeds {
		jobs[i] = &jobTrack{seed: sd, scheduled: time.Now()}
		s.g.submit(ctx, jobs[i])
	}
	return jobs, s.g.waitCompleted(ctx, base+len(jobs))
}
