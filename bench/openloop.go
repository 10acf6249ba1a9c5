package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/scenario"
)

// Load shape of daemon-openloop. Independent users submit jobs, so the
// main phase is an open loop: seeded arrivals with exponential gaps at
// openLoopRate, each job timed from when it was due, not from when it
// was sent. A job takes ~0.55 s in skyrand, so the two workers run at
// about 40% of their capacity and one job in five waits for a worker,
// which the p80 shows. With half the jobs waiting, the p50 would flip
// from run to run between a job that waited and one that did not. The
// remaining share of the run is a closed loop with
// saturationOutstanding jobs in flight, whose completion rate is the
// daemon's throughput.
const (
	openLoopRate          = 1.5 // jobs/s
	openLoopShare         = 0.7
	saturationOutstanding = 2
	// warmJobs run through the daemon before the open loop, one per
	// worker, so no open-loop job pays a worker's first-job costs.
	warmJobs = daemonWorkers
	// sloLatencyS is the latency limit: a job slower than this, or
	// failed, or refused, misses it.
	sloLatencyS = 3.0
	// daemonStarts is how many times setup starts skyrand; setup_s is
	// the median exec-to-ready time and the last daemon serves the run.
	daemonStarts = 5
	// phaseTimeout bounds the wait for a phase's jobs to finish.
	phaseTimeout = 90 * time.Second
)

// arrivals returns n seeded arrival offsets at rate per second; the
// same seed always yields the same schedule. The gaps are the n
// quantiles (k+½)/n of the exponential distribution with mean 1/rate,
// in a seeded order: Poisson's gap distribution, but the same set of
// gaps on every seed, so that one run's schedule is about as bursty as
// the next one's and tail latency moves less between runs than it
// would with independent draws.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	gaps := make([]float64, n)
	for k := range gaps {
		gaps[k] = -math.Log(1-(float64(k)+0.5)/float64(n)) / rate
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	out := make([]time.Duration, n)
	var t float64
	for i, g := range gaps {
		t += g
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// startDaemons is the daemon set-up: it starts skyrand daemonStarts
// times, stopping all but the last, and returns the last with every
// exec-to-ready time.
func startDaemons(ctx context.Context, bin, tmp string, client *http.Client) (*daemon, []float64, error) {
	var readys []float64
	for i := 0; ; i++ {
		d, err := startDaemon(ctx, bin, filepath.Join(tmp, "skyrand-"+strconv.Itoa(i)), client)
		if err != nil {
			return nil, readys, err
		}
		readys = append(readys, d.readyS)
		if i == daemonStarts-1 {
			return d, readys, nil
		}
		if err := d.stop(); err != nil {
			return nil, readys, fmt.Errorf("stopping set-up daemon: %w", err)
		}
	}
}

// runDaemonWorkload is daemon-openloop's timed pass. The seed set's
// in-process results are computed first as references; then a real
// skyrand is started (setup), warmed with one job per worker, driven by
// the open loop, and finally saturated. Every job's result bytes must
// equal its seed's in-process reference.
func runDaemonWorkload(ctx context.Context, w workload, seed int64, seconds float64, small bool, bin, tmp string) *runRecord {
	rec := newRecord(w, seed, seconds, false)
	seeds := seedSet(seed, w.timedSeeds(small))
	refs, warmWall := warmUp(ctx, rec, w, seeds, small)
	if len(refs) != len(seeds) {
		rec.finish()
		return rec
	}
	rec.Extra["scenario.warmup_s"] = warmWall
	client := newClient()
	defer client.CloseIdleConnections()
	d, readys, err := startDaemons(ctx, bin, tmp, client)
	if err != nil {
		rec.problem("daemon set-up: %v", err)
		rec.finish()
		return rec
	}
	m := rec.Metrics
	m["setup_s"] = median(readys)
	rec.Samples["setup_s"] = len(readys)

	s := openSession(ctx, d, client, func(sd int64) scenario.Spec { return w.spec(sd, small) })
	// The daemon keeps every job's result, events and REM store, so its
	// memory grows with the jobs it has run. Peak RSS is read before the
	// saturation phase, whose job count grows with throughput, so that
	// a faster daemon does not read as a bigger one.
	rss := func() {
		if v, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid)); err == nil {
			m["peak_rss_mb"] = v
		} else {
			rec.problem("skyrand peak RSS: %v", err)
		}
	}
	open, sat, satWall, lateMax := drive(ctx, rec, s, refs, seed, seeds, seconds, rss)
	if err := s.close(); err != nil {
		rec.problem("stopping skyrand: %v", err)
	}
	checkJobs(rec, open, refs)
	checkJobs(rec, sat, refs)

	var lat, runs, waits, submits, fetches []float64
	misses := 0
	for _, j := range open {
		if !j.ok(refs) {
			misses++
			continue
		}
		lat = append(lat, j.latency())
		runs = append(runs, j.runTime())
		waits = append(waits, j.queueWait())
		submits = append(submits, j.submitS)
		fetches = append(fetches, j.fetchS)
		if j.latency() > sloLatencyS {
			misses++
		}
	}
	satOK := 0
	for _, j := range sat {
		if j.ok(refs) {
			satOK++
		}
	}
	m["job_s_p50"] = nearestRank(runs, 50)
	rec.Samples["job_s"] = len(runs)
	rec.latencies(lat)
	m["jobs_per_s"] = float64(satOK) / satWall
	rec.Samples["jobs_per_s"] = satOK

	q := runQuality(refs, seeds)
	q.report(rec, m)
	x := rec.Extra
	rec.percentiles(x, "server.queue_wait_s", waits)
	x["server.run_s_p50"] = m["job_s_p50"]
	x["server.submit_s_p50"] = nearestRank(submits, 50)
	x["server.fetch_s_p50"] = nearestRank(fetches, 50)
	x["server.rejected_429"] = float64(s.g.rejected)
	x["loadgen.late_s_max"] = lateMax
	x["open_loop_jobs"] = float64(len(open))
	x["slo_miss_frac"] = float64(misses) / float64(len(open))
	x["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.finish()
	return rec
}

// drive runs the daemon's warm-up, open-loop and saturation phases and
// returns the open-loop and saturation jobs, the saturation phase's
// wall time, and how late the generator ran at worst. beforeSaturation
// runs between the open loop and the saturation phase.
func drive(ctx context.Context, rec *runRecord, s *session, refs map[int64]reference, seed int64, seeds []int64, seconds float64, beforeSaturation func()) (open, sat []*jobTrack, satWall, lateMax float64) {
	pctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	warm, err := s.burst(pctx, seeds[:min(warmJobs, len(seeds))])
	checkJobs(rec, warm, refs)
	if err != nil {
		rec.problem("daemon warm-up: %v", err)
		return nil, nil, math.NaN(), math.NaN()
	}

	n := max(1, int(math.Round(openLoopRate*seconds*openLoopShare)))
	base := s.g.completedCount()
	t0 := time.Now()
	for i, off := range arrivals(seed, openLoopRate, n) {
		due := t0.Add(off)
		select {
		case <-time.After(time.Until(due)):
		case <-pctx.Done():
		}
		j := &jobTrack{seed: seeds[i%len(seeds)], scheduled: due}
		s.g.submit(pctx, j)
		lateMax = max(lateMax, j.late())
		open = append(open, j)
	}
	if err := s.g.waitCompleted(pctx, base+n); err != nil {
		rec.problem("open loop: %v", err)
		return open, nil, math.NaN(), lateMax
	}
	beforeSaturation()

	satStart := time.Now()
	satEnd := satStart.Add(time.Duration(seconds * (1 - openLoopShare) * float64(time.Second)))
	seen, inflight := s.g.completedCount(), 0
	for {
		for inflight < saturationOutstanding && (len(sat) < saturationOutstanding || time.Now().Before(satEnd)) {
			j := &jobTrack{seed: seeds[len(sat)%len(seeds)], scheduled: time.Now()}
			s.g.submit(pctx, j)
			sat = append(sat, j)
			inflight++
		}
		if inflight == 0 {
			break
		}
		if err := s.g.waitCompleted(pctx, seen+1); err != nil {
			rec.problem("saturation: %v", err)
			return open, sat, math.NaN(), lateMax
		}
		now := s.g.completedCount()
		inflight -= now - seen
		seen = now
	}
	last := satStart
	for _, j := range sat {
		if j.fetched.After(last) {
			last = j.fetched
		}
	}
	return open, sat, last.Sub(satStart).Seconds(), lateMax
}
