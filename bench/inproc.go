package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// reference is what a run keeps of one scenario seed's first result.
// Every later job of the seed, in-process or through the daemon, must
// reproduce its digest. The parsed result itself is not kept: on
// serve-10k it holds tens of megabytes, which would change the heap
// every later job runs in.
type reference struct {
	sha     string
	outcome quality
	// placements are each epoch's position and objective, which the
	// traced pass's replica must reproduce.
	placements []replicaEpoch
}

// refSet holds a run's references, by scenario seed.
type refSet map[int64]reference

// accept checks a job's result bytes. A seed's first result must pass
// the output checks and becomes its reference; every later result must
// reproduce the reference's bytes, which is the same as passing the
// checks again.
func (rs refSet) accept(rec *runRecord, spec scenario.Spec, b []byte) error {
	if ref, ok := rs[spec.Seed]; ok {
		if digest(b) != ref.sha {
			return fmt.Errorf("result differs from the seed's first result")
		}
		return nil
	}
	res, err := checkResult(b, spec)
	if err != nil {
		return err
	}
	ref := reference{sha: digest(b), placements: placementsOf(res)}
	ref.outcome.add(res)
	rs[spec.Seed] = ref
	rec.SeedSHA256[fmt.Sprint(spec.Seed)] = ref.sha
	return nil
}

// job runs one in-process job and checks its result; a failed job is
// counted and reported as not ok.
func (rs refSet) job(ctx context.Context, rec *runRecord, spec scenario.Spec) (jobTiming, bool) {
	t, b, err := runJob(ctx, spec, scenario.Options{})
	rec.Attempted++
	if err == nil {
		err = rs.accept(rec, spec, b)
	}
	if err != nil {
		rec.jobFailed("seed %d: %v", spec.Seed, err)
		return t, false
	}
	return t, true
}

// warmUp runs every seed once, untimed and in-process, and returns the
// references and the pass's wall time. A seed whose job fails has no
// reference.
func warmUp(ctx context.Context, rec *runRecord, w workload, seeds []int64, small bool) (refSet, float64) {
	refs := refSet{}
	start := time.Now()
	for _, sd := range seeds {
		refs.job(ctx, rec, w.spec(sd, small))
	}
	rec.ResultSHA256 = combinedDigest(seeds, rec.SeedSHA256)
	return refs, time.Since(start).Seconds()
}

// runInProcess is an in-process workload's timed pass, with tracing
// off. One untimed job comes first: a process's first job pays for heap
// growth and page faults that no later job does. Then jobs run in a
// closed loop, one outstanding, through the workload's seed set — every
// seed at least once, and cycling on until the run's seconds have
// passed. Each seed's first result is checked; a repeat must reproduce
// its bytes, the first seed's included, since the untimed job ran it.
func runInProcess(ctx context.Context, w workload, seed int64, seconds float64, small bool) *runRecord {
	rec := newRecord(w, seed, seconds, false)
	seeds := seedSet(seed, w.timedSeeds(small))
	refs := refSet{}
	start := time.Now()
	warm, ok := refs.job(ctx, rec, w.spec(seeds[0], small))
	if !ok {
		rec.finish()
		return rec
	}
	rec.Extra["scenario.warmup_s"] = time.Since(start).Seconds()

	var timed []jobTiming
	start = time.Now()
	for i := 0; i < len(seeds) || time.Since(start).Seconds() < seconds; i++ {
		if ctx.Err() != nil {
			rec.problem("interrupted: %v", ctx.Err())
			break
		}
		if t, ok := refs.job(ctx, rec, w.spec(seeds[i%len(seeds)], small)); ok {
			timed = append(timed, t)
		}
	}
	rec.ResultSHA256 = combinedDigest(seeds, rec.SeedSHA256)

	builds := []float64{warm.build}
	var totals, epochs, marshals, rss []float64
	busy := 0.0
	for _, t := range timed {
		builds = append(builds, t.build)
		totals = append(totals, t.total)
		epochs = append(epochs, t.epochs...)
		marshals = append(marshals, t.marshal)
		rss = append(rss, t.rss)
		busy += t.total
	}
	m := rec.Metrics
	m["setup_s"] = median(builds)
	m["job_s_p50"] = nearestRank(totals, 50)
	// Time in jobs, not wall time: the result checks between jobs are
	// the benchmark's work, not the program's.
	m["jobs_per_s"] = float64(len(timed)) / busy
	// One job outstanding: a job is issued the moment the previous one
	// returns, so its latency is its job time.
	rec.latencies(totals)
	rec.Samples["job_s"] = len(totals)
	rec.Samples["setup_s"] = len(builds)
	// A job's own peak, as one skyranctl run would reach, not the
	// process's: that would be the largest over the seed set, and vary
	// with which seeds ran.
	m["peak_rss_mb"] = median(rss)
	rec.Samples["peak_rss_mb"] = len(rss)

	q := runQuality(refs, seeds)
	q.report(rec, m)
	rec.Extra["scenario.build_s"] = median(builds)
	rec.Extra["scenario.epoch_s"] = median(epochs)
	rec.Extra["scenario.marshal_s"] = median(marshals)
	rec.Extra["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.finish()
	return rec
}
