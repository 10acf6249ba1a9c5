package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/radio"
	"repro/internal/scenario"
)

// profileShare is the least share of the controller's first epoch that
// localization solves plus REM interpolation must take
// (probe.locate_rem_frac) on a workload with checkProfile — the profile
// ROADMAP reports for the 5-UE spec (~59% + ~20% of the job).
const profileShare = 0.5

// runTraced is a workload's traced pass. It never yields an end-to-end
// metric; it reports the per-layer metrics, all measured on the
// workload's own scenario and seed set:
//
//  1. warm-up: one untimed job per seed (references, scenario.warmup_s);
//  2. a second untraced pass timed through the scenario hooks (build,
//     epoch and marshal times, obstruction-cache hit rate);
//  3. the replica: the same scenario rebuilt from public calls with a
//     span around each, checked epoch by epoch against scenario.Run;
//  4. controller probes on a second world;
//  5. traffic, GTP-U and SINR micro-benchmarks;
//  6. one checkpointed run (its bytes must not change);
//  7. the seed set submitted to a real skyrand at once.
func runTraced(ctx context.Context, w workload, seed int64, small bool, bin, tmp, spanPath string) *runRecord {
	rec := newRecord(w, seed, 0, true)
	seeds := seedSet(seed, tracedSeeds(small))
	l := layerSamples{}
	refs, warmWall := warmUp(ctx, rec, w, seeds, small)
	if len(refs) != len(seeds) {
		rec.finish()
		return rec
	}
	l.add("scenario.warmup_s", warmWall)

	// 2. Untraced, hooked.
	h0, m0 := radio.ObsCacheStats()
	untraced := map[int64]float64{}
	for _, sd := range seeds {
		spec := w.spec(sd, small)
		t, b, err := runJob(ctx, spec, scenario.Options{})
		rec.Attempted++
		if err != nil || digest(b) != refs[sd].sha {
			rec.jobFailed("seed %d: hooked pass: result differs from the warm-up (err %v)", sd, err)
			continue
		}
		l.add("scenario.build_s", t.build)
		for _, e := range t.epochs {
			l.add("scenario.epoch_s", e)
		}
		l.add("scenario.marshal_s", t.marshal)
		l.add("scenario.result_bytes", float64(len(b)))
		untraced[sd] = t.loop
	}
	h1, m1 := radio.ObsCacheStats()
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		l.add("radio.obs_cache_hit_frac", float64(h1-h0)/float64(lookups))
	}

	// 3-5. Traced replica, probes and micro-benchmarks.
	tr := newTracer(w.name)
	for _, sd := range seeds {
		tr.seed = sd
		spec := w.spec(sd, small)
		out, err := replicate(ctx, tr, spec, l)
		if err == nil {
			err = matchReport(out, refs[sd].placements)
		}
		if err != nil {
			rec.problem("seed %d: replica: %v", sd, err)
			continue
		}
		// The replica does the hooked job's work minus marshaling, so the
		// ratio of the two is the tracing overhead (noise included).
		if u, ok := untraced[sd]; ok {
			l.add("trace.overhead_frac", out.wall/u-1)
		}
		if err := probe(ctx, tr, spec, l); err != nil {
			rec.problem("seed %d: %v", sd, err)
		}
		trafficMicro(tr, spec, l)
		sinrMicro(tr, out, l)
	}
	tr.seed = seed
	gtpuMicro(tr, l)

	q := runQuality(refs, seeds)
	q.report(rec, nil)
	for _, v := range q.offeredPkts {
		l.add("traffic.offered_packets", v)
	}
	for _, v := range q.backlogBytes {
		l.add("traffic.backlog_bytes", v)
	}

	// 6. Checkpointing must not change the bytes.
	checkpointProbe(ctx, rec, tr, w.spec(seeds[0], small), refs[seeds[0]].sha, filepath.Join(tmp, "checkpoint-probe"), l)

	// 7. The daemon's own split of submit, queue, run and fetch.
	serverProbe(ctx, rec, tr, w, seeds, small, refs, bin, filepath.Join(tmp, "skyrand-probe"), l)

	for _, d := range perLayerMetrics {
		rec.Metrics[d.name] = l.value(d.name)
	}
	if w.checkProfile {
		if share := l.value("probe.locate_rem_frac"); share < profileShare {
			rec.problem("localization solves plus REM interpolation take %.0f%% of the controller epoch, expected at least %.0f%%", 100*share, 100*profileShare)
		}
	}
	if err := tr.write(spanPath, rec.Provenance); err != nil {
		rec.problem("writing spans: %v", err)
	} else {
		rec.SpanFile = spanPath
	}
	rec.Extra["failed_frac"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.finish()
	return rec
}

// checkpointProbe runs one seed with epoch checkpointing and records
// each checkpoint's commit time and size.
func checkpointProbe(ctx context.Context, rec *runRecord, tr *tracer, spec scenario.Spec, sha, dir string, l layerSamples) {
	defer os.RemoveAll(dir)
	tr.seed = spec.Seed
	var evs []scenario.CheckpointEvent
	opts := scenario.Options{
		Checkpoint:   &scenario.CheckpointConfig{Dir: dir, EveryEpochs: 1},
		OnCheckpoint: func(ev scenario.CheckpointEvent) { evs = append(evs, ev) },
	}
	var b []byte
	var err error
	tr.do("scenario.Run(checkpointed)", func() { _, b, err = runJob(ctx, spec, opts) })
	rec.Attempted++
	switch {
	case err != nil:
		rec.jobFailed("seed %d: checkpointed run: %v", spec.Seed, err)
	case digest(b) != sha:
		rec.jobFailed("seed %d: checkpointing changed the result bytes", spec.Seed)
	}
	for _, ev := range evs {
		l.add("checkpoint.write_s", ev.Seconds)
		l.add("checkpoint.bytes", float64(ev.Bytes))
	}
}

// serverProbe starts skyrand, submits one job per seed back to back and
// splits each job's life into submit, queue wait, run and fetch.
func serverProbe(ctx context.Context, rec *runRecord, tr *tracer, w workload, seeds []int64, small bool, refs map[int64]reference, bin, dir string, l layerSamples) {
	defer os.RemoveAll(dir)
	client := newClient()
	defer client.CloseIdleConnections()
	var d *daemon
	var err error
	tr.do("skyrand.start", func() { d, err = startDaemon(ctx, bin, dir, client) })
	if err != nil {
		rec.problem("server probe: %v", err)
		return
	}
	l.add("server.ready_s", d.readyS)
	s := openSession(ctx, d, client, func(sd int64) scenario.Spec { return w.spec(sd, small) })
	var jobs []*jobTrack
	tr.do("skyrand.jobs", func() {
		pctx, cancel := context.WithTimeout(ctx, phaseTimeout)
		defer cancel()
		jobs, err = s.burst(pctx, seeds)
	})
	if cerr := s.close(); cerr != nil {
		rec.problem("server probe: stopping skyrand: %v", cerr)
	}
	if err != nil {
		rec.problem("server probe: %v", err)
	}
	checkJobs(rec, jobs, refs)
	for _, j := range jobs {
		if j.ok(refs) {
			l.add("server.submit_s_p50", j.submitS)
			l.add("server.queue_wait_s_mean", j.queueWait())
			l.add("server.run_s_p50", j.runTime())
			l.add("server.fetch_s_p50", j.fetchS)
		}
	}
}

// spanPathFor is where a traced run writes its spans.
func spanPathFor(workdir string, w workload, seed int64) string {
	return filepath.Join(workdir, "results", fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
}
