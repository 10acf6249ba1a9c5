package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/scenario"
)

// jobTiming is one in-process job's host timings, in seconds.
type jobTiming struct {
	// total runs from scenario.Run entry to the result bytes
	// (scenario.MarshalResult) — the job time.
	total float64
	// build is Run entry to OnStart: terrain, UE placement, world
	// construction with EPC attach.
	build float64
	// epochs are OnStart to the first OnEpoch, then the gaps between
	// OnEpoch calls.
	epochs []float64
	// loop is Run entry to the last OnEpoch: the job without marshaling.
	loop    float64
	marshal float64
	// rss is the job's own peak resident set in MiB.
	rss float64
}

// runJob runs one scenario in-process and times it through the
// scenario hooks. opts may carry checkpointing; runJob owns OnStart
// and OnEpoch.
func runJob(ctx context.Context, spec scenario.Spec, opts scenario.Options) (jobTiming, []byte, error) {
	// Every job starts from a collected heap whose free pages are back
	// with the OS, as in a fresh skyranctl process. Otherwise the previous
	// job's garbage is collected on this job's time, and its pages count
	// in this job's peak. Resetting the peak-RSS mark makes the peak read
	// after the job this job's own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return jobTiming{}, nil, err
	}
	var t jobTiming
	t0 := time.Now()
	last := t0
	opts.OnStart = func(*scenario.Result) {
		last = time.Now()
		t.build = last.Sub(t0).Seconds()
	}
	opts.OnEpoch = func(scenario.EpochReport) {
		now := time.Now()
		t.epochs = append(t.epochs, now.Sub(last).Seconds())
		last = now
	}
	res, _, err := scenario.Run(ctx, spec, opts)
	if err != nil {
		return t, nil, err
	}
	t.loop = last.Sub(t0).Seconds()
	tm := time.Now()
	b, err := scenario.MarshalResult(res)
	t1 := time.Now()
	t.marshal = t1.Sub(tm).Seconds()
	t.total = t1.Sub(t0).Seconds()
	if err != nil {
		return t, nil, err
	}
	t.rss, err = peakRSSMiB("self")
	return t, b, err
}

// resetPeakRSS resets this process's peak-RSS mark (VmHWM) to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak-RSS mark: %w", err)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// combinedDigest digests per-seed digests in seed order.
func combinedDigest(seeds []int64, perSeed map[string]string) string {
	h := sha256.New()
	for _, s := range seeds {
		fmt.Fprintf(h, "%d:%s\n", s, perSeed[fmt.Sprint(s)])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkResult parses a job's result bytes and applies the output checks
// every job must pass: the bytes parse, the spec's epoch count is
// there, bytes are conserved (delivered + dropped never exceed offered,
// per UE, summed over the run, since a backlog can drain in a later
// epoch), relative throughput lies in [0, 1], and handover successes
// never exceed attempts.
func checkResult(b []byte, spec scenario.Spec) (*scenario.Result, error) {
	var r scenario.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("result does not parse: %w", err)
	}
	if len(r.Epochs) != spec.Epochs {
		return nil, fmt.Errorf("result has %d epochs, spec asks for %d", len(r.Epochs), spec.Epochs)
	}
	type acc struct{ offered, settled uint64 }
	perUE := map[int]*acc{}
	for _, e := range r.Epochs {
		if !(e.RelativeThroughput >= 0 && e.RelativeThroughput <= 1) {
			return nil, fmt.Errorf("epoch %d: relative_throughput %g outside [0, 1]", e.Epoch, e.RelativeThroughput)
		}
		if h := e.Handover; h != nil && h.Successes > h.Attempts {
			return nil, fmt.Errorf("epoch %d: %d handover successes exceed %d attempts", e.Epoch, h.Successes, h.Attempts)
		}
		if e.Traffic == nil {
			continue
		}
		for _, k := range e.Traffic.KPIs {
			a := perUE[k.UE]
			if a == nil {
				a = &acc{}
				perUE[k.UE] = a
			}
			a.offered += k.OfferedBytes
			a.settled += k.DeliveredBytes + k.DroppedBytes
		}
	}
	if spec.Traffic != nil && len(perUE) != spec.UEs {
		return nil, fmt.Errorf("traffic rows cover %d UEs, spec has %d", len(perUE), spec.UEs)
	}
	for id, a := range perUE {
		if a.settled > a.offered {
			return nil, fmt.Errorf("UE %d: delivered + dropped %d B exceed offered %d B", id, a.settled, a.offered)
		}
	}
	return &r, nil
}

// quality accumulates simulated outcomes: one seed's, or a run's over
// one result per seed. They repeat exactly for a fixed seed, so a pure
// speed-up leaves every one unchanged.
type quality struct {
	offered, delivered, dropped uint64
	rel                         []float64 // per (seed, epoch) where ground truth was scored
	locErr                      []float64 // per (seed, epoch) where the controller localizes
	fleetSINR                   []float64 // per (seed, epoch) on fleet runs
	hoAttempts, hoSuccesses     uint64
	pingPongs                   uint64
	offeredPkts, backlogBytes   []float64 // per seed
}

func (q *quality) add(r *scenario.Result) {
	var pkts, off, settled uint64
	for _, e := range r.Epochs {
		if e.OptimalBps > 0 {
			q.rel = append(q.rel, e.RelativeThroughput)
		}
		if e.MedianLocErrM != nil {
			q.locErr = append(q.locErr, *e.MedianLocErrM)
		}
		if e.Handover != nil {
			q.fleetSINR = append(q.fleetSINR, e.ObjectiveValue)
			q.hoAttempts += e.Handover.Attempts
			q.hoSuccesses += e.Handover.Successes
			q.pingPongs += e.Handover.PingPongs
		}
		if t := e.Traffic; t != nil {
			q.offered += t.Summary.OfferedBytes
			q.delivered += t.Summary.DeliveredBytes
			q.dropped += t.Summary.DroppedBytes
			off += t.Summary.OfferedBytes
			settled += t.Summary.DeliveredBytes + t.Summary.DroppedBytes
			for _, k := range t.KPIs {
				pkts += k.OfferedPackets
			}
		}
	}
	q.offeredPkts = append(q.offeredPkts, float64(pkts))
	q.backlogBytes = append(q.backlogBytes, float64(off-settled))
}

// merge adds another accumulation's outcomes to q.
func (q *quality) merge(o quality) {
	q.offered += o.offered
	q.delivered += o.delivered
	q.dropped += o.dropped
	q.rel = append(q.rel, o.rel...)
	q.locErr = append(q.locErr, o.locErr...)
	q.fleetSINR = append(q.fleetSINR, o.fleetSINR...)
	q.hoAttempts += o.hoAttempts
	q.hoSuccesses += o.hoSuccesses
	q.pingPongs += o.pingPongs
	q.offeredPkts = append(q.offeredPkts, o.offeredPkts...)
	q.backlogBytes = append(q.backlogBytes, o.backlogBytes...)
}

// runQuality merges the references' outcomes over the run's seeds.
func runQuality(refs refSet, seeds []int64) quality {
	var q quality
	for _, sd := range seeds {
		if ref, ok := refs[sd]; ok {
			q.merge(ref.outcome)
		}
	}
	return q
}

// report stores the quality outcomes: delivered_frac as an end-to-end
// metric (when metrics is non-nil), the rest as extras.
// An outcome the scenario does not compute is NaN and left out.
func (q *quality) report(r *runRecord, metrics map[string]float64) {
	if metrics != nil {
		metrics["delivered_frac"] = float64(q.delivered) / float64(q.offered)
	}
	r.Extra["rel_throughput"] = mean(q.rel)
	r.Extra["loc_err_m_p50"] = median(q.locErr)
	r.Extra["min_sinr_db"] = mean(q.fleetSINR)
	r.Extra["offered_bytes"] = float64(q.offered)
	r.Extra["delivered_bytes"] = float64(q.delivered)
	r.Extra["dropped_bytes"] = float64(q.dropped)
	if q.hoAttempts > 0 || len(q.fleetSINR) > 0 {
		r.Extra["handover_attempts"] = float64(q.hoAttempts)
		r.Extra["handover_success_frac"] = float64(q.hoSuccesses) / float64(q.hoAttempts)
		r.Extra["ping_pongs"] = float64(q.pingPongs)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
