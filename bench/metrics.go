package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (plus each end-to-end bound); a test
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them from its untraced run (--trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s_p50", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"latency_s_p50", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"delivered_frac", "fraction", "higher"},
}

// perLayerMetrics come from the traced pass (--trace 1), which every
// workload runs on its own scenario. README.md maps each one to the
// end-to-end metric and workload it should move.
var perLayerMetrics = []metricDef{
	{"scenario.warmup_s", "s", "lower"},
	{"scenario.build_s", "s", "lower"},
	{"scenario.epoch_s", "s", "lower"},
	{"scenario.marshal_s", "s", "lower"},
	{"scenario.result_bytes", "bytes", "lower"},
	{"radio.obs_cache_hit_frac", "fraction", "higher"},
	{"terrain.by_name_s", "s", "lower"},
	{"ue.place_random_open_s", "s", "lower"},
	{"sim.new_s", "s", "lower"},
	{"epoch.place_s", "s", "lower"},
	{"epoch.score_s", "s", "lower"},
	{"epoch.serve_s", "s", "lower"},
	{"epoch.serve_ns_per_ue_tti", "ns", "lower"},
	{"sim.localization_flight_s", "s", "lower"},
	{"sim.localization_tuples", "count", "higher"},
	{"locate.solve_joint_s", "s", "lower"},
	{"locate.refine_solve_s", "s", "lower"},
	{"locate.us_per_tuple", "us", "lower"},
	{"traj.plan_s", "s", "lower"},
	{"sim.fly_measure_s", "s", "lower"},
	{"sim.measure_samples", "count", "higher"},
	{"rem.interpolate_s", "s", "lower"},
	{"rem.interpolate_ms_per_map", "ms", "lower"},
	{"rem.unmeasured_cells", "count", "lower"},
	{"rem.place_masked_s", "s", "lower"},
	{"probe.locate_rem_frac", "fraction", "lower"},
	{"core.probe_cover_frac", "fraction", "higher"},
	{"traffic.new_source_us", "us", "lower"},
	{"traffic.ns_per_event", "ns", "lower"},
	{"traffic.offered_packets", "count", "higher"},
	{"traffic.backlog_bytes", "bytes", "lower"},
	{"epc.gtpu_encap_ns_64", "ns", "lower"},
	{"epc.gtpu_encap_ns_1200", "ns", "lower"},
	{"epc.gtpu_decap_ns_1200", "ns", "lower"},
	{"epc.gtpu_allocs_per_packet", "count", "lower"},
	{"interference.sinr_ns", "ns", "lower"},
	{"checkpoint.write_s", "s", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"server.ready_s", "s", "lower"},
	{"server.submit_s_p50", "s", "lower"},
	{"server.queue_wait_s_mean", "s", "lower"},
	{"server.run_s_p50", "s", "lower"},
	{"server.fetch_s_p50", "s", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object the benchmark prints as the last line
// of its standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is everything one run measured and checked. It is written
// to the run's result file; the result line is derived from it.
type runRecord struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	// Metrics holds the BENCHMARK.json metrics of this pass: every
	// end-to-end metric for an untraced run, every per-layer metric for
	// a traced one.
	Metrics map[string]float64 `json:"metrics"`
	// Extra holds the run's other measurements: the simulated quality
	// outcomes (rel_throughput, loc_err_m_p50, min_sinr_db), failure
	// and SLO fractions, and the daemon's queue/run split.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Samples is the count behind each percentile, and Resolved the
	// highest percentile those samples resolve (see resolvedPercentile).
	Samples  map[string]int `json:"samples"`
	Resolved map[string]int `json:"resolved_percentile"`

	// SeedSHA256 is each scenario seed's result digest; ResultSHA256
	// digests them in seed order, so two commits producing the same
	// bytes print the same value.
	SeedSHA256   map[string]string `json:"seed_sha256"`
	ResultSHA256 string            `json:"result_sha256"`
	SpanFile     string            `json:"span_file,omitempty"`
}

func newRecord(w workload, seed int64, seconds float64, trace bool) *runRecord {
	return &runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Provenance: collectProvenance(),
		Metrics:    map[string]float64{},
		Extra:      map[string]float64{},
		Samples:    map[string]int{},
		Resolved:   map[string]int{},
		SeedSHA256: map[string]string{},
	}
}

// problem records a failed check that is not tied to one job.
func (r *runRecord) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// jobFailed counts one job that errored or failed an output check.
func (r *runRecord) jobFailed(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// percentiles stores the p50 and p80 of xs under name_p50/name_p80,
// with the sample count and resolved percentile behind them.
func (r *runRecord) percentiles(dst map[string]float64, name string, xs []float64) {
	dst[name+"_p50"] = nearestRank(xs, 50)
	dst[name+"_p80"] = nearestRank(xs, 80)
	r.Samples[name] = len(xs)
	r.Resolved[name] = resolvedPercentile(len(xs))
}

// latencies stores the latency p50 as an end-to-end metric and the p80
// beside it in Extra. A run holds one or two dozen latencies, too few to
// resolve a p80 (see resolvedPercentile), so the p80 is reported with
// its sample count but is not a gate.
func (r *runRecord) latencies(xs []float64) {
	r.percentiles(r.Extra, "latency_s", xs)
	r.Metrics["latency_s_p50"] = r.Extra["latency_s_p50"]
	delete(r.Extra, "latency_s_p50")
}

// finish checks that the pass produced every metric it owes, then sets
// Correct. A missing or non-finite metric is a benchmark bug and fails
// the run rather than printing a partial line.
func (r *runRecord) finish() {
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.name]
		if !ok || !finite(v) {
			r.problem("metric %s missing or not finite (%v)", d.name, v)
		}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0
}

// defs returns the metric definitions this pass reports.
func (r *runRecord) defs() []metricDef {
	if r.Trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// line renders the record as the result line.
func (r *runRecord) line() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs() {
		if v, ok := r.Metrics[d.name]; ok && finite(v) {
			out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finiteOnly drops the non-finite values JSON cannot encode (a quality
// outcome a scenario does not compute is NaN, not 0).
func finiteOnly(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if finite(v) {
			out[k] = v
		}
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
