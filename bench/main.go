// Command bench is the SkyRAN reproduction's benchmark: four workloads
// timed end to end with tracing off, a separate traced pass that splits
// each workload's time over the modules it calls, output checks and
// determinism digests on every job, and a compare mode that judges two
// result files against BENCHMARK.json's bounds.
//
// Run it from the repository root through bench/run.sh, which builds
// it and skyrand from source first:
//
//	bash bench/run.sh --workload ctrl-5ue --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                 # every workload, timed then traced
//	bash bench/run.sh compare A.json B.json
//
// A single-workload run prints a readable report and, as its last
// line, one JSON object with correct, attempted, failed and metrics.
// It exits 1 when any job failed or any check did not hold. Everything
// it writes goes under .bench_build/ at the repository root, where
// bench/run.sh builds skyrand.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload; without it every workload runs, timed then traced, each in its own process")
		seed    = flag.Int64("seed", 1, "workload seed: the first of the consecutive scenario seeds a pass runs")
		seconds = flag.Float64("seconds", 20, "how long a timed pass measures")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of the timed pass")
		repeat  = flag.Int("repeat", 1, "without --workload: runs per workload, with seeds seed, seed+1, ...")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:], os.Stdout))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	workdir := filepath.Join(repoRoot(), ".bench_build")
	bin := filepath.Join(workdir, "skyrand")
	if err := ensureSkyrand(bin); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *repeat, workdir))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rec, err := runOne(ctx, w, *seed, *seconds, *traced == 1, workdir, bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	report(os.Stdout, rec)
	line, err := json.Marshal(rec.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// runOne runs one pass of one workload and writes its record file.
func runOne(ctx context.Context, w workload, seed int64, seconds float64, traced bool, workdir, bin string) (*runRecord, error) {
	scratch := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var rec *runRecord
	switch {
	case traced:
		rec = runTraced(ctx, w, seed, false, bin, tmp, spanPathFor(workdir, w, seed))
	case w.daemon:
		rec = runDaemonWorkload(ctx, w, seed, seconds, false, bin, tmp)
	default:
		rec = runInProcess(ctx, w, seed, seconds, false)
	}
	pass := "timed"
	if traced {
		pass = "traced"
	}
	path := filepath.Join(workdir, "results", fmt.Sprintf("%s-seed%d-%s.json", w.name, seed, pass))
	return rec, writeJSON(path, rec.forFile())
}

// forFile returns the record with the non-finite values JSON cannot
// encode left out.
func (r *runRecord) forFile() *runRecord {
	c := *r
	c.Metrics, c.Extra = finiteOnly(r.Metrics), finiteOnly(r.Extra)
	return &c
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload's timed pass, then every traced pass, each
// as a child process of this binary so that peak RSS belongs to one
// workload, for repeat consecutive seeds. It checks that timed and
// traced passes of a seed produced the same bytes, writes every record
// to one result file that compare reads, and prints the end-to-end
// table.
func runAll(ctx context.Context, seed int64, seconds float64, repeat int, workdir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	file := resultFile{Provenance: collectProvenance()}
	status := 0
	for r := 0; r < max(repeat, 1); r++ {
		s := seed + int64(r)
		for _, traced := range []string{"0", "1"} {
			for _, w := range workloads {
				cmd := exec.CommandContext(ctx, self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", traced)
				cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
				fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %s\n", w.name, s, traced)
				if err := cmd.Run(); err != nil {
					var exit *exec.ExitError
					if !errors.As(err, &exit) {
						fmt.Fprintln(os.Stderr, "bench:", err)
						return 2
					}
					status = 1
				}
				pass := map[string]string{"0": "timed", "1": "traced"}[traced]
				rf, err := loadResults(filepath.Join(workdir, "results", fmt.Sprintf("%s-seed%d-%s.json", w.name, s, pass)))
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				file.Runs = append(file.Runs, rf.Runs...)
			}
		}
	}
	if !digestsAgree(file.Runs) {
		status = 1
	}
	out := filepath.Join(workdir, "results", fmt.Sprintf("bench-seed%d-x%d.json", seed, max(repeat, 1)))
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	summaryTable(os.Stdout, file)
	fmt.Printf("results: %s\n", out)
	return status
}

// digestsAgree checks that every pass that ran a workload's scenario
// seed produced the same result bytes for it.
func digestsAgree(runs []runRecord) bool {
	_, conflicts := seedDigests(runs)
	for _, c := range conflicts {
		fmt.Fprintf(os.Stderr, "bench: %s: passes produced different result bytes\n", c)
	}
	return len(conflicts) == 0
}

// seedDigests maps each workload's scenario seeds to their result
// digests over runs, and names every seed whose passes disagree.
func seedDigests(runs []runRecord) (map[string]map[string]string, []string) {
	out := map[string]map[string]string{}
	var conflicts []string
	for _, r := range runs {
		m := out[r.Workload]
		if m == nil {
			m = map[string]string{}
			out[r.Workload] = m
		}
		for _, sd := range sortedKeys(r.SeedSHA256) {
			d := r.SeedSHA256[sd]
			if prev, ok := m[sd]; ok && prev != d {
				conflicts = append(conflicts, fmt.Sprintf("%s scenario seed %s", r.Workload, sd))
			}
			m[sd] = d
		}
	}
	return out, conflicts
}

// ensureSkyrand builds skyrand at bin from the repository's source when
// it is not there yet (bench/run.sh builds it beforehand).
func ensureSkyrand(bin string) error {
	if _, err := os.Stat(bin); err == nil {
		return nil
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs, "./cmd/skyrand")
	cmd.Dir = repoRoot()
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building skyrand: %w", err)
	}
	return nil
}

// report prints a run's record for people: every metric with its unit
// and sample count, the extras, the digest and any problems.
func report(out io.Writer, r *runRecord) {
	p := r.Provenance
	pass := "timed"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(out, "bench: %s seed %d, %s pass: correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, pass, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(out, "  host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s commit=%s dirty=%s\n",
		p.NProc, p.GOMAXPROCS, p.CPUModel, p.GoVersion, p.Platform, p.GitCommit, dirtyString(p.GitDirty))
	for _, d := range r.defs() {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
	for _, k := range sortedKeys(r.Extra) {
		if finite(r.Extra[k]) {
			fmt.Fprintf(out, "  %-30s %14.6g\n", k, r.Extra[k])
		}
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(out, "  samples %-22s %6d (resolves p%d)\n", k, r.Samples[k], resolvedPercentile(r.Samples[k]))
	}
	fmt.Fprintf(out, "  result_sha256 %s\n", r.ResultSHA256)
	if r.SpanFile != "" {
		fmt.Fprintf(out, "  spans %s\n", r.SpanFile)
	}
	for _, pr := range r.Problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", pr)
	}
}

func dirtyString(d *bool) string {
	if d == nil {
		return "unknown"
	}
	return strconv.FormatBool(*d)
}

// summaryTable prints each workload's end-to-end medians over the
// file's timed runs, and its digest.
func summaryTable(out io.Writer, f resultFile) {
	for _, w := range workloads {
		vals := map[string][]float64{}
		digest, runs := "", 0
		for _, r := range f.Runs {
			if r.Workload != w.name || r.Trace {
				continue
			}
			runs++
			digest = r.ResultSHA256
			for k, v := range r.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
		if runs == 0 {
			continue
		}
		fmt.Fprintf(out, "%s (%d timed run(s), result_sha256 %s)\n", w.name, runs, digest)
		for _, d := range endToEndMetrics {
			fmt.Fprintf(out, "  %-16s %12.6g %s\n", d.name, median(vals[d.name]), d.unit)
		}
	}
}
