package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultFile is what a run of every workload writes, and what compare
// reads: one record per (workload, seed, pass).
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

// loadResults reads a result file; a single run's record file is read
// as a one-run result file.
func loadResults(path string) (resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return resultFile{}, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		var r runRecord
		if err := json.Unmarshal(b, &r); err != nil || r.Workload == "" {
			return f, fmt.Errorf("%s: neither a result file nor a run record", path)
		}
		f = resultFile{Provenance: r.Provenance, Runs: []runRecord{r}}
	}
	return f, nil
}

// verdict compares one (workload, metric) pair. change is B's median
// against A's, signed so that positive is worse; the verdict is
// "unresolved" when either side's spread exceeds the bound, otherwise
// "worse" or "better" when the change exceeds it, else "same".
func verdict(a, b []float64, better string, bound float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	switch {
	case ma == mb:
		change = 0
	case ma == 0:
		change = math.Copysign(math.Inf(1), mb)
	default:
		change = (mb - ma) / math.Abs(ma)
	}
	if better == "higher" {
		change = -change
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		return change, "unresolved"
	case change > bound:
		return change, "worse"
	case change < -bound:
		return change, "better"
	}
	return change, "same"
}

// compareMain implements `compare A.json B.json`: every end-to-end
// metric of every workload is judged against BENCHMARK.json's bound,
// and the exit status is 1 when any pair got worse. Per-layer metrics
// are listed for reading; they have no bound.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare A.json B.json")
		return 2
	}
	var bench benchmarkFile
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sides [2]resultFile
	for i, p := range args {
		if sides[i], err = loadResults(p); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}

	collect := func(f resultFile, trace bool) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if r.Trace != trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], v)
			}
		}
		return out
	}
	fmtSide := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
	}

	worse := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange (+ is worse)\tbound\tverdict")
	a, bb := collect(sides[0], false), collect(sides[1], false)
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			xa, xb := a[w.name][m.Name], bb[w.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			change, v := verdict(xa, xb, m.Better, m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w.name, m.Name, fmtSide(xa), fmtSide(xb), 100*change, 100*m.Bound, v)
		}
	}
	la, lb := collect(sides[0], true), collect(sides[1], true)
	for _, w := range workloads {
		for _, d := range perLayerMetrics {
			xa, xb := la[w.name][d.name], lb[w.name][d.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			change, _ := verdict(xa, xb, d.better, math.Inf(1))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t-\tlayer\n", w.name, d.name, fmtSide(xa), fmtSide(xb), 100*change)
		}
	}
	tw.Flush()
	bytesDiffer := compareDigests(sides[0], sides[1], stdout)
	if worse > 0 {
		fmt.Fprintf(stdout, "compare: %d end-to-end metric(s) worse than their bound\n", worse)
		return 1
	}
	if bytesDiffer {
		fmt.Fprintln(stdout, "compare: result bytes differ (a stream change needs its own re-pin)")
	}
	return 0
}

// compareDigests reports, per workload, whether the two sides produced
// the same result bytes on every scenario seed both ran.
func compareDigests(a, b resultFile, out io.Writer) bool {
	da, _ := seedDigests(a.Runs)
	db, _ := seedDigests(b.Runs)
	differ := false
	for _, w := range workloads {
		shared, diff := 0, []string{}
		for _, sd := range sortedKeys(da[w.name]) {
			if d, ok := db[w.name][sd]; ok {
				shared++
				if d != da[w.name][sd] {
					diff = append(diff, sd)
				}
			}
		}
		switch {
		case shared == 0:
		case len(diff) == 0:
			fmt.Fprintf(out, "%s: same bytes on all %d shared scenario seeds\n", w.name, shared)
		default:
			differ = true
			fmt.Fprintf(out, "%s: DIFFERENT bytes on scenario seeds %s (of %d shared)\n", w.name, strings.Join(diff, ", "), shared)
		}
	}
	return differ
}
