package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {80, 8}, {90, 9}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 80); got != 7 {
		t.Errorf("p80 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("p50 of no samples should be NaN")
	}
}

func TestResolvedPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {11, 9}, {20, 50}, {50, 80}, {60, 83}, {100, 90}, {1000, 99},
	} {
		got := resolvedPercentile(c.n)
		if got != c.want {
			t.Errorf("resolvedPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 {
			// At least ten samples lie beyond the resolved percentile's
			// rank, and the next percentile up would leave fewer.
			if beyond := c.n - rank(float64(got), c.n); beyond < minTail {
				t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, got, beyond)
			}
			if got < 99 {
				if c.n-rank(float64(got+1), c.n) >= minTail {
					t.Errorf("n=%d: p%d is resolved too, so p%d is not the highest", c.n, got+1, got)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1.5, 2.5, 2.0, 4.0, 3.0}, 1.75, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestArrivalsAreSeeded(t *testing.T) {
	a, b := arrivals(7, 1.2, 200), arrivals(7, 1.2, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	c := arrivals(8, 1.2, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// The gaps are the exponential quantiles, whatever their order: their
	// mean is within a few percent of 1/rate, and seed 8's schedule ends
	// when seed 7's does.
	meanGap := a[len(a)-1].Seconds() / float64(len(a))
	if want := 1 / 1.2; math.Abs(meanGap-want) > 0.05*want {
		t.Errorf("mean inter-arrival %v s, want about %v s", meanGap, want)
	}
	if d := a[len(a)-1] - c[len(c)-1]; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("schedules of seeds 7 and 8 end %v apart; the same gaps should sum to the same span", d)
	}
}

// TestSeedDigests checks that passes are compared on the scenario seeds
// they share, not on their combined digests, which cover different
// seed sets.
func TestSeedDigests(t *testing.T) {
	timed := runRecord{Workload: "ctrl-5ue", SeedSHA256: map[string]string{"1": "a", "2": "b", "3": "c"}}
	traced := runRecord{Workload: "ctrl-5ue", Trace: true, SeedSHA256: map[string]string{"1": "a", "2": "b"}}
	if !digestsAgree([]runRecord{timed, traced}) {
		t.Error("passes agreeing on their shared seeds reported as differing")
	}
	traced.SeedSHA256 = map[string]string{"1": "a", "2": "x"}
	if digestsAgree([]runRecord{timed, traced}) {
		t.Error("a seed whose passes disagree went unreported")
	}
	var out strings.Builder
	a := resultFile{Runs: []runRecord{timed}}
	if compareDigests(a, a, &out) {
		t.Errorf("a file compared with itself reads as different: %s", out.String())
	}
	if !compareDigests(a, resultFile{Runs: []runRecord{traced}}, &out) {
		t.Errorf("differing bytes on seed 2 not reported: %s", out.String())
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	slower := []float64{1.20, 1.21, 1.19, 1.20, 1.22, 1.18}
	faster := []float64{0.80, 0.81, 0.79, 0.80, 0.82, 0.78}
	noisy := []float64{0.5, 1.5, 1.0, 0.7, 1.3, 1.0}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", steady, steady, "lower", "same"},
		{"slower time", steady, slower, "lower", "worse"},
		{"faster time", steady, faster, "lower", "better"},
		{"lower throughput", steady, faster, "higher", "worse"},
		{"noisy side", steady, noisy, "lower", "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
