package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a module, recorded by the traced pass
// from the benchmark's own code (the program itself carries no spans).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Epoch    int    `json:"epoch,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Parent is the index of the enclosing span in the file's span
	// list, -1 for a root span.
	Parent int `json:"parent"`
}

// tracer keeps spans in memory; they are written once, at the end.
// Spans nest strictly (the traced pass is single-threaded), so a span's
// children never overlap and its self time is its duration minus theirs.
type tracer struct {
	origin   time.Time
	workload string
	seed     int64
	epoch    int
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Workload: t.workload, Seed: t.seed, Epoch: t.epoch,
		StartNS: time.Since(t.origin).Nanoseconds(), Parent: parent,
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span, and
// returns its duration in seconds.
func (t *tracer) end(i int) float64 {
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("bench: span %q closed out of order", t.spans[i].Name))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = time.Since(t.origin).Nanoseconds()
	return float64(t.spans[i].EndNS-t.spans[i].StartNS) / 1e9
}

// do runs f inside a span and returns the span's duration in seconds.
func (t *tracer) do(name string, f func()) float64 {
	i := t.begin(name)
	f()
	return t.end(i)
}

// spanSummary aggregates every span of one name.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarize totals each span name's duration and self time.
func (t *tracer) summarize() []spanSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		d := s.EndNS - s.StartNS
		sum.Count++
		sum.TotalS += float64(d) / 1e9
		sum.SelfS += float64(d-child[i]) / 1e9
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// write saves the spans and their per-name summary as JSON.
func (t *tracer) write(path string, prov provenance) error {
	doc := struct {
		Provenance provenance    `json:"provenance"`
		Workload   string        `json:"workload"`
		Summary    []spanSummary `json:"summary"`
		Spans      []span        `json:"spans"`
	}{prov, t.workload, t.summarize(), t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerSamples collects every instance of each per-layer metric (one
// per seed, epoch or probe); the reported value is their median, the
// nearest-rank p50 for a metric named *_p50, or the mean for *_mean.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) value(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_p50"):
		return nearestRank(l[name], 50)
	case strings.HasSuffix(name, "_mean"):
		return mean(l[name])
	}
	return median(l[name])
}
