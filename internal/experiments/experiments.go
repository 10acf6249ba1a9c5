// Package experiments regenerates every figure of the paper's
// evaluation (plus the measurement-driven motivation figures of §2)
// against the simulated substrate. Each RunFigXX function returns a
// Report whose rows mirror the paper's plot axes; cmd/experiments and
// the root bench suite drive them.
//
// Absolute numbers come from the synthetic terrains and the
// propagation model, so the comparison with the paper is about shape:
// who wins, by what factor, and where curves bend. EXPERIMENTS.md
// records paper-vs-measured for each figure.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/traj"
	"repro/internal/ue"
)

// Options tunes experiment scale.
type Options struct {
	// Seeds is the number of Monte-Carlo instances per configuration
	// (the paper uses up to 50; benches default to 5).
	Seeds int
	// Quick shrinks sweeps and grid resolutions for CI runs.
	Quick bool
	// Workers bounds how many Monte-Carlo tasks (seed instances and
	// independent sweep points) run concurrently. 0 uses every CPU;
	// 1 forces the sequential order. Results are merged in task order,
	// so output is identical for every worker count.
	Workers int
	// Faults applies a fault-injection schedule to the worlds built by
	// the figures that exercise the full probing pipeline (Fig 1 and
	// Fig 20); nil or an all-zero schedule reproduces the fault-free
	// figures byte for byte. Used by the chaos smoke tier to measure
	// figure-shape robustness under injected faults.
	Faults *fault.Schedule
}

func (o *Options) defaults() {
	if o.Seeds == 0 {
		o.Seeds = 5
	}
}

// Report is a figure reproduction: a table whose rows mirror the
// paper's plot series.
type Report struct {
	Figure string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a commentary line (paper expectation vs measured).
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the report as aligned text.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Figure, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// Spec registers one reproducible figure.
type Spec struct {
	ID    string // "fig20"
	Paper string // what the paper's figure shows
	Run   func(Options) (*Report, error)
}

// All lists every figure reproduction in paper order.
var All = []Spec{
	{"fig01", "Fig 1: position-value map + throughput CDF (NYC, 20 UEs)", RunFig01},
	{"fig04", "Fig 4: REM accuracy, data-driven vs pathloss model, 4 terrains", RunFig04},
	{"fig06", "Fig 6: REM error vs fraction of terrain probed", RunFig06},
	{"fig07", "Fig 7: pathloss variation along a 50 m flight segment", RunFig07},
	{"fig08", "Fig 8: pathloss vs UAV altitude", RunFig08},
	{"fig09", "Fig 9: relative throughput vs localization error", RunFig09},
	{"fig12", "Fig 12: throughput decay vs time under UE mobility", RunFig12},
	{"fig17", "Fig 17: ToF ranging error CDF", RunFig17},
	{"fig18", "Fig 18: localization error CDF", RunFig18},
	{"fig19", "Fig 19: localization error vs flight length", RunFig19},
	{"fig20", "Fig 20: REM accuracy vs measurement flight time", RunFig20},
	{"fig21", "Fig 21: Centroid relative throughput vs number of UEs", RunFig21},
	{"fig23", "Fig 23: relative throughput vs measurement budget (topologies A/B)", RunFig23},
	{"fig24", "Fig 24: REM accuracy at 1000 m budget (topologies A/B)", RunFig24},
	{"fig26", "Fig 26: flight time to 0.9x optimal, static vs dynamic UEs", RunFig26},
	{"fig27", "Fig 27: flight time to 0.9x optimal across terrains", RunFig27},
	{"fig28", "Fig 28: flight time to 5 dB REM accuracy, static vs dynamic", RunFig28},
	{"fig29", "Fig 29: relative throughput at 5000 m budget across terrains", RunFig29},
	{"fig30", "Fig 30: REM accuracy at 5000 m budget across terrains", RunFig30},
	{"fig31", "Fig 31: relative throughput vs number of UEs", RunFig31},
}

// ByID returns the spec with the given id.
func ByID(id string) (Spec, bool) {
	for _, s := range All {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// ---------------------------------------------------------------------
// Shared scenario builders.

// evalCellFor picks a ground-truth resolution that keeps the figure
// tractable on the given terrain.
func evalCellFor(t *terrain.Surface, quick bool) float64 {
	w := t.Bounds().Width()
	switch {
	case quick && w > 500:
		return 25
	case w > 500:
		return 16
	case quick:
		return 10
	default:
		return 5
	}
}

// uniformUEs scatters n UEs on open ground (topology A).
func uniformUEs(t *terrain.Surface, n int, seed int64) []*ue.UE {
	rng := rand.New(rand.NewSource(seed))
	area := t.Bounds().Inset(t.Bounds().Width() * 0.08)
	return ue.PlaceRandomOpen(n, area, t.IsOpen, 15, rng)
}

// clusteredUEs places n UEs in a tight pocket (topology B). The
// cluster centre is drawn on open ground *near obstructions* — the
// paper's clustered topology sits among buildings (Fig 22b), which is
// what makes coarse REMs around the cluster costly for Uniform.
func clusteredUEs(t *terrain.Surface, n int, seed int64) []*ue.UE {
	rng := rand.New(rand.NewSource(seed))
	area := t.Bounds().Inset(t.Bounds().Width() * 0.15)
	center := ue.PlaceRandomOpen(1, area, t.IsOpen, 0, rng)[0].Pos
	for try := 0; try < 200; try++ {
		cand := ue.PlaceRandomOpen(1, area, t.IsOpen, 0, rng)[0].Pos
		if nearObstruction(t, cand, 25) {
			center = cand
			break
		}
	}
	return ue.PlaceClustered(n, center, t.Bounds().Width()*0.06, t.Bounds(), t.IsOpen, rng)
}

// nearObstruction reports whether any non-open cell lies within
// radius of p.
func nearObstruction(t *terrain.Surface, p geom.Vec2, radius float64) bool {
	for dx := -radius; dx <= radius; dx += 5 {
		for dy := -radius; dy <= radius; dy += 5 {
			q := p.Add(geom.V2(dx, dy))
			if t.Bounds().Contains(q) && !t.IsOpen(q) && t.ObstacleAt(q) > 5 {
				return true
			}
		}
	}
	return false
}

// newWorld builds a fault-free world on the named terrain.
func newWorld(terrName string, seed uint64, ues []*ue.UE, fastRanging bool) (*sim.World, error) {
	return newFaultyWorld(terrName, seed, ues, fastRanging, nil)
}

// newFaultyWorld builds a world with an optional fault schedule. The
// schedule is normalized on a copy, and an inactive (all-zero) one is
// dropped entirely so it cannot perturb the fault-free RNG streams.
func newFaultyWorld(terrName string, seed uint64, ues []*ue.UE, fastRanging bool, sched *fault.Schedule) (*sim.World, error) {
	t := terrain.ByName(terrName, seed)
	if t == nil {
		return nil, fmt.Errorf("experiments: unknown terrain %q", terrName)
	}
	if sched != nil {
		cp := *sched
		if err := cp.Normalize(); err != nil {
			return nil, fmt.Errorf("experiments: fault schedule: %w", err)
		}
		if cp.Active() {
			sched = &cp
		} else {
			sched = nil
		}
	}
	return sim.New(sim.Config{Terrain: t, Seed: seed, FastRanging: fastRanging, Faults: sched}, ues)
}

// truePositions snapshots the current true UE positions.
func truePositions(w *sim.World) []geom.Vec2 {
	out := make([]geom.Vec2, len(w.UEs))
	for i, u := range w.UEs {
		out[i] = u.Pos
	}
	return out
}

// relMeanThroughput returns avg-throughput at pos relative to the
// ground-truth optimum in the same altitude plane.
func relMeanThroughput(w *sim.World, pos geom.Vec3, evalCell float64) float64 {
	_, best := core.BestPosition(w, pos.Z, evalCell, rem.MaxMean)
	return metrics.Relative(w.AvgThroughputAt(pos), best)
}

// medianREMError scores estimated per-UE REMs against ground truth at
// the given altitude and returns the median across UEs of the per-UE
// median absolute error.
func medianREMError(w *sim.World, maps []*rem.Map, alt, evalCell float64) float64 {
	truths := w.GroundTruthREMs(alt, evalCell)
	var meds []float64
	for i, m := range maps {
		meds = append(meds, rem.MedianAbsError(m, truths[i]))
	}
	sort.Float64s(meds)
	return meds[len(meds)/2]
}

// Shorthand aliases keep figure code close to the paper's vocabulary.
type (
	simUE    = ue.UE
	simWorld = sim.World
)

func newUE(id int, pos geom.Vec2) *ue.UE { return ue.New(id, pos) }

func zigzagPath(area geom.Rect, spacing float64) geom.Polyline {
	return traj.Zigzag(area, spacing)
}

// clonedUEs deep-copies a UE set so parallel scenario variants do not
// share mobility state.
func clonedUEs(ues []*ue.UE) []*ue.UE {
	out := make([]*ue.UE, len(ues))
	for i, u := range ues {
		out[i] = ue.New(u.ID, u.Pos)
	}
	return out
}

func f(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
