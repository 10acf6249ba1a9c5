package traj

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rem"
)

// History is the set of previously flown measurement trajectories
// associated with one UE (§3.3.2 "Trajectory Information"). A new UE
// has an empty history and receives the maximal information gain.
type History []geom.Polyline

// Planner holds the trajectory-selection parameters.
type Planner struct {
	// KMin/KMax bound the candidate cluster counts (paper: trajectories
	// are built for each K in {Kmin..Kmax} and the best
	// information-to-cost ratio wins).
	KMin, KMax int
	// IMaxM is the information gain assigned to a UE with no history,
	// in metres (a "large fixed value" per the paper).
	IMaxM float64
	// SampleStepM is the arc-length step used to sample candidate
	// trajectories when computing information gain.
	SampleStepM float64
	// MaxCells caps the number of high-gradient cells fed to K-means
	// (default 20000). Large terrains can yield hundreds of thousands
	// of cells; Lloyd's algorithm over all of them costs minutes while
	// a deterministic stride subsample moves the cluster heads by at
	// most a cell or two.
	MaxCells int
}

// DefaultPlanner returns the parameters used throughout the
// evaluation.
func DefaultPlanner() Planner {
	return Planner{KMin: 4, KMax: 12, IMaxM: 200, SampleStepM: 5, MaxCells: 20000}
}

// Plan computes the measurement trajectory for the current epoch:
// cluster the high-gradient cells of the aggregate-REM gradient map
// for each candidate K, tour the cluster heads from the UAV's current
// position, and select the tour with the highest information-to-cost
// ratio against the UEs' trajectory histories.
//
// It returns an error when the gradient map yields no informative
// cells (a perfectly flat aggregate REM) — callers fall back to a
// Uniform sweep.
func (pl Planner) Plan(gradMap *geom.Grid, histories []History, start geom.Vec2, rng *rand.Rand) (geom.Polyline, error) {
	cells := rem.HighGradientCells(gradMap)
	if len(cells) == 0 {
		return nil, fmt.Errorf("traj: no high-gradient cells to plan over")
	}
	if max := pl.MaxCells; max > 0 && len(cells) > max {
		stride := (len(cells) + max - 1) / max
		sub := cells[:0]
		for i := 0; i < len(cells); i += stride {
			sub = append(sub, cells[i])
		}
		cells = sub
	}
	kmin, kmax := pl.KMin, pl.KMax
	if kmin < 1 {
		kmin = 1
	}
	if kmax < kmin {
		kmax = kmin
	}

	var best geom.Polyline
	bestRatio := math.Inf(-1)
	var km kmeans
	for k := kmin; k <= kmax; k++ {
		heads := km.run(cells, k, rng)
		tour := Tour(start, heads)
		length := tour.Length()
		if length < 1e-9 {
			continue
		}
		info := pl.AverageInfoGain(tour, histories)
		if ratio := info / length; ratio > bestRatio {
			bestRatio, best = ratio, tour
		}
	}
	if best == nil {
		return nil, fmt.Errorf("traj: no viable tour (all candidates degenerate)")
	}
	return best, nil
}

// InfoGain quantifies what a candidate trajectory would teach us about
// one UE's channel: the mean, over points sampled along the candidate,
// of the distance to the nearest point of the UE's historical
// trajectories, capped at IMaxM. An empty history yields IMaxM.
func (pl Planner) InfoGain(candidate geom.Polyline, h History) float64 {
	if len(h) == 0 {
		return pl.IMaxM
	}
	step := pl.SampleStepM
	if step <= 0 {
		step = 5
	}
	pts := candidate.Resample(step)
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		nearest := math.Inf(1)
		for _, old := range h {
			if d := old.DistTo(p); d < nearest {
				nearest = d
			}
		}
		sum += math.Min(nearest, pl.IMaxM)
	}
	return sum / float64(len(pts))
}

// AverageInfoGain is the mean InfoGain over all UEs (§3.3.2: "The
// average information gain is the mean information gains over all UEs
// in the current epoch").
//
// UEs that flew the same epochs share one history (the controller
// appends the same flown polyline to each), so InfoGain runs once per
// distinct history and its value is added once per UE, in UE order.
func (pl Planner) AverageInfoGain(candidate geom.Polyline, histories []History) float64 {
	if len(histories) == 0 {
		return pl.IMaxM
	}
	var sum float64
	gains := make([]float64, len(histories))
	for i, h := range histories {
		j := 0
		for j < i && !sameHistory(histories[j], h) {
			j++
		}
		if j == i {
			gains[i] = pl.InfoGain(candidate, h)
		} else {
			gains[i] = gains[j]
		}
		sum += gains[i]
	}
	return sum / float64(len(histories))
}

// sameHistory reports whether a and b hold the same number of
// polylines with the same vertex bits, which gives them the same
// InfoGain against any candidate. Polylines that share a backing array
// are the same without a vertex walk.
func sameHistory(a, b History) bool {
	if len(a) != len(b) {
		return false
	}
	for i, p := range a {
		q := b[i]
		if len(p) != len(q) {
			return false
		}
		if len(p) == 0 || &p[0] == &q[0] {
			continue
		}
		for v := range p {
			if math.Float64bits(p[v].X) != math.Float64bits(q[v].X) || math.Float64bits(p[v].Y) != math.Float64bits(q[v].Y) {
				return false
			}
		}
	}
	return true
}

// Zigzag builds the Uniform baseline trajectory: a boustrophedon sweep
// of the area with the given pass spacing, starting at the south-west
// corner (§4.2: "a zigzag trajectory across the test area, starting
// from one corner").
func Zigzag(area geom.Rect, spacing float64) geom.Polyline {
	if spacing <= 0 {
		spacing = 10
	}
	inset := math.Min(spacing/2, math.Min(area.Width(), area.Height())/4)
	r := area.Inset(inset)
	var p geom.Polyline
	leftToRight := true
	for y := r.MinY; y <= r.MaxY+1e-9; y += spacing {
		yy := math.Min(y, r.MaxY)
		if leftToRight {
			p = append(p, geom.V2(r.MinX, yy), geom.V2(r.MaxX, yy))
		} else {
			p = append(p, geom.V2(r.MaxX, yy), geom.V2(r.MinX, yy))
		}
		leftToRight = !leftToRight
	}
	return p
}

// ExtendToBudget pads a planned trajectory with a uniform sweep when
// the information-driven tour is shorter than the measurement budget:
// flying less than the budget wastes probing time the operator already
// paid for, and the sweep gathers coverage the gradient map could not
// anticipate. The combined path is truncated exactly at the budget.
func ExtendToBudget(path geom.Polyline, area geom.Rect, budget float64) geom.Polyline {
	if budget <= 0 || path.Length() >= budget {
		return path
	}
	sweep := Zigzag(area, area.Width()/10)
	if len(path) == 0 {
		return sweep.Truncate(budget)
	}
	// Enter the sweep at its nearest vertex to the tour's end to avoid
	// a long dead-head leg.
	end := path[len(path)-1]
	best, bi := end.Dist(sweep[0]), 0
	for i, p := range sweep {
		if d := end.Dist(p); d < best {
			best, bi = d, i
		}
	}
	out := append(geom.Polyline{}, path...)
	out = append(out, sweep[bi:]...)
	out = append(out, sweep[:bi]...)
	return out.Truncate(budget)
}

// LocalizationLoop builds the short random localization trajectory of
// §3.2 as a closed, randomly rotated and jittered triangular loop of
// approximately the given perimeter, centred on start and kept inside
// the area.
//
// The loop shape matters: a nearly straight random walk of the same
// length leaves the classic multilateration mirror ambiguity (the UE
// and its reflection across the flight line fit the ranges almost
// equally well) and median localization error degrades by ~5x. A
// closed loop encloses area, which breaks the reflection symmetry for
// every UE direction at equal flight cost.
func LocalizationLoop(area geom.Rect, start geom.Vec2, perimeterM float64, rng *rand.Rand) geom.Polyline {
	if perimeterM <= 0 {
		perimeterM = 20
	}
	// Circumradius of an equilateral triangle with the given perimeter.
	radius := perimeterM / (3 * math.Sqrt(3))
	rot := rng.Float64() * 2 * math.Pi
	var p geom.Polyline
	for k := 0; k <= 3; k++ {
		th := rot + float64(k)*2*math.Pi/3
		r := radius * (0.9 + 0.2*rng.Float64()) // jitter the vertices
		v := start.Add(geom.V2(math.Cos(th), math.Sin(th)).Scale(r))
		if k == 3 {
			v = p[0] // close the loop exactly
		}
		p = append(p, area.Clamp(v))
	}
	return p
}
