// Package traj plans SkyRAN measurement flight trajectories (§3.3.2):
// K-means clustering of high-gradient cells, a travelling-salesman
// tour through the cluster heads, and information-gain/cost selection
// across candidate K values. It also provides the Uniform zigzag
// baseline trajectory and random localization flights.
package traj

import (
	"math"
	"math/rand"

	"repro/internal/geom"
)

// KMeans clusters points into k groups using Lloyd's algorithm with
// k-means++ style seeding drawn from rng. It returns the cluster
// centroids ("cluster heads" in the paper). k is clamped to
// [1, len(points)]. The result is deterministic for a given rng state.
func KMeans(points []geom.Vec2, k int, rng *rand.Rand) []geom.Vec2 {
	var km kmeans
	return km.run(points, k, rng)
}

// kmeans holds KMeans's per-point working slices, so that a caller
// clustering the same points for several k (Planner.Plan) allocates
// them once.
type kmeans struct {
	assign []int
	// upper bounds each point's distance to its assigned centre and
	// lower its distance to every other centre (Hamerly's bounds).
	upper, lower []float64
}

func (km *kmeans) run(points []geom.Vec2, k int, rng *rand.Rand) []geom.Vec2 {
	n := len(points)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if cap(km.assign) < n {
		km.assign, km.upper, km.lower = make([]int, n), make([]float64, n), make([]float64, n)
	}
	assign, upper, lower := km.assign[:n], km.upper[:n], km.lower[:n]

	// k-means++ seeding: first centre uniform, then proportional to
	// squared distance from the nearest chosen centre. Each point keeps
	// its nearest squared distance (in upper, which Lloyd's first round
	// overwrites) and lowers it against the newest centre only; a
	// minimum does not depend on the order it is taken in.
	centers := make([]geom.Vec2, 0, k)
	centers = append(centers, points[rng.Intn(n)])
	d2 := upper
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(centers) < k {
		c := centers[len(centers)-1]
		var total float64
		for i, p := range points {
			if d := p.Sub(c).Dot(p.Sub(c)); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with centres; duplicate.
			centers = append(centers, points[rng.Intn(n)])
			continue
		}
		r := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, points[idx])
	}

	// Lloyd's iterations. Each round first moves a point's bounds by
	// how far the centres moved in the last update: its own centre by
	// that centre's drift, every other centre by at most the largest
	// drift among the others. A point whose bounds are then apart by
	// more than margin keeps its centre unscanned: that centre is
	// strictly the nearest, by more than any rounding of the squared
	// distances, so the scan would pick it too. Every other point is
	// scanned over all centres in order, keeping the first strict
	// minimum, which also resets its bounds. The centroid sums follow
	// in point order, as a separate pass after the scans would add
	// them.
	clear(assign)
	margin := boundMargin(points)
	sums := make([]geom.Vec2, k)
	counts := make([]int, k)
	drift := make([]float64, k)
	var top, next float64 // the largest and second-largest drift
	topC := -1            // the centre that drifted top
	for iter := 0; iter < 50; iter++ {
		changed := false
		clear(sums)
		clear(counts)
		for i, p := range points {
			a := assign[i]
			scan := iter == 0
			if !scan {
				upper[i] += drift[a]
				if a == topC {
					lower[i] -= next
				} else {
					lower[i] -= top
				}
				if !(upper[i]+margin < lower[i]) {
					c := centers[a]
					upper[i] = math.Sqrt(p.Sub(c).Dot(p.Sub(c)))
					scan = !(upper[i]+margin < lower[i])
				}
			}
			if scan {
				best, second, bi := math.Inf(1), math.Inf(1), 0
				for ci, c := range centers {
					if d := p.Sub(c).Dot(p.Sub(c)); d < best {
						best, second, bi = d, best, ci
					} else if d < second {
						second = d
					}
				}
				upper[i], lower[i] = math.Sqrt(best), math.Sqrt(second)
				if a != bi {
					assign[i], a = bi, bi
					changed = true
				}
			}
			sums[a] = sums[a].Add(p)
			counts[a]++
		}
		if !changed && iter > 0 {
			break
		}
		top, next, topC = 0, 0, -1
		for ci := range centers {
			old := centers[ci]
			if counts[ci] > 0 {
				centers[ci] = sums[ci].Scale(1 / float64(counts[ci]))
			}
			drift[ci] = math.Sqrt(old.Sub(centers[ci]).Dot(old.Sub(centers[ci])))
			if drift[ci] > top {
				top, next, topC = drift[ci], top, ci
			} else if drift[ci] > next {
				next = drift[ci]
			}
		}
	}
	return centers
}

// boundMargin is the gap KMeans's bounds must clear before a point
// skips its scan. Points and centres lie within M of the origin (M the
// largest coordinate magnitude), so every distance and drift is below
// 3M, and over 50 rounds no bound exceeds ~150M in magnitude. Each of
// the few hundred roundings a bound takes between scans moves it by at
// most ~2⁻⁵³ of that, and the scan's squared distances are within a
// few ulps: all of it stays under 1e-11·M, a hundredth of the margin.
// The 1e-140 floor keeps a skipped point's other squared distances
// clear of the subnormal range. Coordinates whose squares could
// overflow (or that are not finite) get an infinite margin, so every
// point is scanned.
func boundMargin(points []geom.Vec2) float64 {
	var m float64
	for _, p := range points {
		m = math.Max(m, math.Max(math.Abs(p.X), math.Abs(p.Y)))
	}
	if !(m < 1e150) {
		return math.Inf(1)
	}
	return 1e-9*m + 1e-140
}

// AssignClusters returns, for each point, the index of its nearest
// centre.
func AssignClusters(points, centers []geom.Vec2) []int {
	out := make([]int, len(points))
	for i, p := range points {
		best := math.Inf(1)
		for ci, c := range centers {
			if d := p.Sub(c).Dot(p.Sub(c)); d < best {
				best, out[i] = d, ci
			}
		}
	}
	return out
}

// WithinClusterSS returns the total within-cluster sum of squared
// distances — the quantity Lloyd iterations never increase.
func WithinClusterSS(points, centers []geom.Vec2) float64 {
	var ss float64
	for _, p := range points {
		best := math.Inf(1)
		for _, c := range centers {
			if d := p.Sub(c).Dot(p.Sub(c)); d < best {
				best = d
			}
		}
		ss += best
	}
	return ss
}
