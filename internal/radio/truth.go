package radio

import (
	"runtime"
	"sync"

	"repro/internal/geom"
)

// This file generates ground-truth radio environment maps: the
// exhaustive measurement the paper collects by flying a dense zigzag
// over the whole area (§4.2 "Ground Truth Channel State"). In the
// simulated substrate the exhaustive flight is replaced by evaluating
// the propagation model at every grid cell, parallelised across CPUs.

// GroundTruthREM computes the true SNR from every evalCell-sized grid
// cell of the operating area (at absolute altitude alt) to a UE at
// ground position ue. The returned grid is the per-UE ground-truth REM
// against which estimated REMs are scored.
func GroundTruthREM(m *Model, area geom.Rect, evalCell float64, ue geom.Vec2, alt float64) *geom.Grid {
	g := geom.GridOver(area, evalCell)
	fillParallel(g, func(c geom.Vec2) float64 {
		return m.SNR(c.WithZ(alt), ue)
	})
	return g
}

// FSPLREM computes the REM the free-space model predicts for a UE —
// the measurement-free baseline of Fig 4 and the REM initialisation of
// §3.5.
func FSPLREM(m *Model, area geom.Rect, evalCell float64, ue geom.Vec2, alt float64) *geom.Grid {
	g := geom.GridOver(area, evalCell)
	fillParallel(g, func(c geom.Vec2) float64 {
		return m.FSPLSNR(c.WithZ(alt), ue)
	})
	return g
}

// AggregateREMs returns the cell-wise sum of the given grids (all must
// share geometry). It implements Step 6.1 of §3.3.2.
func AggregateREMs(rems []*geom.Grid) *geom.Grid {
	if len(rems) == 0 {
		return nil
	}
	out := rems[0].Clone()
	ov := out.Values()
	for _, r := range rems[1:] {
		for i, v := range r.Values() {
			ov[i] += v
		}
	}
	return out
}

// MinREM returns the cell-wise minimum across the given grids — the
// min-SNR map whose argmax is the max-min UAV position (§3.4).
func MinREM(rems []*geom.Grid) *geom.Grid {
	if len(rems) == 0 {
		return nil
	}
	out := rems[0].Clone()
	ov := out.Values()
	for _, r := range rems[1:] {
		for i, v := range r.Values() {
			if v < ov[i] {
				ov[i] = v
			}
		}
	}
	return out
}

// MeanREM returns the cell-wise mean across the given grids — the
// average-throughput view of Fig 1 and Fig 3.
func MeanREM(rems []*geom.Grid) *geom.Grid {
	if len(rems) == 0 {
		return nil
	}
	out := AggregateREMs(rems)
	inv := 1 / float64(len(rems))
	v := out.Values()
	for i := range v {
		v[i] *= inv
	}
	return out
}

// fillParallel evaluates fn at every cell centre of g using all CPUs,
// writing results in place. fn must be a pure function of position.
func fillParallel(g *geom.Grid, fn func(geom.Vec2) float64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > g.NY {
		workers = g.NY
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	vals := g.Values()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cy := range rows {
				base := cy * g.NX
				for cx := 0; cx < g.NX; cx++ {
					vals[base+cx] = fn(g.CellCenter(cx, cy))
				}
			}
		}()
	}
	for cy := 0; cy < g.NY; cy++ {
		rows <- cy
	}
	close(rows)
	wg.Wait()
}
