package radio

import (
	"repro/internal/engine"
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
	fill(g, func(c geom.Vec2) float64 {
		return m.SNR(c.WithZ(alt), ue)
	})
	return g
}

// FSPLREM computes the REM the free-space model predicts for a UE —
// the measurement-free baseline of Fig 4 and the REM initialisation of
// §3.5.
func FSPLREM(m *Model, area geom.Rect, evalCell float64, ue geom.Vec2, alt float64) *geom.Grid {
	g := geom.GridOver(area, evalCell)
	fill(g, func(c geom.Vec2) float64 {
		return m.FSPLSNR(c.WithZ(alt), ue)
	})
	return g
}

// fill evaluates fn at every cell centre of g, writing results in
// place. One engine task per row writes only its own row, on one
// worker per CPU; fn must be a pure function of position. A panic in
// fn reaches the caller as an *engine.Panic.
func fill(g *geom.Grid, fn func(geom.Vec2) float64) {
	vals := g.Values()
	// The body never fails, so neither does the map.
	_, _ = engine.ParallelMap(engine.WorkerCount(0), g.NY, func(cy int) (struct{}, error) {
		base := cy * g.NX
		for cx := 0; cx < g.NX; cx++ {
			vals[base+cx] = fn(g.CellCenter(cx, cy))
		}
		return struct{}{}, nil
	})
}
