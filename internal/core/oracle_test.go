package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/ue"
)

// oracleBestPosition is BestPosition as it was before the ground-truth
// optimum moved onto rem.ObjectiveMap: MaxMin went through
// rem.OptimalPlacement (inlined here as oracleOptimalMin), every other
// objective through its own mean-throughput loop. The experiments
// package's bestMeanThroughput was a verbatim copy of that loop.
func oracleBestPosition(w *sim.World, alt, evalCell float64, obj rem.Objective) (geom.Vec2, float64) {
	truths := w.GroundTruthREMs(alt, evalCell)
	switch obj {
	case rem.MaxMin:
		return oracleOptimalMin(truths)
	default:
		// Mean throughput per cell.
		score := truths[0].Clone()
		sv := score.Values()
		for i := range sv {
			sv[i] = w.Num.ThroughputBps(sv[i])
		}
		for _, tg := range truths[1:] {
			for i, v := range tg.Values() {
				sv[i] += w.Num.ThroughputBps(v)
			}
		}
		inv := 1 / float64(len(truths))
		for i := range sv {
			sv[i] *= inv
		}
		cx, cy, v := score.MaxCell()
		return score.CellCenter(cx, cy), v
	}
}

func oracleOptimalMin(truths []*geom.Grid) (geom.Vec2, float64) {
	if len(truths) == 0 {
		return geom.Vec2{}, math.Inf(-1)
	}
	out := truths[0].Clone()
	ov := out.Values()
	for _, t := range truths[1:] {
		for i, v := range t.Values() {
			if v < ov[i] {
				ov[i] = v
			}
		}
	}
	cx, cy, v := out.MaxCell()
	return out.CellCenter(cx, cy), v
}

// TestBestPositionMatchesOracle checks BestPosition against its old
// loops by bits, over random worlds of 1-8 UEs, altitudes and
// evaluation grids, for every objective.
func TestBestPositionMatchesOracle(t *testing.T) {
	terrains := []*terrain.Surface{terrain.Flat("FLAT", 120), terrain.Campus(3)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := terrains[rng.Intn(len(terrains))]
		ues, err := ue.TryPlaceRandomOpen(1+rng.Intn(8), tr.Bounds().Inset(5), tr.IsOpen, 0, rng)
		if err != nil {
			t.Log(err)
			return false
		}
		w, err := sim.New(sim.Config{Terrain: tr, Seed: uint64(seed), FastRanging: true}, ues)
		if err != nil {
			t.Log(err)
			return false
		}
		alt := 20 + rng.Float64()*100
		cell := 10 + rng.Float64()*20
		for _, obj := range []rem.Objective{rem.MaxMin, rem.MaxMean, rem.MaxWeighted} {
			pos, v := BestPosition(w, alt, cell, obj)
			wpos, wv := oracleBestPosition(w, alt, cell, obj)
			if pos != wpos || math.Float64bits(v) != math.Float64bits(wv) {
				t.Logf("seed %d %v: %v=%v, oracle %v=%v", seed, obj, pos, v, wpos, wv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
}

// TestBestPositionWithoutUEs: a world with no UEs has no optimum, for
// either kind of objective.
func TestBestPositionWithoutUEs(t *testing.T) {
	w, err := sim.New(sim.Config{Terrain: terrain.Flat("FLAT", 100), Seed: 1, FastRanging: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []rem.Objective{rem.MaxMin, rem.MaxMean} {
		if _, v := BestPosition(w, 60, 10, obj); !math.IsInf(v, -1) {
			t.Errorf("%v optimum of an empty world = %v, want -Inf", obj, v)
		}
	}
}
