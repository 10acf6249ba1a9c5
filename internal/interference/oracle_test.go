package interference

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/terrain"
)

// This file keeps the per-call arithmetic the queries used before link
// rows — every query re-traced each ray it read — as the oracle the
// row-based queries must match bit for bit.

func (g *Graph) oracleSNRdB(serving int, ue geom.Vec2) float64 {
	return g.Model.SNR(g.Cells[serving], ue)
}

func (g *Graph) oracleRxPowerDBm(j int, ue geom.Vec2) float64 {
	b := g.Model.Budget
	return b.TxPowerDBm + b.TxAntennaGainDB + b.RxAntennaGainDB - g.Model.Pathloss(g.Cells[j], g.Model.UEPoint(ue))
}

func (g *Graph) oracleInterferenceMW(serving int, ue geom.Vec2, alloc PRBInterval, occ []int) float64 {
	if g.Plan != PlanCochannel || len(g.Cells) < 2 || alloc.N <= 0 {
		return 0
	}
	var imw float64
	for j := range g.Cells {
		if j == serving {
			continue
		}
		frac := 1.0
		if occ != nil {
			ov := overlapPRBs(alloc, occ[j])
			if ov == 0 {
				continue
			}
			frac = float64(ov) / float64(alloc.N)
		}
		imw += frac * radio.DBmToMilliwatt(g.oracleRxPowerDBm(j, ue))
	}
	return imw
}

func (g *Graph) oraclePenaltyDB(serving int, ue geom.Vec2, alloc PRBInterval, occ []int) float64 {
	imw := g.oracleInterferenceMW(serving, ue, alloc, occ)
	if imw == 0 {
		return 0
	}
	nmw := radio.DBmToMilliwatt(g.Model.Budget.NoiseFloorDBm())
	return 10 * math.Log10(1+imw/nmw)
}

func (g *Graph) oracleSINRdB(serving int, ue geom.Vec2, alloc PRBInterval, occ []int) float64 {
	p := g.oraclePenaltyDB(serving, ue, alloc, occ)
	if p == 0 {
		return g.oracleSNRdB(serving, ue)
	}
	return g.oracleSNRdB(serving, ue) - p
}

func (g *Graph) oracleWidebandSINRdB(serving int, ue geom.Vec2, occ []int, prbs int) float64 {
	if g.Plan != PlanCochannel || len(g.Cells) < 2 {
		return g.oracleSNRdB(serving, ue)
	}
	var imw float64
	for j := range g.Cells {
		if j == serving {
			continue
		}
		frac := 1.0
		if occ != nil && prbs > 0 {
			if occ[j] <= 0 {
				continue
			}
			frac = float64(occ[j]) / float64(prbs)
		}
		imw += frac * radio.DBmToMilliwatt(g.oracleRxPowerDBm(j, ue))
	}
	if imw == 0 {
		return g.oracleSNRdB(serving, ue)
	}
	nmw := radio.DBmToMilliwatt(g.Model.Budget.NoiseFloorDBm())
	return g.oracleSNRdB(serving, ue) - 10*math.Log10(1+imw/nmw)
}

func (g *Graph) oracleBestCell(ue geom.Vec2, load []int, loadBiasDB float64) int {
	best, bestScore := 0, math.Inf(-1)
	for j := range g.Cells {
		score := g.oracleWidebandSINRdB(j, ue, nil, 0)
		if load != nil {
			score -= loadBiasDB * float64(load[j])
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

func (g *Graph) oracleMinSINRdB(ues []geom.Vec2) float64 {
	min := math.Inf(1)
	for _, u := range ues {
		best := math.Inf(-1)
		for j := range g.Cells {
			if s := g.oracleWidebandSINRdB(j, u, nil, 0); s > best {
				best = s
			}
		}
		if best < min {
			min = best
		}
	}
	return min
}

// TestLinksMatchOracle: on CAMPUS (obstructed and shadowed links), with
// 1–8 cells at random positions, both plans, random UE points and an
// occupancy that is nil, all zeros or partial, every query derived from
// a link row returns the oracle's bits.
func TestLinksMatchOracle(t *testing.T) {
	surf := terrain.ByName("CAMPUS", 7)
	m := radio.NewModel(surf, radio.DefaultParams(), 7)
	b := surf.Bounds()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		point := func() geom.Vec2 {
			return geom.V2(b.MinX+rng.Float64()*b.Width(), b.MinY+rng.Float64()*b.Height())
		}
		n := 1 + rng.Intn(8)
		cells := make([]geom.Vec3, n)
		for j := range cells {
			cells[j] = point().WithZ(30 + 90*rng.Float64())
		}
		plan := PlanCochannel
		if rng.Intn(2) == 0 {
			plan = PlanSeparate
		}
		g := NewGraph(plan, m, cells)
		var occ, load []int
		switch rng.Intn(3) {
		case 1:
			occ = make([]int, n)
		case 2:
			occ = make([]int, n)
			for j := range occ {
				occ[j] = rng.Intn(51)
			}
		}
		if rng.Intn(2) == 0 {
			load = make([]int, n)
			for j := range load {
				load[j] = rng.Intn(20)
			}
		}
		bias := rng.Float64()
		ues := make([]geom.Vec2, 1+rng.Intn(6))
		for k := range ues {
			ues[k] = point()
		}
		ok := true
		same := func(what string, s int, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("%s %d cells, serving %d, occ %v: got %.17g, want %.17g", what, n, s, occ, got, want)
				ok = false
			}
		}
		links := g.NewLinks(len(ues))
		for k, u := range ues {
			g.Fill(links, k, u)
		}
		for k, u := range ues {
			for s := 0; s < n; s++ {
				alloc := PRBInterval{Start: rng.Intn(50), N: rng.Intn(51)}
				prbs := 50 * rng.Intn(2)
				wb, pen := g.oracleWidebandSINRdB(s, u, occ, prbs), g.oraclePenaltyDB(s, u, alloc, occ)
				same("WidebandSINRdB", s, g.WidebandSINRdB(s, u, occ, prbs), wb)
				same("PenaltyDB", s, g.PenaltyDB(s, u, alloc, occ), pen)
				same("SINRdB", s, g.SINRdB(s, u, alloc, occ), g.oracleSINRdB(s, u, alloc, occ))
				same("Links.SNRdB", s, links.SNRdB(k, s), g.oracleSNRdB(s, u))
				same("Links.WidebandSINRdB", s, links.WidebandSINRdB(k, s, occ, prbs), wb)
				same("Links.PenaltyDB", s, links.PenaltyDB(k, s, alloc, occ), pen)
			}
			if got, want := g.BestCell(u, load, bias), g.oracleBestCell(u, load, bias); got != want {
				t.Logf("BestCell %d cells, load %v: got %d, want %d", n, load, got, want)
				ok = false
			}
		}
		same("MinSINRdB", -1, g.MinSINRdB(ues), g.oracleMinSINRdB(ues))
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
