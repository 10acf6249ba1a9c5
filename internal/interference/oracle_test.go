package interference

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/terrain"
)

// This file keeps the per-call arithmetic the queries used before link
// rows — every query re-traced each ray it read — as the oracle the
// row-based queries must match bit for bit, and the placement descent
// that refilled every UE's whole row per candidate as the oracle for
// column refills.

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

// fullRefillMinSINRdB is MinSINRdB before placement refilled single
// columns: one row, refilled over every cell for each UE in turn.
func (g *Graph) fullRefillMinSINRdB(ues []geom.Vec2) float64 {
	l := g.NewLinks(1)
	min := math.Inf(1)
	for _, u := range ues {
		g.Fill(l, 0, u)
		best := math.Inf(-1)
		for j := range g.Cells {
			if s := l.WidebandSINRdB(0, j, nil, 0); s > best {
				best = s
			}
		}
		if best < min {
			min = best
		}
	}
	return min
}

// oraclePlaceMaxMinSINR is the coordinate descent before column
// refills: every candidate scores a copy of the graph with the cell
// moved, refilling every UE's row over all N cells.
func oraclePlaceMaxMinSINR(g *Graph, ues []geom.Vec2, area geom.Rect, stepM float64, rounds, workers int) ([]geom.Vec3, error) {
	if stepM <= 0 || rounds <= 0 || len(g.Cells) == 0 || len(ues) == 0 {
		return g.Cells, nil
	}
	offsets := []geom.Vec2{{X: 0, Y: 0}, {X: stepM, Y: 0}, {X: -stepM, Y: 0}, {X: 0, Y: stepM}, {X: 0, Y: -stepM}}
	for r := 0; r < rounds; r++ {
		improved := false
		for c := range g.Cells {
			cur := g.Cells[c]
			cands := make([]geom.Vec3, len(offsets))
			for k, off := range offsets {
				p := area.Clamp(geom.V2(cur.X+off.X, cur.Y+off.Y))
				cands[k] = p.WithZ(cur.Z)
			}
			scores, err := engine.ParallelMap(engine.WorkerCount(workers), len(cands), func(k int) (float64, error) {
				trial := *g
				cells := append([]geom.Vec3(nil), g.Cells...)
				cells[c] = cands[k]
				trial.Cells = cells
				return trial.fullRefillMinSINRdB(ues), nil
			})
			if err != nil {
				return nil, err
			}
			bestK := 0
			for k := 1; k < len(scores); k++ {
				if scores[k] > scores[bestK] {
					bestK = k
				}
			}
			if bestK != 0 {
				g.Cells[c] = cands[bestK]
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return g.Cells, nil
}

// TestPlaceMaxMinSINRMatchesOracle: on CAMPUS, fleets of 2–8 cells
// (some starting up to 20 m outside the area, where staying put and
// the clamped stay differ) under both plans, 1–40 UEs, 1–8 rounds and
// 1 or 4 workers end at the full-refill descent's positions, bit for
// bit.
func TestPlaceMaxMinSINRMatchesOracle(t *testing.T) {
	surf := terrain.ByName("CAMPUS", 7)
	m := radio.NewModel(surf, radio.DefaultParams(), 7)
	b := surf.Bounds()
	moved := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		point := func(margin float64) geom.Vec2 {
			return geom.V2(b.MinX-margin+rng.Float64()*(b.Width()+2*margin), b.MinY-margin+rng.Float64()*(b.Height()+2*margin))
		}
		n := 2 + rng.Intn(7)
		cells := make([]geom.Vec3, n)
		for j := range cells {
			margin := 0.0
			if rng.Intn(4) == 0 {
				margin = 20
			}
			cells[j] = point(margin).WithZ(30 + 90*rng.Float64())
		}
		plan := PlanCochannel
		if rng.Intn(3) == 0 {
			plan = PlanSeparate
		}
		ues := make([]geom.Vec2, 1+rng.Intn(40))
		for k := range ues {
			ues[k] = point(0)
		}
		step, rounds, workers := 10+50*rng.Float64(), 1+rng.Intn(8), 1+3*rng.Intn(2)
		got, err := PlaceMaxMinSINR(NewGraph(plan, m, cells), ues, b, step, rounds, workers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oraclePlaceMaxMinSINR(NewGraph(plan, m, cells), ues, b, step, rounds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			for _, v := range [][2]float64{{got[j].X, want[j].X}, {got[j].Y, want[j].Y}, {got[j].Z, want[j].Z}} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Logf("%d cells, %s, %d UEs, %d rounds, %d workers: cell %d at %v, want %v", n, plan, len(ues), rounds, workers, j, got[j], want[j])
					return false
				}
			}
			if want[j] != cells[j] {
				moved++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("no fleet moved a cell: the descent was never exercised")
	}
}
