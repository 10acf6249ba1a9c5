package experiments

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/rem"
	"repro/internal/terrain"
	"repro/internal/traj"
)

// RunFig01 reproduces Fig 1: 20 UEs concentrated in pockets of a
// 250 m × 250 m Manhattan area; for every candidate UAV position at a
// fixed altitude, the average per-UE throughput. The paper's point:
// favourable positions are scarce (~5 % of positions ≥ 52 % above the
// median).
func RunFig01(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 1",
		Title:  "UAV positioning value map, NYC, 20 clustered UEs",
		Header: []string{"seed", "median_mbps", "best_mbps", "p95_mbps", "frac_good_%"},
	}
	type seedResult struct {
		med, best, p95, frac float64
	}
	results, err := runSeeds(opts, func(seed int) (seedResult, error) {
		t := terrain.NYC(uint64(seed + 1))
		// UEs in 4 pockets ("concentrated in few pockets of
		// locations/roads").
		all := pocketUEs(t, 20, int64(seed+1))
		w, err := newFaultyWorld("NYC", uint64(seed+1), all, true, opts.Faults)
		if err != nil {
			return seedResult{}, err
		}
		const alt = 60
		evalCell := evalCellFor(t, opts.Quick)
		truths := w.GroundTruthREMs(alt, evalCell)
		// Mean-throughput map.
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
		for i := range sv {
			sv[i] /= float64(len(truths)) * 1e6 // Mbps
		}
		med := metrics.Median(sv)
		best := metrics.Percentile(sv, 100)
		p95 := metrics.Percentile(sv, 95)
		// "good" = ≥ 52 % above the median (the paper's 26 vs 17 Mbps).
		goodThresh := med * 1.52
		good := 0
		for _, v := range sv {
			if v >= goodThresh {
				good++
			}
		}
		frac := 100 * float64(good) / float64(len(sv))
		return seedResult{med: med, best: best, p95: p95, frac: frac}, nil
	})
	if err != nil {
		return nil, err
	}
	var fracs, gains []float64
	for seed, sr := range results {
		fracs = append(fracs, sr.frac)
		gains = append(gains, sr.best/sr.med)
		r.AddRow(f0(float64(seed)), f1(sr.med), f1(sr.best), f1(sr.p95), f1(sr.frac))
	}
	r.Note("paper: only ~5%% of positions are ≥52%% above the median; measured mean frac_good = %.1f%%", metrics.Mean(fracs))
	r.Note("best-position gain over median: %.2fx (paper: ~1.7x)", metrics.Mean(gains))
	return r, nil
}

// pocketUEs places n UEs into 4 pockets on open ground.
func pocketUEs(t *terrain.Surface, n int, seed int64) []*simUE {
	per := n / 4
	var out []*simUE
	for c := 0; c < 4; c++ {
		k := per
		if c == 3 {
			k = n - 3*per
		}
		cluster := clusteredUEs(t, k, seed*17+int64(c))
		for _, u := range cluster {
			u.ID = len(out)
			out = append(out, u)
		}
	}
	return out
}

// RunFig04 reproduces Fig 4: median REM error of (a) a data-driven
// (measurement + IDW) map and (b) a free-space pathloss map, against
// exhaustive ground truth, on four terrains with 3 UEs each. The paper
// reports model error up to 4× the data-driven error (10 vs 4 dB on
// the hardest terrain).
func RunFig04(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 4",
		Title:  "REM accuracy: data-driven vs propagation model",
		Header: []string{"terrain", "data_driven_dB", "model_dB", "model/data"},
	}
	terrains := []string{"RURAL", "CAMPUS", "LARGE", "NYC"}
	if opts.Quick {
		terrains = []string{"RURAL", "NYC"}
	}
	type errPair struct{ data, model float64 }
	results, err := sweepSeeds(opts, len(terrains), func(ti, seed int) (errPair, error) {
		tn := terrains[ti]
		t := terrain.ByName(tn, uint64(seed+1))
		ues := uniformUEs(t, 3, int64(seed+1))
		w, err := newWorld(tn, uint64(seed+1), ues, true)
		if err != nil {
			return errPair{}, err
		}
		const alt = 60
		evalCell := evalCellFor(t, opts.Quick)

		// Data-driven: dense zigzag measurement + IDW.
		maps := measureZigzag(w, alt, t.Bounds().Width()/12, 0)
		dataErr := medianREMError(w, maps, alt, evalCell)

		// Model: FSPL given the true UE location.
		truths := w.GroundTruthREMs(alt, evalCell)
		var modelMeds []float64
		for i, u := range w.UEs {
			fspl := radio.FSPLREM(w.Radio, w.Area(), evalCell, u.Pos, alt)
			modelMeds = append(modelMeds, rem.MedianAbsErrorGrid(fspl, truths[i]))
		}
		return errPair{data: dataErr, model: metrics.Median(modelMeds)}, nil
	})
	if err != nil {
		return nil, err
	}
	for ti, tn := range terrains {
		var dataErrs, modelErrs []float64
		for _, p := range results[ti] {
			dataErrs = append(dataErrs, p.data)
			modelErrs = append(modelErrs, p.model)
		}
		d, m := metrics.Mean(dataErrs), metrics.Mean(modelErrs)
		r.AddRow(tn, f(d), f(m), f(m/math.Max(d, 1e-9)))
	}
	r.Note("paper: model error up to 4x data-driven (10 vs 4 dB on Terrain-4)")
	return r, nil
}

// measureZigzag flies a zigzag with the given spacing (budget 0 = full
// sweep) and returns interpolated per-UE REMs.
func measureZigzag(w *simWorld, alt, spacing, budget float64) []*rem.Map {
	maps := make([]*rem.Map, len(w.UEs))
	for i := range maps {
		maps[i] = rem.New(w.Area(), 2)
	}
	path := zigzagPath(w.Area(), spacing)
	if budget > 0 {
		path = path.Truncate(budget)
	}
	samples, _ := w.FlyMeasure(path.Resample(1), alt, budget)
	for _, s := range samples {
		for i, m := range maps {
			m.AddMeasurement(s.GPS.XY(), s.SNRs[i])
		}
	}
	for _, m := range maps {
		// Ignore ErrNoMeasurements: a zero-budget call leaves the map
		// model-free and the caller's error metric will show it.
		_ = m.Interpolate()
	}
	return maps
}

// RunFig06 reproduces Fig 6: median REM error as a function of the
// fraction of terrain probed, for a UE-location-aware trajectory vs a
// naive corner-start sweep. Paper: at 15 % probed, aware ≈ 5 dB vs
// naive ≈ 16 dB.
func RunFig06(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 6",
		Title:  "REM error vs fraction of terrain probed",
		Header: []string{"probed_%", "aware_dB", "naive_dB"},
	}
	fractions := []float64{5, 10, 15, 25, 40, 50}
	if opts.Quick {
		fractions = []float64{10, 25}
	}
	type errPair struct{ aware, naive float64 }
	res, err := sweepSeeds(opts, len(fractions), func(fi, seed int) (errPair, error) {
		t := terrain.NYC(uint64(seed + 1))
		ues := clusteredUEs(t, 3, int64(seed+1))
		const alt = 60
		evalCell := evalCellFor(t, opts.Quick)
		area := t.Bounds()
		// Probing one metre of flight "covers" roughly a swath of
		// cells; calibrate fraction → budget via the zigzag geometry:
		// a full sweep at spacing s covers the area with length
		// ≈ W²/s, so budget = frac · W²/spacing.
		spacing := area.Width() / 12
		fullLen := zigzagPath(area, spacing).Length()

		budget := fullLen * fractions[fi] / 50 // 50 % probed ≈ full sweep at this spacing
		// Naive: corner-start zigzag truncated at budget.
		wNaive, err := newWorld("NYC", uint64(seed+1), clonedUEs(ues), true)
		if err != nil {
			return errPair{}, err
		}
		naiveMaps := measureZigzag(wNaive, alt, spacing, budget)
		naive := medianREMError(wNaive, naiveMaps, alt, evalCell)

		// Aware: serpentine sweep of the UE neighbourhood first.
		wAware, err := newWorld("NYC", uint64(seed+1), clonedUEs(ues), true)
		if err != nil {
			return errPair{}, err
		}
		awareMaps := measureAware(wAware, alt, budget)
		return errPair{aware: medianREMError(wAware, awareMaps, alt, evalCell), naive: naive}, nil
	})
	if err != nil {
		return nil, err
	}
	for fi, frac := range fractions {
		var aware, naive []float64
		for _, p := range res[fi] {
			aware = append(aware, p.aware)
			naive = append(naive, p.naive)
		}
		r.AddRow(f0(frac), f(metrics.Mean(aware)), f(metrics.Mean(naive)))
	}
	r.Note("paper: at 15%% probed, location-aware ≈5 dB vs naive ≈16 dB (12.5x)")
	return r, nil
}

// measureAware probes with SkyRAN's own location-aware machinery: the
// per-UE REMs are initialised from FSPL at the true UE positions, the
// gradient map of their aggregate drives a K-means/TSP tour, and the
// leftover budget sweeps — exactly the Fig 5 "location aware probing"
// trajectory.
func measureAware(w *simWorld, alt, budget float64) []*rem.Map {
	maps := make([]*rem.Map, len(w.UEs))
	grids := make([]*geom.Grid, len(w.UEs))
	for i, u := range w.UEs {
		m := rem.New(w.Area(), 2)
		pos := u.Pos
		m.FillFrom(func(c geom.Vec2) float64 { return w.Radio.FSPLSNR(c.WithZ(alt), pos) })
		maps[i] = m
		grids[i] = m.Grid()
	}
	grad := rem.Gradient(rem.ObjectiveMap(grids, rem.Sum, nil))
	pl := traj.DefaultPlanner()
	rng := rand.New(rand.NewSource(99))
	path, err := pl.Plan(grad, make([]traj.History, len(w.UEs)), w.Area().Center(), rng)
	if err != nil {
		path = zigzagPath(w.Area(), w.Area().Width()/8)
	}
	path = traj.ExtendToBudget(path.Truncate(budget), w.Area(), budget)
	samples, _ := w.FlyMeasure(path.Resample(1), alt, budget)
	for _, s := range samples {
		for i, m := range maps {
			m.AddMeasurement(s.GPS.XY(), s.SNRs[i])
		}
	}
	for _, m := range maps {
		_ = m.Interpolate()
	}
	return maps
}

// RunFig07 reproduces Fig 7: pathloss to a fixed UE along a 50 m
// flight segment, showing ~20 dB swings.
func RunFig07(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 7",
		Title:  "Pathloss along a 50 m flight segment (campus)",
		Header: []string{"segment_m", "pathloss_dB"},
	}
	// UE south of the office building; the segment flies north of it,
	// below rooftop height, crossing from a line of sight that clears
	// the building's west edge into its radio shadow — the regime where
	// the paper measured 77→95 dB inside 50 m.
	ues := []*simUE{newUE(0, geom.V2(155, 110))}
	w, err := newWorld("CAMPUS", 1, ues, true)
	if err != nil {
		return nil, err
	}
	var minPL, maxPL = math.Inf(1), math.Inf(-1)
	for d := 0.0; d <= 50; d += 2 {
		pos := geom.V3(40+d, 200, 18)
		pl := w.Radio.Pathloss(pos, w.Radio.UEPoint(ues[0].Pos))
		minPL = math.Min(minPL, pl)
		maxPL = math.Max(maxPL, pl)
		r.AddRow(f0(d), f1(pl))
	}
	r.Note("swing = %.1f dB (paper: ~18 dB, 77→95)", maxPL-minPL)
	return r, nil
}

// RunFig08 reproduces Fig 8: pathloss vs altitude above the UE
// cluster, showing the U-shape that motivates the altitude search.
func RunFig08(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 8",
		Title:  "Pathloss vs UAV altitude (campus)",
		Header: []string{"altitude_m", "pathloss_dB"},
	}
	ues := []*simUE{newUE(0, geom.V2(110, 125)), newUE(1, geom.V2(210, 200))}
	w, err := newWorld("CAMPUS", 3, ues, true)
	if err != nil {
		return nil, err
	}
	hover := geom.V2(160, 90) // offset so low-altitude rays graze the forest/building
	bestAlt, bestPL := 0.0, math.Inf(1)
	first, last := 0.0, 0.0
	for alt := 5.0; alt <= 120; alt += 5 {
		var pl float64
		for _, u := range ues {
			pl += w.Radio.Pathloss(hover.WithZ(alt), w.Radio.UEPoint(u.Pos))
		}
		pl /= float64(len(ues))
		if alt == 5 {
			first = pl
		}
		last = pl
		if pl < bestPL {
			bestPL, bestAlt = pl, alt
		}
		r.AddRow(f0(alt), f1(pl))
	}
	r.Note("minimum at %.0f m (interior optimum; paper Fig 8 shows the same U-shape)", bestAlt)
	r.Note("low-altitude penalty %.1f dB, ceiling penalty %.1f dB", first-bestPL, last-bestPL)
	return r, nil
}
