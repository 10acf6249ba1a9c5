package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/ue"
)

// RunFig12 reproduces Fig 12: the UAV stays at its initially optimal
// position while a fraction of the UEs walk scripted routes; relative
// throughput decays over an hour. Paper: decay is faster with more
// movers, and a 10 % loss threshold corresponds to roughly a 10 min
// epoch.
func RunFig12(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 12",
		Title:  "Throughput decay over time while UEs move (campus, 8 UEs)",
		Header: []string{"minute", "move25%", "move50%", "move75%"},
	}
	fractions := []float64{0.25, 0.50, 0.75}
	sampleMins := []int{0, 5, 10, 20, 30, 45, 60}
	if opts.Quick {
		sampleMins = []int{0, 10, 30}
	}
	res, err := sweepSeeds(opts, len(fractions), func(fi, seed int) ([]float64, error) {
		frac := fractions[fi]
		t := terrain.Campus(uint64(seed + 1))
		ues := uniformUEs(t, 8, int64(seed+1))
		// The paper scripts movers along predefined routes that
		// mimic human mobility: they drift steadily away from
		// where the REM was measured, so degradation accumulates
		// with time (a random-waypoint walker is ergodic and would
		// flatten out instead).
		movers := int(frac * float64(len(ues)))
		mrng := rand.New(rand.NewSource(int64(seed)*7 + int64(fi)))
		for i := 0; i < movers; i++ {
			ues[i].Mobility = departingRoute(t, ues[i].Pos, mrng)
		}
		w, err := newWorld("CAMPUS", uint64(seed+1), ues, true)
		if err != nil {
			return nil, err
		}
		const alt = 35
		evalCell := evalCellFor(t, opts.Quick)
		// Park at the initially optimal position. The decay is
		// measured against the *initial* optimum (the paper's
		// y-axis starts at 1.0 and the UAV never repositions), not
		// against a re-optimised denominator that would shrink as
		// the UEs spread out.
		best, bestVal := core.BestPosition(w, alt, evalCell, rem.MaxMean)
		w.UAV.SetRoute([]geom.Vec3{best.WithZ(alt)})
		for !w.UAV.Hovering() {
			w.Step(1)
		}
		rels := make([]float64, 0, len(sampleMins))
		si := 0
		for min := 0; min <= sampleMins[len(sampleMins)-1]; min++ {
			if si < len(sampleMins) && min == sampleMins[si] {
				rels = append(rels, metrics.Clamp01(metrics.Relative(w.AvgThroughputAt(w.UAV.Position()), bestVal)))
				si++
			}
			w.Step(60)
		}
		return rels, nil
	})
	if err != nil {
		return nil, err
	}
	for si, min := range sampleMins {
		row := []string{f0(float64(min))}
		for fi := range fractions {
			var vals []float64
			for _, seedRels := range res[fi] {
				vals = append(vals, seedRels[si])
			}
			row = append(row, f(metrics.Mean(vals)))
		}
		r.AddRow(row...)
	}
	r.Note("paper: ≥0.8 relative throughput up to ~10 min; faster decay with more movers")
	return r, nil
}

// departingRoute scripts a pedestrian route that drifts steadily away
// from the UE's starting position: waypoints every ~40 m (20 legs, ~45 min of walking) along a
// randomly drawn heading (deflected a little at each leg), walked at a
// strolling 0.5 m/s so the walk spans tens of minutes — the Fig 12
// mobility model.
func departingRoute(t *terrain.Surface, start geom.Vec2, rng *rand.Rand) ue.Mobility {
	area := t.Bounds().Inset(10)
	heading := rng.Float64() * 2 * math.Pi
	var wps []geom.Vec2
	cur := start
	for leg := 0; leg < 20; leg++ {
		heading += (rng.Float64() - 0.5) * 0.8
		next := area.Clamp(cur.Add(geom.V2(math.Cos(heading), math.Sin(heading)).Scale(35 + rng.Float64()*15)))
		wps = append(wps, next)
		cur = next
	}
	return ue.NewRoute(wps, 0.5, false)
}

// controllerFor builds a fresh controller by name with the given
// per-epoch budget. The REM estimation cell scales with terrain size:
// 1 km² at 2 m cells means 250k-cell interpolations per UE per epoch,
// which burns minutes for no accuracy the 16 m evaluation grid can see.
func controllerFor(name, terrName string, budget float64, seed int64) core.Controller {
	const alt = 60
	remCell := 2.0
	if terrName == "LARGE" {
		remCell = 4
	}
	switch name {
	case "SkyRAN":
		return core.NewSkyRAN(core.Config{
			Seed:               seed,
			FixedAltitudeM:     alt,
			MeasurementBudgetM: budget,
			Objective:          rem.MaxMean,
			REMCellM:           remCell,
		})
	case "Uniform":
		return &core.Uniform{BudgetM: budget, AltitudeM: alt, Objective: rem.MaxMean, REMCellM: remCell}
	default:
		panic(fmt.Sprintf("experiments: unknown controller %q", name))
	}
}

// timeToTarget runs epochs (moving half the UEs between epochs when
// dynamic) until the success predicate holds at the end of an epoch,
// and returns the cumulative flight time in seconds. maxEpochs bounds
// the search; on failure it returns the accumulated time and false.
func timeToTarget(terrName string, nUEs, seed int, dynamic bool, ctrlName string,
	perEpochBudget float64, maxEpochs int, opts Options,
	succeed func(w *sim.World, res core.EpochResult, evalCell float64) bool) (float64, bool, error) {

	t := terrain.ByName(terrName, uint64(seed+1))
	ues := uniformUEs(t, nUEs, int64(seed+1))
	w, err := newWorld(terrName, uint64(seed+1), ues, true)
	if err != nil {
		return 0, false, err
	}
	evalCell := evalCellFor(t, opts.Quick)
	ctrl := controllerFor(ctrlName, terrName, perEpochBudget, int64(seed)*97)
	rng := rand.New(rand.NewSource(int64(seed) * 131))

	var totalS float64
	for epoch := 0; epoch < maxEpochs; epoch++ {
		res, err := ctrl.RunEpoch(w)
		if err != nil {
			return totalS, false, err
		}
		totalS += w.UAV.Config().FlightTimeFor(res.LocalizationM + res.MeasurementM)
		if succeed(w, res, evalCell) {
			return totalS, true, nil
		}
		if dynamic {
			ue.RelocateHalf(w.UEs, w.Terrain.Bounds(), w.Terrain.IsOpen, rng)
		}
	}
	return totalS, false, nil
}

// RunFig26 reproduces Fig 26: measurement overhead (flight time) to
// reach 0.9x optimal throughput on NYC with 6 UEs, static vs dynamic.
// Paper: ~100 s static for SkyRAN (similar for Uniform's best case);
// dynamic: SkyRAN needs about half of Uniform's time.
func RunFig26(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 26",
		Title:  "Flight time to reach 0.9x optimal (NYC, 6 UEs)",
		Header: []string{"scenario", "skyran_min", "uniform_min", "sky_hit%", "uni_hit%"},
	}
	succeed := func(w *sim.World, res core.EpochResult, evalCell float64) bool {
		return relMeanThroughput(w, res.Position, evalCell) >= 0.9
	}
	ladder := []float64{400, 850, 1200, 1700, 2400}
	if opts.Quick {
		ladder = ladder[:2]
	}
	scenarios := []string{"STATIC", "DYNAMIC"}
	type cell struct {
		skyT, uniT     float64
		skyHit, uniHit bool
	}
	res, err := sweepSeeds(opts, len(scenarios), func(si, seed int) (cell, error) {
		dynamic := scenarios[si] == "DYNAMIC"
		var c cell
		for _, ctrl := range []string{"SkyRAN", "Uniform"} {
			var tt float64
			var ok bool
			if dynamic {
				// Epochs of 450 m with half the UEs moving in
				// between; flight time accumulates across epochs.
				var err error
				tt, ok, err = timeToTarget("NYC", 6, seed, true, ctrl, 450, 6, opts, succeed)
				if err != nil {
					return cell{}, err
				}
			} else {
				// Static: smallest single-epoch budget reaching the
				// target, charged at its flight time.
				tt, ok = climbLadder("NYC", 6, seed, ctrl, ladder, opts, succeed)
			}
			if ctrl == "SkyRAN" {
				c.skyT, c.skyHit = tt/60, ok
			} else {
				c.uniT, c.uniHit = tt/60, ok
			}
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for si, scenario := range scenarios {
		var skyT, uniT []float64
		skyHits, uniHits := 0, 0
		for _, c := range res[si] {
			skyT = append(skyT, c.skyT)
			uniT = append(uniT, c.uniT)
			if c.skyHit {
				skyHits++
			}
			if c.uniHit {
				uniHits++
			}
		}
		r.AddRow(scenario,
			f(metrics.Mean(skyT)), f(metrics.Mean(uniT)),
			f0(100*float64(skyHits)/float64(opts.Seeds)),
			f0(100*float64(uniHits)/float64(opts.Seeds)))
	}
	r.Note("paper: static ≈100 s (1.7 min) both; dynamic: SkyRAN ≈6 min vs Uniform ≈12 min")
	return r, nil
}

// climbLadder finds the smallest single-epoch budget in the ladder for
// which the controller meets the success predicate and returns that
// run's flight time in seconds; on total failure it returns the final
// (most expensive) run's time and false.
func climbLadder(terrName string, nUEs, seed int, ctrlName string, ladder []float64,
	opts Options, succeed func(*sim.World, core.EpochResult, float64) bool) (float64, bool) {

	last := ladder[len(ladder)-1] / (30.0 / 3.6)
	for _, b := range ladder {
		tt, ok, err := timeToTarget(terrName, nUEs, seed, false, ctrlName, b, 1, opts, succeed)
		if err != nil {
			continue
		}
		last = tt
		if ok {
			return tt, true
		}
	}
	return last, false
}

// RunFig27 reproduces Fig 27: flight time to 0.9x optimal across the
// three simulated terrains (static UEs). Paper: Uniform's overhead
// blows up on LARGE while SkyRAN stays moderate.
func RunFig27(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 27",
		Title:  "Flight time to 0.9x optimal across terrains (6 UEs, static)",
		Header: []string{"terrain", "skyran_min", "uniform_min"},
	}
	succeed := func(w *sim.World, res core.EpochResult, evalCell float64) bool {
		return relMeanThroughput(w, res.Position, evalCell) >= 0.9
	}
	terrains := []string{"RURAL", "NYC", "LARGE"}
	if opts.Quick {
		terrains = []string{"RURAL", "NYC"}
	}
	type timePair struct{ sky, uni float64 }
	res, err := sweepSeeds(opts, len(terrains), func(ti, seed int) (timePair, error) {
		tn := terrains[ti]
		// Budget ladder: smallest budget whose epoch reaches 0.9.
		ladder := []float64{200, 400, 600, 850, 1200, 1700}
		if tn == "LARGE" {
			ladder = []float64{850, 1700, 2600, 3500, 5000, 7000}
		}
		if opts.Quick {
			ladder = ladder[:3]
		}
		st, _ := climbLadder(tn, 6, seed, "SkyRAN", ladder, opts, succeed)
		ut, _ := climbLadder(tn, 6, seed, "Uniform", ladder, opts, succeed)
		return timePair{sky: st / 60, uni: ut / 60}, nil
	})
	if err != nil {
		return nil, err
	}
	for ti, tn := range terrains {
		var skyT, uniT []float64
		for _, p := range res[ti] {
			skyT = append(skyT, p.sky)
			uniT = append(uniT, p.uni)
		}
		r.AddRow(tn, f(metrics.Mean(skyT)), f(metrics.Mean(uniT)))
	}
	r.Note("paper: SkyRAN flat-ish across terrains; Uniform grows sharply on LARGE (16x area)")
	return r, nil
}

// RunFig28 reproduces Fig 28: flight time to reach ≤5 dB median REM
// accuracy, static vs dynamic (NYC, 6 UEs). Paper: SkyRAN needs about
// half of Uniform's time.
func RunFig28(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 28",
		Title:  "Flight time to 5 dB median REM accuracy (NYC, 6 UEs)",
		Header: []string{"scenario", "skyran_min", "uniform_min"},
	}
	const alt = 60
	succeed := func(w *sim.World, res core.EpochResult, evalCell float64) bool {
		if len(res.REMs) == 0 {
			return false
		}
		return medianREMError(w, res.REMs, alt, evalCell) <= 5
	}
	scenarios := []string{"STATIC", "DYNAMIC"}
	type timePair struct{ sky, uni float64 }
	res, err := sweepSeeds(opts, len(scenarios), func(si, seed int) (timePair, error) {
		dynamic := scenarios[si] == "DYNAMIC"
		maxEpochs := 1
		budget := 850.0
		if dynamic {
			maxEpochs, budget = 5, 450
		}
		st, _, err := timeToTarget("NYC", 6, seed, dynamic, "SkyRAN", budget, maxEpochs, opts, succeed)
		if err != nil {
			return timePair{}, err
		}
		ut, _, err := timeToTarget("NYC", 6, seed, dynamic, "Uniform", budget, maxEpochs, opts, succeed)
		if err != nil {
			return timePair{}, err
		}
		return timePair{sky: st / 60, uni: ut / 60}, nil
	})
	if err != nil {
		return nil, err
	}
	for si, scenario := range scenarios {
		var skyT, uniT []float64
		for _, p := range res[si] {
			skyT = append(skyT, p.sky)
			uniT = append(uniT, p.uni)
		}
		r.AddRow(scenario, f(metrics.Mean(skyT)), f(metrics.Mean(uniT)))
	}
	r.Note("paper: SkyRAN about half of Uniform's overhead in both scenarios")
	return r, nil
}

// budgetedRun executes epochs with mobility until a total measurement
// budget is spent, returning the last epoch's result and world.
func budgetedRun(terrName string, nUEs, seed int, ctrlName string, totalBudget float64,
	epochs int, opts Options) (*sim.World, core.EpochResult, error) {

	t := terrain.ByName(terrName, uint64(seed+1))
	ues := uniformUEs(t, nUEs, int64(seed+1))
	w, err := newWorld(terrName, uint64(seed+1), ues, true)
	if err != nil {
		return nil, core.EpochResult{}, err
	}
	per := totalBudget / float64(epochs)
	ctrl := controllerFor(ctrlName, terrName, per, int64(seed)*53)
	rng := rand.New(rand.NewSource(int64(seed) * 177))
	var last core.EpochResult
	for e := 0; e < epochs; e++ {
		if e > 0 {
			ue.RelocateHalf(w.UEs, w.Terrain.Bounds(), w.Terrain.IsOpen, rng)
		}
		last, err = ctrl.RunEpoch(w)
		if err != nil {
			return nil, core.EpochResult{}, err
		}
	}
	return w, last, nil
}

// RunFig29 reproduces Fig 29: relative throughput with a 5000 m total
// measurement budget across epochs (half the UEs move each epoch).
// Paper: parity on RURAL; SkyRAN ≈1.4x Uniform on NYC and LARGE.
func RunFig29(opts Options) (*Report, error) {
	opts.defaults()
	return budgetedFigure(opts, "Fig 29",
		"Relative throughput at 5000 m total budget (6 UEs, mobile)",
		[]string{"terrain", "skyran", "uniform", "ratio"},
		func(w *sim.World, res core.EpochResult, evalCell float64) float64 {
			return metrics.Clamp01(relMeanThroughput(w, res.Position, evalCell))
		},
		"paper: ~parity on RURAL; SkyRAN ≈1.4x Uniform on NYC and LARGE")
}

// RunFig30 reproduces Fig 30: median REM accuracy under the same
// budget regime. Paper: SkyRAN lower error except on flat RURAL.
func RunFig30(opts Options) (*Report, error) {
	opts.defaults()
	return budgetedFigure(opts, "Fig 30",
		"Median REM accuracy at 5000 m total budget (6 UEs, mobile)",
		[]string{"terrain", "skyran_dB", "uniform_dB", "ratio"},
		func(w *sim.World, res core.EpochResult, evalCell float64) float64 {
			return medianREMError(w, res.REMs, 60, evalCell)
		},
		"paper: SkyRAN clearly more accurate on NYC and LARGE")
}

func budgetedFigure(opts Options, figure, title string, header []string,
	metric func(*sim.World, core.EpochResult, float64) float64, note string) (*Report, error) {

	r := &Report{Figure: figure, Title: title, Header: header}
	terrains := []string{"RURAL", "NYC", "LARGE"}
	if opts.Quick {
		terrains = []string{"RURAL", "NYC"}
	}
	const epochs = 5
	type valPair struct{ sky, uni float64 }
	res, err := sweepSeeds(opts, len(terrains), func(ti, seed int) (valPair, error) {
		tn := terrains[ti]
		t := terrain.ByName(tn, uint64(seed+1))
		evalCell := evalCellFor(t, opts.Quick)
		wS, sres, err := budgetedRun(tn, 6, seed, "SkyRAN", 5000, epochs, opts)
		if err != nil {
			return valPair{}, err
		}
		wU, ures, err := budgetedRun(tn, 6, seed, "Uniform", 5000, epochs, opts)
		if err != nil {
			return valPair{}, err
		}
		return valPair{sky: metric(wS, sres, evalCell), uni: metric(wU, ures, evalCell)}, nil
	})
	if err != nil {
		return nil, err
	}
	for ti, tn := range terrains {
		var sky, uni []float64
		for _, p := range res[ti] {
			sky = append(sky, p.sky)
			uni = append(uni, p.uni)
		}
		s, u := metrics.Mean(sky), metrics.Mean(uni)
		ratio := 0.0
		if u > 0 {
			ratio = s / u
		}
		r.AddRow(tn, f(s), f(u), f(ratio))
	}
	r.Note("%s", note)
	return r, nil
}

// RunFig31 reproduces Fig 31: relative throughput vs the number of
// active UEs (half moved each epoch, 5000 m total budget, NYC).
// Paper: SkyRAN improves roughly linearly up to 8 UEs then saturates,
// beating Uniform throughout.
func RunFig31(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{
		Figure: "Fig 31",
		Title:  "Relative throughput vs number of UEs (NYC, 5000 m budget)",
		Header: []string{"n_ues", "skyran", "uniform"},
	}
	counts := []int{2, 4, 6, 8, 10}
	if opts.Quick {
		counts = []int{2, 6, 10}
	}
	const epochs = 5
	type relPair struct{ sky, uni float64 }
	res, err := sweepSeeds(opts, len(counts), func(ni, seed int) (relPair, error) {
		n := counts[ni]
		t := terrain.NYC(uint64(seed + 1))
		evalCell := evalCellFor(t, opts.Quick)
		wS, sres, err := budgetedRun("NYC", n, seed, "SkyRAN", 5000, epochs, opts)
		if err != nil {
			return relPair{}, err
		}
		wU, ures, err := budgetedRun("NYC", n, seed, "Uniform", 5000, epochs, opts)
		if err != nil {
			return relPair{}, err
		}
		return relPair{
			sky: metrics.Clamp01(relMeanThroughput(wS, sres.Position, evalCell)),
			uni: metrics.Clamp01(relMeanThroughput(wU, ures.Position, evalCell)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range counts {
		var sky, uni []float64
		for _, p := range res[ni] {
			sky = append(sky, p.sky)
			uni = append(uni, p.uni)
		}
		r.AddRow(f0(float64(n)), f(metrics.Mean(sky)), f(metrics.Mean(uni)))
	}
	r.Note("paper: SkyRAN improves ~linearly to 8 UEs, then saturates; beats Uniform throughout")
	return r, nil
}
