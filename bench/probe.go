package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/epc"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/locate"
	"repro/internal/ranging"
	"repro/internal/rem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/traj"
	"repro/internal/ue"
)

// Controller probes. They time the SkyRAN controller's internal steps —
// localization flight and solve, trajectory planning, the measurement
// flight and its refining solve, REM interpolation and masked placement
// — which core.RunEpochCtx runs unexported. The probe runs on worlds
// built from the workload's terrain and seed, so it never perturbs the
// replica; on a workload with at most probeUEs UEs the probe world's
// UEs are the scenario's own. A real first epoch of the controller on
// an identical fresh world is the probe's reference: the probe's steps
// should cover nearly all of it (core.probe_cover_frac).
const (
	probeUEs      = 5   // ctrl-5ue's count: the controller's cost grows with it
	probeLoopM    = 35  // core.Config's default localization loop
	probeBudgetM  = 200 // measurement budget, as in ctrl-5ue
	probeREMCellM = 2   // core.Config's default REM cell
	probeMaskM    = 30  // core.Config's default placement mask
	probeSigmaM   = 5   // core.Config's default offset-prior sigma
)

// probe runs the controller's first epoch on one probe world, then the
// same pipeline step by step on an identical one.
func probe(ctx context.Context, tr *tracer, spec scenario.Spec, l layerSamples) error {
	root := tr.begin("probe")
	defer tr.end(root)

	t := terrain.ByName(spec.Terrain, uint64(spec.Seed))
	if t == nil {
		return fmt.Errorf("probe: unknown terrain %q", spec.Terrain)
	}
	newWorld := func() (*sim.World, error) {
		return sim.New(sim.Config{Terrain: t, Seed: uint64(spec.Seed), FastRanging: true}, ueSubset(t, spec))
	}
	ref, err := newWorld()
	if err != nil {
		return err
	}
	ctrl := core.NewSkyRAN(core.Config{Seed: spec.Seed, MeasurementBudgetM: probeBudgetM})
	epoch := tr.do("core.RunEpochCtx(probe reference)", func() { _, err = core.RunEpochCtx(ctx, ctrl, ref) })
	if err != nil {
		return fmt.Errorf("probe: reference epoch: %w", err)
	}
	// The measurement flight flies at the altitude the controller chose.
	alt := ctrl.TargetAltitude()

	w, err := newWorld()
	if err != nil {
		return err
	}
	rng := detrand.New(spec.Seed + 7)
	opts := locate.Options{
		Bounds:      w.Area(),
		GroundZ:     func(p geom.Vec2) float64 { return w.Radio.GroundZ(p) + 1.5 },
		OffsetPrior: &locate.OffsetPrior{MeanM: w.Cfg.ProcOffsetM, SigmaM: probeSigmaM},
	}
	probeStart := time.Now()

	var locTuples [][]ranging.Tuple
	loop := traj.LocalizationLoop(w.Area(), w.UAV.Position().XY(), probeLoopM, rng.Rand)
	l.add("sim.localization_flight_s", tr.do("sim.World.LocalizationFlight", func() {
		locTuples, _ = w.LocalizationFlight(loop, w.UAV.Config().MaxAltitudeM/2)
	}))
	nLoc := countTuples(locTuples)
	l.add("sim.localization_tuples", float64(nLoc))
	var ests []geom.Vec2
	solveLoc := tr.do("locate.SolveJoint", func() { ests = solveJoint(locTuples, opts, w.Area().Center()) })
	l.add("locate.solve_joint_s", solveLoc)
	// The controller's altitude search leaves the UAV hovering over the
	// estimates' centroid, where the measurement tour starts.
	tr.do("uav.Route", func() {
		w.UAV.SetRoute([]geom.Vec3{geom.Centroid(ests).WithZ(alt)})
		for !w.UAV.Hovering() {
			w.Step(1)
		}
	})

	maps := make([]*rem.Map, len(ests))
	tr.do("rem.Map.FillFrom", func() {
		for i, est := range ests {
			maps[i] = rem.New(w.Area(), probeREMCellM)
			maps[i].FillFrom(func(c geom.Vec2) float64 { return w.Radio.FSPLSNR(c.WithZ(alt), est) })
		}
	})
	var grad *geom.Grid
	tr.do("rem.Gradient", func() {
		agg := maps[0].Grid().Clone()
		for _, m := range maps[1:] {
			for i, v := range m.Grid().Values() {
				agg.Values()[i] += v
			}
		}
		grad = rem.Gradient(agg)
	})
	var path geom.Polyline
	l.add("traj.plan_s", tr.do("traj.Planner.Plan", func() {
		p, err := traj.DefaultPlanner().Plan(grad, make([]traj.History, len(maps)), w.UAV.Position().XY(), rng.Rand)
		if err != nil {
			p = traj.Zigzag(w.Area(), w.Area().Width()/6) // the controller's fallback
		}
		path = traj.ExtendToBudget(p.Truncate(probeBudgetM), w.Area(), probeBudgetM).Resample(1)
	}))

	var samples []sim.MeasSample
	var measTuples [][]ranging.Tuple
	l.add("sim.fly_measure_s", tr.do("sim.World.FlyMeasureWithRanging", func() {
		samples, measTuples, _ = w.FlyMeasureWithRanging(path, alt, probeBudgetM)
	}))
	l.add("sim.measure_samples", float64(len(samples)))
	nMeas := countTuples(measTuples)
	solveMeas := tr.do("locate.SolveJoint", func() { solveJoint(measTuples, opts, w.Area().Center()) })
	l.add("locate.refine_solve_s", solveMeas)
	if n := nLoc + nMeas; n > 0 {
		l.add("locate.us_per_tuple", (solveLoc+solveMeas)*1e6/float64(n))
	}

	tr.do("rem.Map.AddMeasurement", func() {
		for _, smp := range samples {
			for i, m := range maps {
				m.AddMeasurement(smp.GPS.XY(), smp.SNRs[i])
			}
		}
	})
	unmeasured := 0
	for _, m := range maps {
		unmeasured += len(m.Grid().Values()) - m.MeasuredCells()
	}
	var ierr error
	interp := tr.do("rem.Map.Interpolate", func() {
		for _, m := range maps {
			if err := m.Interpolate(); err != nil && ierr == nil {
				ierr = err
			}
		}
	})
	if ierr != nil {
		return fmt.Errorf("probe: interpolating REM: %w", ierr)
	}
	l.add("rem.interpolate_s", interp)
	l.add("rem.interpolate_ms_per_map", interp*1e3/float64(len(maps)))
	l.add("rem.unmeasured_cells", float64(unmeasured)/float64(len(maps)))
	l.add("rem.place_masked_s", tr.do("rem.PlaceMasked", func() {
		_, _, err = rem.PlaceMasked(maps, rem.MaxMin, nil, maps[0].NearMeasurement(probeMaskM))
	}))
	if err != nil {
		return fmt.Errorf("probe: placement: %w", err)
	}
	l.add("core.probe_cover_frac", time.Since(probeStart).Seconds()/epoch)
	l.add("probe.locate_rem_frac", (solveLoc+solveMeas+interp)/epoch)
	return nil
}

// ueSubset places the probe world's UEs with the scenario's own rule,
// capped at probeUEs.
func ueSubset(t *terrain.Surface, spec scenario.Spec) []*ue.UE {
	area, minSep := placement(t, spec.UEs)
	return ue.PlaceRandomOpen(min(spec.UEs, probeUEs), area, t.IsOpen, minSep, detrand.New(spec.Seed).Rand)
}

func countTuples(perUE [][]ranging.Tuple) int {
	n := 0
	for _, ts := range perUE {
		n += len(ts)
	}
	return n
}

// solveJoint multilaterates every UE with at least four tuples, as the
// controller does; the rest keep the fallback position.
func solveJoint(perUE [][]ranging.Tuple, opts locate.Options, fallback geom.Vec2) []geom.Vec2 {
	ests := make([]geom.Vec2, len(perUE))
	var idx []int
	var in [][]ranging.Tuple
	for i, ts := range perUE {
		ests[i] = fallback
		if len(ts) >= 4 {
			idx = append(idx, i)
			in = append(in, ts)
		}
	}
	if len(in) == 0 {
		return ests
	}
	if res, err := locate.SolveJoint(in, opts); err == nil {
		for k, i := range idx {
			ests[i] = res[k].UE
		}
	}
	return ests
}

// Micro-benchmarks of single calls. Each times a loop long enough to
// read (at least microMin) and reports the mean cost of one call.

const microMin = 20 * time.Millisecond

// Sinks keep measured results alive so the compiler cannot drop the
// calls; they are typed, because storing into an interface allocates.
var (
	byteSink  []byte
	floatSink float64
)

// perCall returns the mean seconds per call of f over batches of n
// calls, repeated until microMin has passed.
func perCall(n int, f func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < microMin {
		for i := 0; i < n; i++ {
			f()
		}
		calls += n
	}
	return time.Since(start).Seconds() / float64(calls)
}

// trafficMicro times building every UE's arrival source and draining
// the merged generator, on the workload's traffic model and UE count.
func trafficMicro(tr *tracer, spec scenario.Spec, l layerSamples) {
	if spec.Traffic == nil || spec.ServeS == 0 {
		return
	}
	ids := make([]int, spec.UEs)
	for i := range ids {
		ids[i] = i
	}
	var srcs []traffic.Source
	build := tr.do("traffic.NewSources", func() { srcs = traffic.NewSources(*spec.Traffic, ids, uint64(spec.Seed), spec.ServeS) })
	l.add("traffic.new_source_us", build*1e6/float64(len(ids)))
	gen := traffic.NewGenerator(srcs)
	events, bytes := 0, 0
	drain := tr.do("traffic.Generator.Pop", func() {
		for {
			a, ok := gen.Pop(math.Inf(1))
			if !ok {
				break
			}
			bytes += a.Bytes
			events++
		}
	})
	floatSink = float64(bytes)
	if events > 0 {
		l.add("traffic.ns_per_event", drain*1e9/float64(events))
	}
}

// gtpuMicro times GTP-U encapsulation at two packet sizes, decapsulation
// of a full-size packet, and counts heap allocations per encap+decap.
func gtpuMicro(tr *tracer, l layerSamples) {
	tun := epc.NewTunnel(1)
	small, full := make([]byte, 64), make([]byte, 1200)
	pdu := tun.Encap(full)
	tr.do("epc.Tunnel", func() {
		l.add("epc.gtpu_encap_ns_64", 1e9*perCall(1000, func() { byteSink = tun.Encap(small) }))
		l.add("epc.gtpu_encap_ns_1200", 1e9*perCall(1000, func() { byteSink = tun.Encap(full) }))
		l.add("epc.gtpu_decap_ns_1200", 1e9*perCall(1000, func() { byteSink, _ = tun.Decap(pdu) }))
	})
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		byteSink, _ = tun.Decap(tun.Encap(full))
	}
	runtime.ReadMemStats(&after)
	l.add("epc.gtpu_allocs_per_packet", float64(after.Mallocs-before.Mallocs)/n)
}

// sinrMicro times Graph.SINRdB at the workload's UE positions, on the
// fleet's own interference graph, or for a single-cell workload on a
// four-cell co-channel graph over its propagation model. The first pass
// is untimed, so the obstruction cache is warm.
func sinrMicro(tr *tracer, out replicaOut, l layerSamples) {
	g := out.graph
	if g == nil {
		b := out.area
		var cells []geom.Vec3
		for _, f := range [][2]float64{{0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75}} {
			cells = append(cells, geom.V3(b.MinX+f[0]*b.Width(), b.MinY+f[1]*b.Height(), 60))
		}
		g = interference.NewGraph(interference.PlanCochannel, out.model, cells)
	}
	ues := out.ues[:min(len(out.ues), 256)]
	occ := make([]int, len(g.Cells))
	for i := range occ {
		occ[i] = 25
	}
	alloc := interference.PRBInterval{Start: 0, N: 10}
	pass := func() {
		for i, u := range ues {
			floatSink += g.SINRdB(i%len(g.Cells), u, alloc, occ)
		}
	}
	pass()
	var per float64
	tr.do("interference.Graph.SINRdB", func() { per = perCall(1, pass) })
	l.add("interference.sinr_ns", per*1e9/float64(len(ues)))
}
