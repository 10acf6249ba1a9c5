package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/enb"
	"repro/internal/geom"
	"repro/internal/interference"
	"repro/internal/radio"
	"repro/internal/rem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/ue"
)

// The replica rebuilds a scenario with the same public calls
// scenario.Run makes — terrain.ByName, ue.PlaceRandomOpen with the same
// separation rule, sim.New or sim.NewMultiCell — and runs the same epoch
// loop with a span around every layer call. Its per-epoch position and
// objective must equal scenario.Run's report for the seed, which is
// what proves the per-layer numbers describe the run that the timed
// pass measures.

// replicaEpoch is one replica epoch's placement outcome.
type replicaEpoch struct {
	pos geom.Vec3
	obj float64
}

// replicaOut is what the traced pass needs from a replica run.
type replicaOut struct {
	epochs []replicaEpoch
	// wall is the job span: build plus every epoch.
	wall float64
	// model, graph and ues feed the interference micro-benchmark: the
	// fleet's own graph, or the single cell's propagation model.
	model *radio.Model
	graph *interference.Graph
	area  geom.Rect
	ues   []geom.Vec2
}

// placement mirrors scenario's build: the populated area and the UE
// separation rule (15 m, shrunk for dense scale-up populations).
func placement(t *terrain.Surface, n int) (geom.Rect, float64) {
	area := t.Bounds().Inset(t.Bounds().Width() * 0.08)
	minSep := 15.0
	if n > 200 {
		minSep = min(15, math.Sqrt(area.Width()*area.Height()/float64(4*n)))
	}
	return area, minSep
}

// relocateHalf moves half the UEs between epochs with exactly the draws
// scenario's epoch loop makes.
func relocateHalf(t *terrain.Surface, ues []*ue.UE, rng *rand.Rand) {
	area := t.Bounds().Inset(t.Bounds().Width() * 0.08)
	for i := 0; i < len(ues)/2; i++ {
		idx := rng.Intn(len(ues))
		for try := 0; try < 5000; try++ {
			p := geom.V2(area.MinX+rng.Float64()*area.Width(), area.MinY+rng.Float64()*area.Height())
			if t.IsOpen(p) {
				ues[idx].Pos = p
				break
			}
		}
	}
}

func controllerFor(spec scenario.Spec) (core.Controller, error) {
	switch spec.Controller {
	case "skyran":
		return core.NewSkyRAN(core.Config{Seed: spec.Seed, MeasurementBudgetM: spec.BudgetM}), nil
	case "random":
		return &core.Random{Seed: spec.Seed}, nil
	}
	return nil, fmt.Errorf("replica: controller %q not replicated", spec.Controller)
}

// ttiSteps is how many 10 ms serving steps scenario's serving phase
// runs (it serves with a TTI stride of 10).
func ttiSteps(serveS float64) float64 { return math.Trunc(serveS * 1000 / 10) }

// replicate runs the replica of a normalized spec under tr.
func replicate(ctx context.Context, tr *tracer, spec scenario.Spec, l layerSamples) (out replicaOut, err error) {
	if spec.Topology != "uniform" {
		return out, fmt.Errorf("replica: topology %q not replicated", spec.Topology)
	}
	job := tr.begin("job")
	defer func() { out.wall = tr.end(job) }()

	var t *terrain.Surface
	l.add("terrain.by_name_s", tr.do("terrain.ByName", func() { t = terrain.ByName(spec.Terrain, uint64(spec.Seed)) }))
	if t == nil {
		return out, fmt.Errorf("replica: unknown terrain %q", spec.Terrain)
	}
	rng := detrand.New(spec.Seed)
	area, minSep := placement(t, spec.UEs)
	var ues []*ue.UE
	l.add("ue.place_random_open_s", tr.do("ue.PlaceRandomOpen", func() {
		ues = ue.PlaceRandomOpen(spec.UEs, area, t.IsOpen, minSep, rng.Rand)
	}))
	out.area = t.Bounds()
	cfg := sim.Config{Terrain: t, Seed: uint64(spec.Seed), FastRanging: true, Faults: spec.Faults}
	perUETTI := float64(spec.UEs) * ttiSteps(spec.ServeS)
	serve := func(serveS float64) {
		l.add("epoch.serve_s", serveS)
		l.add("epoch.serve_ns_per_ue_tti", serveS*1e9/perUETTI)
	}

	if spec.Cells >= 2 {
		plan, perr := interference.ParsePlan(spec.Carriers)
		if perr != nil {
			return out, perr
		}
		ho := enb.DefaultHandoverConfig()
		if spec.HandoverHysteresisDB > 0 {
			ho.HysteresisDB = spec.HandoverHysteresisDB
		}
		if spec.HandoverTTTs > 0 {
			ho.TTTs = spec.HandoverTTTs
		}
		if spec.MobilityMS > 0 {
			for _, u := range ues {
				u.Mobility = ue.NewRandomWaypoint(area, spec.MobilityMS, 0)
			}
		}
		var m *sim.MultiCell
		l.add("sim.new_s", tr.do("sim.NewMultiCell", func() { m, err = sim.NewMultiCell(cfg, spec.Cells, plan, ho, ues, 0) }))
		if err != nil {
			return out, err
		}
		m.Mobile = spec.MobilityMS > 0
		for e := 0; e < spec.Epochs && err == nil; e++ {
			tr.epoch = e + 1
			tr.do("epoch", func() {
				if e > 0 {
					tr.do("relocateHalf", func() { relocateHalf(t, m.UEs, rng.Rand) })
				}
				l.add("epoch.place_s", tr.do("place", func() {
					tr.do("sim.MultiCell.PlaceCells", func() { err = m.PlaceCells() })
					if err == nil {
						tr.do("sim.MultiCell.Reselect", func() { err = m.Reselect() })
					}
				}))
				if err != nil {
					return
				}
				var ep replicaEpoch
				l.add("epoch.score_s", tr.do("score", func() {
					ep = replicaEpoch{pos: m.Graph.Cells[0], obj: m.MinSINRdB()}
					m.AvgThroughputBps()
				}))
				if spec.ServeS > 0 && spec.Traffic != nil {
					serve(tr.do("sim.MultiCell.ServeTraffic", func() { _, err = m.ServeTraffic(spec.ServeS, 10, *spec.Traffic) }))
				} else if spec.ServeS > 0 {
					serve(tr.do("sim.MultiCell.ServeSeconds", func() { _, err = m.ServeSeconds(spec.ServeS, 10) }))
				}
				out.epochs = append(out.epochs, ep)
			})
		}
		tr.epoch = 0
		out.model, out.graph = m.Radio, m.Graph
		for _, u := range m.UEs {
			out.ues = append(out.ues, u.Pos)
		}
		return out, err
	}

	var w *sim.World
	l.add("sim.new_s", tr.do("sim.New", func() { w, err = sim.New(cfg, ues) }))
	if err != nil {
		return out, err
	}
	ctrl, err := controllerFor(spec)
	if err != nil {
		return out, err
	}
	for e := 0; e < spec.Epochs && err == nil; e++ {
		tr.epoch = e + 1
		tr.do("epoch", func() {
			if e > 0 {
				tr.do("relocateHalf", func() { relocateHalf(t, w.UEs, rng.Rand) })
			}
			var er core.EpochResult
			l.add("epoch.place_s", tr.do("core.RunEpochCtx", func() { er, err = core.RunEpochCtx(ctx, ctrl, w) }))
			if err != nil {
				return
			}
			l.add("epoch.score_s", tr.do("score", func() {
				tr.do("sim.World.AvgThroughputAt", func() { w.AvgThroughputAt(er.Position) })
				// scenario skips the ground-truth scan past 200 UEs.
				if len(w.UEs) <= 200 {
					tr.do("core.BestPosition", func() { core.BestPosition(w, er.Position.Z, 5, rem.MaxMean) })
				}
			}))
			if spec.ServeS > 0 && spec.Traffic != nil {
				serve(tr.do("sim.World.ServeTraffic", func() { _, err = w.ServeTraffic(spec.ServeS, 10, *spec.Traffic) }))
			} else if spec.ServeS > 0 {
				serve(tr.do("sim.World.ServeSeconds", func() { w.ServeSeconds(spec.ServeS, 10) }))
			}
			out.epochs = append(out.epochs, replicaEpoch{pos: er.Position, obj: er.ObjectiveValue})
		})
	}
	tr.epoch = 0
	out.model = w.Radio
	for _, u := range w.UEs {
		out.ues = append(out.ues, u.Pos)
	}
	return out, err
}

// matchReport checks a replica against the placements scenario.Run
// reported for the same seed, epoch by epoch, bit for bit.
func matchReport(out replicaOut, want []replicaEpoch) error {
	if len(out.epochs) != len(want) {
		return fmt.Errorf("replica ran %d epochs, scenario.Run reported %d", len(out.epochs), len(want))
	}
	for i, ep := range out.epochs {
		w := want[i]
		if ep.pos != w.pos || math.Float64bits(ep.obj) != math.Float64bits(w.obj) {
			return fmt.Errorf("epoch %d: replica placed %v (objective %v), scenario.Run %v (objective %v)",
				i+1, ep.pos, ep.obj, w.pos, w.obj)
		}
	}
	return nil
}

// placementsOf lists a result's per-epoch position and objective.
func placementsOf(res *scenario.Result) []replicaEpoch {
	var out []replicaEpoch
	for _, e := range res.Epochs {
		out = append(out, replicaEpoch{pos: e.Position, obj: e.ObjectiveValue})
	}
	return out
}
