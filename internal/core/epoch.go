package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/sim"
)

// findAltitude implements §3.3.1: hover above the centroid of the
// (estimated) UE locations at the 120 m ceiling, then descend in steps
// while the measured mean pathloss keeps decreasing; stop two steps
// after the minimum and return to it. Returns the chosen altitude and
// the metres flown by the search.
func (s *SkyRAN) findAltitude(w *sim.World, centroid geom.Vec2) (float64, float64) {
	ceil := w.UAV.Config().MaxAltitudeM
	startOdo := w.UAV.OdometerM()

	moveTo(w, centroid.WithZ(ceil))

	meanPathloss := func() float64 {
		var sum float64
		for i := range w.UEs {
			// Average a handful of 100 Hz reports to tame noise.
			var m float64
			for k := 0; k < 8; k++ {
				m += w.MeasuredSNR(i)
			}
			sum += w.Radio.Budget.PathlossFromSNR(m / 8)
		}
		return sum / float64(math.Max(1, float64(len(w.UEs))))
	}

	bestAlt, bestPL := ceil, meanPathloss()
	rises := 0
	for alt := ceil - altitudeStepM; alt >= minAltitudeM; alt -= altitudeStepM {
		moveTo(w, centroid.WithZ(alt))
		pl := meanPathloss()
		if pl < bestPL {
			bestPL, bestAlt = pl, alt
			rises = 0
		} else {
			rises++
			if rises >= 2 {
				break // past the minimum: shadowing now dominates
			}
		}
	}
	moveTo(w, centroid.WithZ(bestAlt))
	return bestAlt, w.UAV.OdometerM() - startOdo
}

// initREMs builds the per-UE REM set for this epoch: reuse a stored
// map when the UE's estimated position is within R of a previously
// mapped position, otherwise initialise from the free-space model at
// the estimated position (§3.5).
func (s *SkyRAN) initREMs(w *sim.World, ests []geom.Vec2) []*rem.Map {
	maps := make([]*rem.Map, len(ests))
	for i, est := range ests {
		if m := s.store.Lookup(est); m != nil {
			maps[i] = m
			continue
		}
		m := rem.New(w.Area(), s.cfg.REMCellM)
		est := est // capture
		alt := s.targetAlt
		m.FillFrom(func(cell geom.Vec2) float64 {
			return w.Radio.FSPLSNR(cell.WithZ(alt), est)
		})
		maps[i] = m
	}
	return maps
}

// aggregate returns the controller's aggregate performance metric at
// the UAV's current position: mean measured throughput across UEs.
func (s *SkyRAN) aggregate(w *sim.World) float64 {
	var sum float64
	for i := range w.UEs {
		sum += w.Num.ThroughputBps(w.MeasuredSNR(i))
	}
	if len(w.UEs) == 0 {
		return 0
	}
	return sum / float64(len(w.UEs))
}

// ShouldTrigger implements the dynamic epoch trigger of §3.5: true
// when the current aggregate performance has dropped more than
// triggerDrop below the value recorded at epoch start. The measurement
// is smoothed over a few reports to avoid reacting to fading.
func (s *SkyRAN) ShouldTrigger(w *sim.World) bool {
	if s.epoch == 0 || s.servingBase <= 0 {
		return true
	}
	var cur float64
	const n = 5
	for k := 0; k < n; k++ {
		cur += s.aggregate(w)
	}
	cur /= n
	return cur < s.servingBase*(1-triggerDrop)
}

// moveTo flies the UAV to the target position and blocks (in simulated
// time) until it arrives.
func moveTo(w *sim.World, target geom.Vec3) {
	w.UAV.SetRoute([]geom.Vec3{target})
	for !w.UAV.Hovering() {
		w.Step(1)
	}
}
