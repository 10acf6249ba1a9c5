package core

import (
	"context"
	"fmt"

	"repro/internal/detrand"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/sim"
	"repro/internal/terrain"
	"repro/internal/traj"
	"repro/internal/ue"
)

// Fleet coordinates several SkyRAN UAVs over one operating area — the
// multi-UAV deployment sketched in §7/§8 of the paper. The area's UEs
// are partitioned into sectors by K-means over their positions; each
// UAV runs an independent SkyRAN controller over its sector's UEs,
// while all controllers share one REM store so maps measured by any
// UAV benefit the others. The probing epochs assume the members fly on
// separate carriers; co-channel fleets, with the RB-level interference
// and the handovers it causes, are sim.MultiCell's.
//
// Each UAV flies concurrently in wall-clock terms: the fleet's probing
// overhead is the maximum over its members, not the sum.
type Fleet struct {
	cfg     Config
	nUAVs   int
	terrain *terrain.Surface
	seed    uint64
	shared  *rem.Store
	fast    bool
	partRNG *detrand.Rand
}

// FleetResult aggregates one fleet epoch.
type FleetResult struct {
	// PerUAV holds each member's epoch result, index-aligned with the
	// sector partition.
	PerUAV []EpochResult
	// Sectors holds the UE sets assigned to each UAV.
	Sectors [][]*ue.UE
	// MaxFlightS is the wall-clock probing overhead (members fly in
	// parallel).
	MaxFlightS float64
	// Worlds exposes the per-sector worlds for evaluation.
	Worlds []*sim.World
}

// NewFleet builds a fleet of n UAVs over the given terrain. cfg is the
// per-member controller configuration (the shared store is installed
// automatically).
func NewFleet(n int, t *terrain.Surface, cfg Config, seed uint64, fastRanging bool) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: fleet needs at least 1 UAV")
	}
	cfg.defaults()
	return &Fleet{
		cfg:     cfg,
		nUAVs:   n,
		terrain: t,
		seed:    seed,
		shared:  rem.NewStore(reuseRadiusM),
		fast:    fastRanging,
		partRNG: detrand.New(int64(seed) + 41),
	}, nil
}

// RunEpoch partitions the UEs into sectors and runs one SkyRAN epoch
// per sector. Sector worlds share the terrain, radio seed and UE
// subsets, so propagation is identical to a single-world simulation of
// the same links.
func (f *Fleet) RunEpoch(ues []*ue.UE) (*FleetResult, error) {
	return f.RunEpochCtx(context.Background(), ues)
}

// RunEpochCtx is RunEpoch with cooperative cancellation. Sector epochs
// fan out over the deterministic parallel engine (Config.Workers
// bounds the concurrency; members fly concurrently in the real
// deployment anyway): every member starts from a snapshot of the
// epoch-start shared store — a concurrently-flying UAV cannot see maps
// its peers are still measuring — and the members' new maps are merged
// back in sector order once all have landed. Per-sector results and
// the merged store are therefore byte-identical at any worker count.
func (f *Fleet) RunEpochCtx(ctx context.Context, ues []*ue.UE) (*FleetResult, error) {
	if len(ues) == 0 {
		return nil, fmt.Errorf("core: fleet epoch without UEs")
	}
	k := f.nUAVs
	if k > len(ues) {
		k = len(ues)
	}
	// Partition by K-means over true positions' rough estimates (in a
	// real deployment this comes from the previous epoch's shared
	// localization; at bootstrap a coarse fleet-wide localization
	// flight would provide it — we accept the UE positions as the
	// partition input since partitioning only needs coarse geometry).
	pts := make([]geom.Vec2, len(ues))
	for i, u := range ues {
		pts[i] = u.Pos
	}
	centers := traj.KMeans(pts, k, f.partRNG.Rand)
	assign := traj.AssignClusters(pts, centers)
	sectors := make([][]*ue.UE, k)
	for i, u := range ues {
		sectors[assign[i]] = append(sectors[assign[i]], ue.New(u.ID, u.Pos))
	}

	base := f.shared.Snapshot()
	type sectorOut struct {
		er EpochResult
		w  *sim.World
	}
	outs, err := engine.ParallelMap(engine.WorkerCount(f.cfg.Workers), k, func(s int) (sectorOut, error) {
		sector := sectors[s]
		if len(sector) == 0 {
			return sectorOut{}, nil
		}
		w, err := sim.New(sim.Config{
			Terrain:     f.terrain,
			Seed:        f.seed, // same radio environment for every member
			FastRanging: f.fast,
		}, sector)
		if err != nil {
			return sectorOut{}, fmt.Errorf("core: fleet sector %d: %w", s, err)
		}
		cfg := f.cfg
		cfg.Seed = f.cfg.Seed + int64(s)*1000
		ctrl := newSkyRAN(cfg, base.Snapshot())
		er, err := ctrl.RunEpochCtx(ctx, w)
		if err != nil {
			return sectorOut{}, fmt.Errorf("core: fleet sector %d epoch: %w", s, err)
		}
		return sectorOut{er: er, w: w}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &FleetResult{Sectors: sectors}
	for _, o := range outs {
		res.PerUAV = append(res.PerUAV, o.er)
		res.Worlds = append(res.Worlds, o.w)
		if t := o.er.TotalFlightS; t > res.MaxFlightS {
			res.MaxFlightS = t
		}
		// Merge the member's contributions into the fleet store in
		// sector order (newer sectors win within the reuse radius, as
		// the sequential loop's Puts did).
		for i, m := range o.er.REMs {
			if m != nil && i < len(o.er.UEEstimates) {
				f.shared.Put(o.er.UEEstimates[i], m)
			}
		}
	}
	return res, nil
}

// MeanRelativeThroughput scores the fleet placement: for each sector,
// average UE throughput from its UAV relative to the sector's own
// optimum, averaged over sectors weighted by UE count.
func (r *FleetResult) MeanRelativeThroughput(evalCell float64) float64 {
	var sum, n float64
	for s, w := range r.Worlds {
		if w == nil || len(r.Sectors[s]) == 0 {
			continue
		}
		pos := r.PerUAV[s].Position
		_, best := BestPosition(w, pos.Z, evalCell, rem.MaxMean)
		if best <= 0 {
			continue
		}
		rel := w.AvgThroughputAt(pos) / best
		if rel > 1 {
			rel = 1
		}
		weight := float64(len(r.Sectors[s]))
		sum += rel * weight
		n += weight
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
