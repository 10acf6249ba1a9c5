package main

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// Scenario seeds. A run with --seed S uses the consecutive scenario
// seeds S, S+1, ...: a timed pass as many as its workload's seeds, and a
// traced pass tracedSeedCount. Job cost and simulated outcomes differ
// from seed to seed by 10% and more, so an in-process timed pass uses
// as many seeds as one pass over them takes about a run's length, and
// most of its jobs run a seed for the first time, as a user's would.
// The daemon workload cycles eight: every seed it uses costs an
// in-process reference run before the daemon starts.
const tracedSeedCount = 4

// workload is one benchmark workload: a scenario template and how the
// load reaches it. The template's Seed is filled per job.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same text.
	why string
	// daemon selects the open-loop HTTP load against a real skyrand;
	// the other workloads run scenario.Run in-process in a closed loop.
	daemon bool
	// seeds is how many scenario seeds the timed pass uses.
	seeds int
	// template is the full-size scenario and small its smoke-test
	// reduction, which keeps the same layers busy at a fraction of the
	// cost.
	template, small scenario.Spec
	// checkProfile enables the traced-pass check that localization plus
	// REM interpolation take at least half of the controller's epoch.
	checkProfile bool
}

func onoff(rateBps float64) *traffic.Spec {
	return &traffic.Spec{Model: traffic.ModelOnOff, RateBps: rateBps}
}

var workloads = []workload{
	{
		name:         "ctrl-5ue",
		why:          "SkyRAN controller dominates: localization solve and REM IDW; serving is ~0.1% of the job",
		template:     scenario.Spec{Terrain: "FLAT", UEs: 5, Controller: "skyran", BudgetM: 200, Epochs: 2, ServeS: 1, Traffic: onoff(3e6)},
		small:        scenario.Spec{Terrain: "FLAT", UEs: 3, Controller: "skyran", BudgetM: 100, Epochs: 1, ServeS: 0.5, Traffic: onoff(3e6)},
		seeds:        12,
		checkProfile: true,
	},
	{
		name:     "serve-10k",
		seeds:    8,
		why:      "10k UEs, random placement: world build and the single-cell TTI loop dominate; cell saturated",
		template: scenario.Spec{Terrain: "FLAT", UEs: 10000, Controller: "random", BudgetM: 200, Epochs: 1, ServeS: 1, Traffic: onoff(1e5)},
		small:    scenario.Spec{Terrain: "FLAT", UEs: 300, Controller: "random", BudgetM: 200, Epochs: 1, ServeS: 0.5, Traffic: onoff(1e5)},
	},
	{
		name:  "fleet-4cell",
		seeds: 16,
		why:   "4 co-channel cells, mobile UEs: fleet placement, per-TTI SINR penalty and A3 handovers",
		template: scenario.Spec{Terrain: "CAMPUS", UEs: 96, Cells: 4, MobilityMS: 3, Epochs: 2, ServeS: 3,
			Traffic: &traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e5}},
		small: scenario.Spec{Terrain: "CAMPUS", UEs: 16, Cells: 2, MobilityMS: 3, Epochs: 1, ServeS: 1,
			Traffic: &traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e5}},
	},
	{
		name:   "daemon-openloop",
		why:    "skyrand over HTTP, seeded Poisson arrivals: queue wait, JSON, job journal and checkpoint fsync",
		daemon: true,
		seeds:  8,
		// Two UEs keep a job near 0.4 s, so that a run's open loop holds
		// about 30 jobs; with three a job takes 0.65 s and a run half as
		// many.
		template: scenario.Spec{Terrain: "FLAT", UEs: 2, Controller: "skyran", BudgetM: 200, Epochs: 1, ServeS: 1, Traffic: onoff(1e6)},
		small:    scenario.Spec{Terrain: "FLAT", UEs: 2, Controller: "skyran", BudgetM: 100, Epochs: 1, ServeS: 0.5, Traffic: onoff(1e6)},
	},
}

// workloadByName looks a workload up by its BENCHMARK.json name.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spec returns the workload's normalized scenario for one seed. The
// traffic section is copied, so jobs never share a *traffic.Spec.
func (w workload) spec(seed int64, small bool) scenario.Spec {
	s := w.template
	if small {
		s = w.small
	}
	if s.Traffic != nil {
		t := *s.Traffic
		s.Traffic = &t
	}
	s.Seed = seed
	if err := s.Normalize(); err != nil {
		panic(fmt.Sprintf("workload %s: template does not normalize: %v", w.name, err))
	}
	return s
}

// timedSeeds is how many scenario seeds the workload's timed pass uses.
func (w workload) timedSeeds(small bool) int {
	if small {
		return smokeSeeds
	}
	return w.seeds
}

// tracedSeeds is how many scenario seeds a traced pass uses.
func tracedSeeds(small bool) int {
	if small {
		return smokeSeeds
	}
	return tracedSeedCount
}

// seedSet returns the n scenario seeds from base.
func seedSet(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}
