// Stadium hotspot: the paper's capacity-augmentation use case (§1) —
// a dense pocket of users (topology B, Fig 22b) needs a temporary
// cell. Clustered UEs are exactly where the Uniform baseline wastes
// its budget and SkyRAN's location-aware probing shines; the example
// sweeps the measurement budget to reproduce the Fig 23b crossover,
// then serves the cluster from the chosen cell and prints each UE's
// round-robin rate.
package main

import (
	"fmt"
	"log"

	skyran "repro"
)

func main() {
	fmt.Println("== Stadium hotspot (CAMPUS terrain, 7 clustered UEs) ==")
	fmt.Println("budget_m  skyran_rel  uniform_rel")
	for _, budget := range []float64{200, 400, 800} {
		sky := runOnce(budget, true)
		uni := runOnce(budget, false)
		fmt.Printf("%7.0f   %9.2f   %10.2f\n", budget, sky, uni)
	}
	fmt.Println("\npaper Fig 23b: SkyRAN ≈2x Uniform at small budgets on the")
	fmt.Println("clustered topology, approaching 0.95 with budget.")

	// Serve the hotspot and print the spread of per-UE rates.
	sc, err := skyran.NewScenario(skyran.ScenarioConfig{
		Terrain: "CAMPUS", UEs: 7, Clustered: true, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl := skyran.NewController(skyran.ControllerConfig{Budget: 800, Seed: 3})
	res, err := ctrl.RunEpoch(sc.World)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserving the cluster from %s for 5 s:\n", res.Position)
	bits, err := sc.World.ServeSeconds(5, 10)
	if err != nil {
		log.Fatal(err)
	}
	var minR, maxR float64
	for i, b := range bits {
		r := b / 5 / 1e6
		if i == 0 || r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		fmt.Printf("  UE%d: %.1f Mbps\n", sc.World.UEs[i].ID, r)
	}
	fmt.Printf("round-robin fairness spread: %.1f-%.1f Mbps\n", minR, maxR)
}

func runOnce(budget float64, useSkyRAN bool) float64 {
	sc, err := skyran.NewScenario(skyran.ScenarioConfig{
		Terrain: "CAMPUS", UEs: 7, Clustered: true, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	var ctrl skyran.Controller
	if useSkyRAN {
		ctrl = skyran.NewController(skyran.ControllerConfig{Budget: budget, Altitude: 35, Seed: 3})
	} else {
		ctrl = skyran.NewUniformBaselineAt(budget, 35)
	}
	res, err := ctrl.RunEpoch(sc.World)
	if err != nil {
		log.Fatal(err)
	}
	return sc.RelativeThroughput(res.Position)
}
