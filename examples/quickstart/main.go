// Quickstart: run one SkyRAN epoch on the campus testbed and print
// where the UAV decided to serve from, how much probing it cost, and
// how close to optimal the placement is.
package main

import (
	"fmt"
	"log"

	skyran "repro"
)

func main() {
	// A 300 m × 300 m campus with 6 UEs on open ground.
	sc, err := skyran.NewScenario(skyran.ScenarioConfig{
		Terrain: "CAMPUS",
		UEs:     6,
		Seed:    42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The SkyRAN controller: localization flight → altitude search →
	// gradient-guided measurement flight → REM estimation → max-min
	// placement.
	ctrl := skyran.NewController(skyran.ControllerConfig{Budget: 800, Seed: 42})
	res, err := ctrl.RunEpoch(sc.World)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("serving position: %s (target altitude %.0f m)\n", res.Position, ctrl.TargetAltitude())
	fmt.Printf("probing cost: %.0f m localization + %.0f m measurement = %.0f s of flight\n",
		res.LocalizationM, res.MeasurementM, res.TotalFlightS)

	errs := sc.LocalizationErrors(res.UEEstimates)
	fmt.Printf("localization errors (m):")
	for _, e := range errs {
		fmt.Printf(" %.1f", e)
	}
	fmt.Println()

	rel := sc.RelativeThroughput(res.Position)
	fmt.Printf("relative throughput vs ground-truth optimum: %.2f (paper: 0.90-0.95)\n", rel)

	// Serve traffic for a few seconds through the onboard LTE stack.
	bits, err := sc.World.ServeSeconds(3, 10)
	if err != nil {
		log.Fatal(err)
	}
	var total float64
	for i, b := range bits {
		fmt.Printf("UE%d served %.1f Mbps\n", sc.World.UEs[i].ID, b/3/1e6)
		total += b
	}
	fmt.Printf("cell aggregate: %.1f Mbps\n", total/3/1e6)
}
