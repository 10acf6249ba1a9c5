// Urban multi-epoch operation: a SkyRAN UAV serves a Manhattan-style
// canyon grid while UEs wander. The dynamic epoch trigger (§3.5)
// decides when aggregate performance has degraded enough to justify a
// new probing flight, and the REM store keeps re-probing cheap for
// UEs that return to previously mapped spots.
package main

import (
	"fmt"
	"log"

	skyran "repro"
)

func main() {
	fmt.Println("== Dense-urban multi-epoch run (NYC, 6 mobile UEs) ==")

	sc, err := skyran.NewScenario(skyran.ScenarioConfig{
		Terrain:        "NYC",
		UEs:            6,
		Seed:           11,
		StreetMobility: true, // pedestrians following the street grid
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl := skyran.NewController(skyran.ControllerConfig{Budget: 600, Altitude: 60, Seed: 11})

	const horizonMin = 30
	served := 0.0
	epochs := 0
	for minute := 0; minute < horizonMin; {
		if ctrl.ShouldTrigger(sc.World) {
			res, err := ctrl.RunEpoch(sc.World)
			if err != nil {
				log.Fatal(err)
			}
			epochs++
			fmt.Printf("t=%2d min: epoch %d -> %s (probing %.0f m, store holds %d REMs)\n",
				minute, epochs, res.Position, res.LocalizationM+res.MeasurementM, ctrl.Store().Len())
			// Probing costs flight time.
			minute += int(res.TotalFlightS/60) + 1
			continue
		}
		// Serve for one minute of simulated time while UEs walk.
		bits, err := sc.World.ServeSeconds(10, 10) // 10 s of scheduler, scaled
		if err != nil {
			log.Fatal(err)
		}
		var total float64
		for _, b := range bits {
			total += b
		}
		served += total * 6 // extrapolate the 10 s sample to the minute
		sc.World.Step(50)   // remaining wall-clock: UEs keep moving
		minute++
		if minute%5 == 0 {
			rel := sc.RelativeThroughput(sc.World.UAV.Position())
			fmt.Printf("t=%2d min: serving, relative throughput now %.2f\n", minute, rel)
		}
	}
	fmt.Printf("\n%d epochs over %d minutes; %.1f Gbit served; battery %.0f%% left\n",
		epochs, horizonMin, served/1e9, 100*sc.World.UAV.EnergyFraction())
	fmt.Println("paper Fig 12: a 10% degradation trigger yields ~10 min epochs.")
}
