package skyran

// One benchmark per paper table/figure: each bench runs the figure's
// reproduction harness at reduced Monte-Carlo scale and reports both
// wall time and the harness's own figures of merit. Regenerate the
// full-scale numbers with:
//
//	go run ./cmd/experiments -all -seeds 5
//
// The benches double as end-to-end regression checks that every
// harness still produces rows.

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

func benchFigure(b *testing.B, id string) {
	spec, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	opts := experiments.Options{Seeds: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := spec.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig01PositionValue(b *testing.B)      { benchFigure(b, "fig01") }
func BenchmarkFig04ModelVsData(b *testing.B)        { benchFigure(b, "fig04") }
func BenchmarkFig06ProbingFraction(b *testing.B)    { benchFigure(b, "fig06") }
func BenchmarkFig07PathlossSegment(b *testing.B)    { benchFigure(b, "fig07") }
func BenchmarkFig08AltitudeSweep(b *testing.B)      { benchFigure(b, "fig08") }
func BenchmarkFig09LocalizationImpact(b *testing.B) { benchFigure(b, "fig09") }
func BenchmarkFig12EpochDecay(b *testing.B)         { benchFigure(b, "fig12") }
func BenchmarkFig17RangingCDF(b *testing.B)         { benchFigure(b, "fig17") }
func BenchmarkFig18LocalizationCDF(b *testing.B)    { benchFigure(b, "fig18") }
func BenchmarkFig19FlightLength(b *testing.B)       { benchFigure(b, "fig19") }
func BenchmarkFig20REMvsTime(b *testing.B)          { benchFigure(b, "fig20") }
func BenchmarkFig21Centroid(b *testing.B)           { benchFigure(b, "fig21") }
func BenchmarkFig23BudgetSweep(b *testing.B)        { benchFigure(b, "fig23") }
func BenchmarkFig24REMTopology(b *testing.B)        { benchFigure(b, "fig24") }
func BenchmarkFig26StaticDynamic(b *testing.B)      { benchFigure(b, "fig26") }
func BenchmarkFig27TerrainOverhead(b *testing.B)    { benchFigure(b, "fig27") }
func BenchmarkFig28REMOverhead(b *testing.B)        { benchFigure(b, "fig28") }
func BenchmarkFig29BudgetTerrain(b *testing.B)      { benchFigure(b, "fig29") }
func BenchmarkFig30REMTerrain(b *testing.B)         { benchFigure(b, "fig30") }
func BenchmarkFig31UEScaling(b *testing.B)          { benchFigure(b, "fig31") }

// BenchmarkParallelSeeds measures the Monte-Carlo engine's scaling:
// the same mid-weight figure (Fig 20, a sweepSeeds harness running two
// controllers per task) at 1 and 8 workers. On a multi-core host the
// 8-worker run should finish several times faster with byte-identical
// rows; on a single core the two are equivalent.
func BenchmarkParallelSeeds(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := experiments.Options{Seeds: 3, Quick: true, Workers: workers}
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunFig20(opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.Rows) == 0 {
					b.Fatal("fig20 produced no rows")
				}
			}
		})
	}
}

// BenchmarkEpochSkyRAN measures one full SkyRAN epoch (localization +
// altitude search skipped via fixed altitude + planning + measurement
// + placement) on the campus scenario — the controller's hot path.
func BenchmarkEpochSkyRAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := NewScenario(ScenarioConfig{Terrain: "CAMPUS", UEs: 6, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ctrl := NewController(ControllerConfig{Budget: 600, Altitude: 60, Seed: int64(i)})
		if _, err := ctrl.RunEpoch(sc.World); err != nil {
			b.Fatal(err)
		}
	}
}
