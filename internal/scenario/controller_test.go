package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/traffic"
)

// ctrlSpec is the 5-UE SkyRAN controller scenario the benchmark's
// ctrl-5ue workload runs: a localization flight, the joint offset
// multilateration, per-UE REM interpolation and max-min placement
// dominate it.
func ctrlSpec(seed int64) Spec {
	return Spec{Terrain: "FLAT", UEs: 5, Controller: "skyran", BudgetM: 200, Epochs: 2, ServeS: 1, Seed: seed,
		Traffic: &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 3e6}}
}

// TestControllerResultGolden pins the SHA-256 of MarshalResult for the
// controller path: SolveJoint with the offset prior (seeds 41 and 42)
// and, under SRS outliers, SolveJointRobust's MAD gate and refit. A
// change to the localization solver, the REM interpolation or the
// placement that moves a single bit shows here and needs a deliberate
// re-pin.
func TestControllerResultGolden(t *testing.T) {
	robust := ctrlSpec(41)
	robust.Faults = &fault.Schedule{SRSOutlierRate: 0.1}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"seed41", ctrlSpec(41), "d7e4e45811d070e8a116ab5a1e64b2b6fb66b21014c25de4a1238389f8676d8d"},
		{"seed42", ctrlSpec(42), "0a2c5ad2095a7aca5900034b516331d7dcb0850f7681f17cfea6cc84f9d496e4"},
		{"seed41-srs-outliers", robust, "6757fe2646408ed5aefd56d73f977d19d8c1fa746fb2c26ecd54775af51b52d9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, _, err := Run(context.Background(), tc.spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("result SHA-256 %s, golden %s", got, tc.want)
			}
		})
	}
}

// The oracle is the optimum every epoch is scored against (§4.2): it
// parks at the ground-truth mean-throughput optimum, so each of its
// epochs — the second after half the UEs relocated — reads a relative
// throughput of 1 at the optimal position.
func TestOracleEpochsScoreOptimal(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		spec := Spec{Terrain: "NYC", UEs: 6, Controller: "oracle", Epochs: 2, Seed: seed}
		res, _, err := Run(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Epochs {
			if math.Abs(e.RelativeThroughput-1) > 1e-12 {
				t.Errorf("seed %d epoch %d: oracle relative throughput %v, want 1", seed, e.Epoch, e.RelativeThroughput)
			}
			if e.Position.XY() != e.OptimalPos {
				t.Errorf("seed %d epoch %d: oracle at %v, optimum at %v", seed, e.Epoch, e.Position.XY(), e.OptimalPos)
			}
		}
	}
}
