package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/fault"
	"repro/internal/traffic"
)

// servingChurn is the serving-phase fault schedule of the serving
// goldens: churn outages plus GTP-U loss and duplication.
func servingChurn() *fault.Schedule {
	return &fault.Schedule{UEChurnRate: 0.3, UEChurnOutS: 0.5, GTPULossRate: 0.05, GTPUDupRate: 0.05}
}

// TestServingResultGolden pins the SHA-256 of MarshalResult for the
// serving paths the controller and scale-up goldens leave uncovered: a
// mobile co-channel fleet (the fleet-4cell benchmark workload), a
// static co-channel fleet whose UEs hand over mid-phase under churn, a
// separate-carrier full-buffer fleet, a single UAV serving full buffer
// under churn, and a mobile full-buffer fleet that hands over. A change
// to the serving loop that moves a single bit shows here and needs a
// deliberate re-pin.
func TestServingResultGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"fleet-4cell", Spec{Terrain: "CAMPUS", UEs: 96, Cells: 4, MobilityMS: 3, Epochs: 2, ServeS: 3, Seed: 31,
			Traffic: &traffic.Spec{Model: traffic.ModelPoisson, RateBps: 1e5}},
			"3b0613514ee60aac58c316fab346367b367dd4a02ecf9afbb74e274942a413e6"},
		{"static-fleet-handover-churn", Spec{Terrain: "CAMPUS", UEs: 24, Cells: 3, Epochs: 2, ServeS: 2, Seed: 2,
			HandoverHysteresisDB: 0.01, HandoverTTTs: 0.02,
			Traffic: &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 5e5}, Faults: servingChurn()},
			"0e252e697e92d5b1ba9dc57df7c549bd4c6fe4d62ae95756f9c2774e9e991eb2"},
		{"separate-full-buffer", Spec{Terrain: "FLAT", UEs: 10, Cells: 2, Carriers: "separate", Epochs: 2, ServeS: 2, Seed: 8},
			"8b5d3d8a87eba53347a7f76dd37991c0e8ab5354e190f0e382ff921f2bcaf035"},
		{"single-uav-full-buffer-churn", Spec{Terrain: "FLAT", UEs: 6, Controller: "random", BudgetM: 200, Epochs: 2, ServeS: 2, Seed: 9,
			Faults: servingChurn()},
			"aa734a4d7434d14f1058bee40c54b9b91b28a901e5515a22f422708820948b32"},
		// Full-buffer phases time handovers on the running clock, packet
		// phases on start + s·tti; this case pins the former.
		{"mobile-fleet-full-buffer", Spec{Terrain: "FLAT", UEs: 8, Cells: 3, MobilityMS: 20, HandoverHysteresisDB: 1, HandoverTTTs: 0.1,
			Epochs: 2, ServeS: 5, Seed: 9},
			"8383bcb970dd8ea72c91fc2f37a3919bb59aa9af79457d6f5dc9f9316e284af7"},
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
