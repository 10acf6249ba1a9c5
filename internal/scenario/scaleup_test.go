package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/traffic"
)

// scaleUpGoldenSHA256 is the SHA-256 of MarshalResult for scaleUpSpec.
// Nothing in the simulation may move it: a change here is a change to
// the >200-UE placement rule, the scale-up world build or the serving
// path, and needs a deliberate re-pin.
const scaleUpGoldenSHA256 = "7341d4406e9f20b09e02a3dc133ffc67e2118b985424b40c696f73ecd5fb509a"

// scaleUpSpec is a 2000-UE random-controller scenario: past the 200-UE
// threshold, so placement runs at the shrunken separation
// sqrt(area/(4n)), and the single-cell serving loop runs saturated.
func scaleUpSpec() Spec {
	return Spec{Terrain: "FLAT", UEs: 2000, Controller: "random", BudgetM: 200, Epochs: 1, Seed: 5, ServeS: 1,
		Traffic: &traffic.Spec{Model: traffic.ModelOnOff, RateBps: 1e5}}
}

func TestScaleUpResultGolden(t *testing.T) {
	res, _, err := Run(context.Background(), scaleUpSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != scaleUpGoldenSHA256 {
		t.Fatalf("2000-UE scale-up result SHA-256 %s, golden %s", got, scaleUpGoldenSHA256)
	}
}
