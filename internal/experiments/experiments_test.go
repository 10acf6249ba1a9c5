package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/terrain"
)

func quickOpts() Options { return Options{Seeds: 1, Quick: true} }

func TestReportRendering(t *testing.T) {
	r := &Report{
		Figure: "Fig X",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	r.AddRow("1", "2")
	r.Note("hello %d", 7)
	s := r.String()
	for _, want := range []string{"Fig X", "a", "bb", "hello 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered report missing %q:\n%s", want, s)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig20"); !ok {
		t.Error("fig20 should exist")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("fig99 should not exist")
	}
	// All IDs unique.
	seen := map[string]bool{}
	for _, s := range All {
		if seen[s.ID] {
			t.Errorf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil {
			t.Errorf("%s has no runner", s.ID)
		}
	}
}

func TestHelpers(t *testing.T) {
	tr := terrain.Campus(1)
	ues := uniformUEs(tr, 5, 1)
	if len(ues) != 5 {
		t.Fatal("uniform placement")
	}
	for _, u := range ues {
		if !tr.IsOpen(u.Pos) {
			t.Errorf("UE %d on closed ground", u.ID)
		}
	}
	cl := clusteredUEs(tr, 5, 1)
	spread := 0.0
	c := geom.Centroid([]geom.Vec2{cl[0].Pos, cl[1].Pos, cl[2].Pos, cl[3].Pos, cl[4].Pos})
	for _, u := range cl {
		spread += u.Pos.Dist(c)
	}
	if spread/5 > 80 {
		t.Errorf("cluster spread %.1f too wide", spread/5)
	}
	cp := clonedUEs(ues)
	cp[0].Pos = geom.V2(0, 0)
	if ues[0].Pos == (geom.V2(0, 0)) {
		t.Error("clonedUEs shares state")
	}
}

// The per-figure smoke tests run each harness at minimum scale, check
// structural validity and compare the report's bytes with its pin; the
// shape assertions against the paper live in shape_test.go (skipped in
// -short).

// reportPins holds the SHA-256 of each harness's Report.String()
// (title, rows and notes) at quickOpts(). The pins record bytes, not
// paper shapes: any change to the shared scoring, placement or
// propagation arithmetic that moves a single figure digit shows here.
// Options.Workers 0 follows GOMAXPROCS and rows never depend on the
// worker count, so the pins hold under every -cpu. A change that moves
// a figure on purpose re-pins it in a commit of its own, with a note of
// which KPIs moved and why.
var reportPins = map[string]string{
	"fig01":          "b68820117e67dcfb903f0ef0a32ff480127431552c49dedc5a5393ed2f35d1fd",
	"fig04":          "b9647f23e3a799e2825c0fe972c0acba845ebe9b232b9b25fd06c6c0b14f2630",
	"fig06":          "bf3cbfe7d4e9b59eb217476f58c9df992a6ec4b3b00c464fadc3a5745ed2c5e8",
	"fig07":          "7bb6676b7a558c291bc2ffdf9671ca1238970232ec9fe1131db29f5ad4bc7801",
	"fig08":          "44d8153e48b2bb3b843215939b808180983e677490916be7c065ce01072e2de9",
	"fig09":          "0a3ba215158a33e0d53364f288e80a9589e807434c104e731c0c7dd0d056d551",
	"fig12":          "7110bbb7b09a38ef654a1abd3864b385ce6196188a6a7e29a77875625fffeed8",
	"fig17":          "61928960065e0d8c753b6d4b8de645368b98ab20e9538d3c31240518b56bf631",
	"fig18":          "c6e9d8a4d1d74a17f8914d1105092e10b22b98d127fb934f8ac8ee89f1218fb0",
	"fig19":          "6891c79155dcba4bfc1cd31b5e15a5de14c471edb23aff989f23637bcfb4dd26",
	"fig20":          "3b351ded4df56099f7825ea72f8b18747c0d64416acb3985c9c6edb74766dc8b",
	"fig21":          "f9dd3f13da31098017cf0b0d5edcbcda8ac9c1df454dfae792f558c134a69f4d",
	"fig23":          "245279551e8b7186de70568904ad1132b2a667ceec6c1f487eb287c2c6ba5c6d",
	"fig24":          "6721f215933a620c59cc13381a3e8f845ba5b6ee11aea79ba4863f0e79ba3fd1",
	"fig26":          "1a3869dfbfdf56b81a83c78ca0f5d1963ad6f21c82f069770497bef56be411bb",
	"fig27":          "5c1f8f6bef7df4c051cf737f00ffe7c69849fa32e62cb185e3919bbf4cc2592c",
	"fig28":          "4794e90bac0dd996f58f87137ba51c01f2d78004dc93865010e2d0c3c10be8d9",
	"fig29":          "a6889b6d9a94c99ad6865c457a1efab27c5bc1fea33aca6fe7b2bf441eb19c3f",
	"fig30":          "b7bc7b02a3b0b34ded755cde56b2e23a222bc4dd30b0f1f15de7f68b0c7c68e1",
	"fig31":          "ae94d2afb15187cabf8b9feccdf395f45411f8cbfa50a91cfab2a34d944de467",
	"ext-multiuav":   "fa5e1c5c961260e12f95e815bc8b17d79db2aa30473ec91092876dee828da4fe",
	"abl-interp":     "f3b56f84fb136c4df9119213094a40b6e4514a65f6d272b65e5af94f50799cc9",
	"abl-local":      "caf89bf83a61407b1816cc7b315605f389d83e4f34809967bcd00e76fa3ff2b6",
	"abl-mask":       "9d83ee06b599b71f5f48e387f3bdf13ec63145cb0b0733cb711cafacbac5caca",
	"abl-planner":    "e3debfeb10121960774d01ec45198830b9f7f1b0c097254eaa7856a7e27950f5",
	"ext-uemobility": "c972c2dded366aa1f781c69f08350c12d96b62fce51f652296fff61ce89ccdc4",
	"ext-tputmap":    "c75afe547eff3c2db5563600a59469ecb10b1641debb6e2561c7b6e35f270d50",
	"ext-fig14":      "698d12f772da089733a22f8ddda90575d42053edf0c056fee138865824b04af6",
	"abl-antenna":    "61c87ef0abc64b3d1d92791aa8ada436a6abc7ff2ec33e678309dabf515418e5",
}

// checkPin compares r's bytes with the pin recorded for id.
func checkPin(t *testing.T, id string, r *Report) {
	t.Helper()
	sum := sha256.Sum256([]byte(r.String()))
	got := hex.EncodeToString(sum[:])
	want, ok := reportPins[id]
	if !ok {
		t.Fatalf("%s: no pin for report SHA-256 %s", id, got)
	}
	if got != want {
		t.Fatalf("%s: report SHA-256 %s, pinned %s; report:\n%s", id, got, want, r)
	}
}

func runFig(t *testing.T, id string) *Report {
	t.Helper()
	spec, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown figure %s", id)
	}
	r, err := spec.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("%s: row width %d != header %d", id, len(row), len(r.Header))
		}
	}
	checkPin(t, id, r)
	return r
}

func TestFig01Smoke(t *testing.T) { runFig(t, "fig01") }
func TestFig04Smoke(t *testing.T) { runFig(t, "fig04") }
func TestFig06Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig06")
}
func TestFig07Smoke(t *testing.T) { runFig(t, "fig07") }
func TestFig08Smoke(t *testing.T) { runFig(t, "fig08") }
func TestFig09Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig09")
}
func TestFig12Smoke(t *testing.T) { runFig(t, "fig12") }
func TestFig17Smoke(t *testing.T) { runFig(t, "fig17") }
func TestFig18Smoke(t *testing.T) { runFig(t, "fig18") }
func TestFig19Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig19")
}
func TestFig20Smoke(t *testing.T) { runFig(t, "fig20") }
func TestFig21Smoke(t *testing.T) { runFig(t, "fig21") }
func TestFig23Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig23")
}
func TestFig24Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig24")
}
func TestFig26Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig26")
}
func TestFig27Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig27")
}
func TestFig28Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig28")
}
func TestFig29Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig29")
}
func TestFig30Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig30")
}
func TestFig31Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runFig(t, "fig31")
}

func runExt(t *testing.T, id string) *Report {
	t.Helper()
	spec, ok := ExtensionByID(id)
	if !ok {
		t.Fatalf("unknown extension %s", id)
	}
	r, err := spec.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s: no rows", id)
	}
	checkPin(t, id, r)
	return r
}

func TestExtensionsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Extensions {
		if seen[s.ID] {
			t.Errorf("duplicate extension id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil {
			t.Errorf("%s has no runner", s.ID)
		}
		if _, clash := ByID(s.ID); clash {
			t.Errorf("extension id %s clashes with a figure", s.ID)
		}
	}
	if _, ok := ExtensionByID("nope"); ok {
		t.Error("unknown extension should miss")
	}
}

func TestExtMultiUAVSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "ext-multiuav")
}

func TestAblInterpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "abl-interp")
}

func TestAblLocalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "abl-local")
}

func TestAblMaskSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "abl-mask")
}

func TestAblPlannerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "abl-planner")
}

func TestExtUEMobilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "ext-uemobility")
}

func TestExtThroughputMapSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "ext-tputmap")
}

func TestExtFig14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "ext-fig14")
}

func TestAblAntennaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short")
	}
	runExt(t, "abl-antenna")
}
