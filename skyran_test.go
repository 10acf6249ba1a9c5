package skyran

import (
	"strings"
	"testing"
)

func TestNewScenarioDefaults(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.World.Terrain.Name != "CAMPUS" {
		t.Errorf("default terrain = %s", sc.World.Terrain.Name)
	}
	if len(sc.World.UEs) != 1 {
		t.Errorf("default UE count = %d", len(sc.World.UEs))
	}
}

func TestNewScenarioUnknownTerrain(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{Terrain: "MOON"}); err == nil {
		t.Error("unknown terrain should fail")
	}
}

// More UEs than fit 15 m apart on FLAT's open ground are an error, not
// a panic.
func TestNewScenarioUnplaceableUEs(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{Terrain: "FLAT", UEs: 150, Seed: 1}); err == nil || !strings.Contains(err.Error(), "cannot place UE") {
		t.Errorf("err = %v, want a placement error", err)
	}
}

func TestNewScenarioExplicitPlacement(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{
		Terrain: "FLAT",
		Place:   []Vec2{V2(10, 10), V2(100, 100)},
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.World.UEs) != 2 || sc.World.UEs[1].Pos != V2(100, 100) {
		t.Error("explicit placement not honoured")
	}
}

func TestScenarioEndToEnd(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{Terrain: "CAMPUS", UEs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Budget: 500, Altitude: 60, Seed: 3})
	res, err := ctrl.RunEpoch(sc.World)
	if err != nil {
		t.Fatal(err)
	}
	rel := sc.RelativeThroughput(res.Position)
	if rel <= 0 || rel > 1 {
		t.Errorf("relative throughput = %v", rel)
	}
	errs := sc.LocalizationErrors(res.UEEstimates)
	if len(errs) != 5 {
		t.Errorf("localization errors = %d", len(errs))
	}
	pos, val := sc.OptimalPosition(60)
	if val <= 0 || !sc.World.Area().Contains(pos) {
		t.Errorf("optimal position %v value %v", pos, val)
	}
}

func TestBaselineConstructors(t *testing.T) {
	for _, c := range []Controller{
		NewUniformBaseline(500),
		NewCentroidBaseline(1),
		NewOracle(),
	} {
		if c.Name() == "" {
			t.Error("controller without a name")
		}
	}
}

func TestFiguresRegistry(t *testing.T) {
	if len(Figures()) != 20 {
		t.Errorf("figures = %d, want 20", len(Figures()))
	}
	r, err := RunFigure("fig07", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "Fig 7") {
		t.Error("figure report missing title")
	}
	if _, err := RunFigure("nope", 1, true); err == nil {
		t.Error("unknown figure should fail")
	}
}

func TestMobileScenario(t *testing.T) {
	sc, err := NewScenario(ScenarioConfig{Terrain: "FLAT", UEs: 3, Seed: 4, Mobile: true})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]Vec2, len(sc.World.UEs))
	for i, u := range sc.World.UEs {
		before[i] = u.Pos
	}
	sc.World.Step(120)
	moved := false
	for i, u := range sc.World.UEs {
		if u.Pos != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Error("mobile UEs never moved")
	}
}
