package radio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rem"
	"repro/internal/terrain"
)

// randomStack builds 1-6 same-geometry grids with random values.
func randomStack(rng *rand.Rand) []*geom.Grid {
	w := 20 + rng.Float64()*200
	h := 20 + rng.Float64()*200
	cell := 5 + rng.Float64()*20
	area := geom.NewRect(geom.V2(0, 0), geom.V2(w, h))
	k := 1 + rng.Intn(6)
	out := make([]*geom.Grid, k)
	for i := range out {
		g := geom.GridOver(area, cell)
		vals := g.Values()
		for j := range vals {
			vals[j] = -40 + rng.Float64()*90 // typical SNR range, dB
		}
		out[i] = g
	}
	return out
}

// TestREMAggregatesProperties checks, for random stacks of grids like
// the ground-truth REMs, that rem.ObjectiveMap's sum, min and mean
// preserve geometry, respect the
// cell-wise Min ≤ Mean ≤ Max ordering, satisfy Aggregate = k·Mean,
// and do not mutate their inputs.
func TestREMAggregatesProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rems := randomStack(rng)
		k := len(rems)
		before := make([][]float64, k)
		for i, r := range rems {
			before[i] = append([]float64(nil), r.Values()...)
		}

		agg, mn, mean := rem.ObjectiveMap(rems, rem.Sum, nil), rem.ObjectiveMap(rems, rem.MaxMin, nil), rem.ObjectiveMap(rems, rem.MaxMean, nil)
		for _, g := range []*geom.Grid{agg, mn, mean} {
			if g.NX != rems[0].NX || g.NY != rems[0].NY || g.Bounds() != rems[0].Bounds() {
				t.Log("geometry not preserved")
				return false
			}
		}
		for i := range agg.Values() {
			lo, hi := math.Inf(1), math.Inf(-1)
			sum := 0.0
			for _, r := range rems {
				v := r.Values()[i]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				sum += v
			}
			if mn.Values()[i] != lo {
				t.Logf("cell %d: min %v, want %v", i, mn.Values()[i], lo)
				return false
			}
			m := mean.Values()[i]
			if m < lo-1e-9 || m > hi+1e-9 {
				t.Logf("cell %d: mean %v outside [%v, %v]", i, m, lo, hi)
				return false
			}
			if math.Abs(agg.Values()[i]-sum) > 1e-9 ||
				math.Abs(agg.Values()[i]-m*float64(k)) > 1e-6 {
				t.Logf("cell %d: aggregate %v, sum %v, k·mean %v", i, agg.Values()[i], sum, m*float64(k))
				return false
			}
		}
		for i, r := range rems {
			for j, v := range r.Values() {
				if v != before[i][j] {
					t.Logf("input grid %d mutated at %d", i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestREMAggregatesEmpty pins the nil/empty contract: no grids, no map.
func TestREMAggregatesEmpty(t *testing.T) {
	for _, obj := range []rem.Objective{rem.Sum, rem.MaxMin, rem.MaxMean} {
		if rem.ObjectiveMap(nil, obj, nil) != nil {
			t.Errorf("%v of nil should be nil", obj)
		}
		if rem.ObjectiveMap([]*geom.Grid{}, obj, nil) != nil {
			t.Errorf("%v of empty slice should be nil", obj)
		}
	}
}

// TestREMAggregatesSingle checks the k=1 degenerate case: all three
// aggregates equal the input.
func TestREMAggregatesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomStack(rng)[:1]
	for name, got := range map[string]*geom.Grid{
		"aggregate": rem.ObjectiveMap(g, rem.Sum, nil),
		"min":       rem.ObjectiveMap(g, rem.MaxMin, nil),
		"mean":      rem.ObjectiveMap(g, rem.MaxMean, nil),
	} {
		for i, v := range got.Values() {
			if v != g[0].Values()[i] {
				t.Fatalf("%s of single grid differs at cell %d", name, i)
			}
		}
	}
}

// TestObstructionCacheEquivalence is the cache-correctness property:
// for random ray endpoints, the memoized Obstruction must return
// exactly what the uncached ray march computes — including on the
// second (cache-hit) call.
func TestObstructionCacheEquivalence(t *testing.T) {
	m := NewModel(terrain.Campus(3), DefaultParams(), 3)
	if m.obs == nil {
		t.Fatal("model has no obstruction cache")
	}
	b := m.Terrain.Bounds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := func() geom.Vec3 {
			return geom.V3(
				b.MinX+rng.Float64()*b.Width(),
				b.MinY+rng.Float64()*b.Height(),
				rng.Float64()*120)
		}
		a, c := p(), p()
		want := m.obstructionRay(a, c)
		if got := m.Obstruction(a, c); got != want {
			t.Logf("first call: got %v, want %v", got, want)
			return false
		}
		if got := m.Obstruction(a, c); got != want {
			t.Logf("cache hit: got %v, want %v", got, want)
			return false
		}
		if got := m.Uncached().Obstruction(a, c); got != want {
			t.Logf("uncached copy: got %v, want %v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if m.obs.len() == 0 {
		t.Error("cache empty after 200 memoized rays")
	}
}

// TestObstructionCacheSharedAcrossModels verifies the cross-model
// registry: two models over identical terrain and loss parameters
// share one cache (obstruction is shadowing-independent), while a
// different terrain gets its own.
func TestObstructionCacheSharedAcrossModels(t *testing.T) {
	tr := terrain.Campus(5)
	m1 := NewModel(tr, DefaultParams(), 1)
	m2 := NewModel(tr, DefaultParams(), 2)
	if m1.obs != m2.obs {
		t.Error("same terrain+params should share an obstruction cache across shadowing seeds")
	}
	m3 := NewModel(terrain.Campus(6), DefaultParams(), 1)
	if m1.obs == m3.obs {
		t.Error("different terrain content must not share a cache")
	}
}
