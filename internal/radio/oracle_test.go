package radio

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/terrain"
)

// This file keeps the ray march before its ceiling trim — every sample
// from 1 to n−1 looks up its cell — as the oracle the trimmed march
// must match bit for bit.

func (m *Model) oracleObstructionRay(a, b geom.Vec3) float64 {
	d := b.Sub(a)
	length := d.Norm()
	if length < 1e-9 {
		return 0
	}
	step := m.Params.RayStepM
	n := int(length/step) + 1
	var loss float64
	inv := 1 / float64(n)
	for i := 1; i < n; i++ { // skip the endpoints themselves
		t := float64(i) * inv
		x := a.X + d.X*t
		y := a.Y + d.Y*t
		z := a.Z + d.Z*t
		ci := m.cellIndex(x, y)
		if z < m.height[ci] {
			switch m.material[ci] {
			case terrain.Building:
				loss += m.Params.BuildingLossDBPerM * step
			case terrain.Foliage:
				loss += m.Params.FoliageLossDBPerM * step
			default:
				loss += m.Params.BuildingLossDBPerM * step
			}
			if loss >= m.Params.MaxObstructionDB {
				return m.Params.MaxObstructionDB
			}
		}
	}
	return loss
}

// esriSurface imports a 160 m × 120 m DSM off the origin: sloped open
// ground, blocks of buildings 6–30 m tall and scattered NODATA cells.
func esriSurface(t testing.TB) *terrain.Surface {
	const nx, ny = 80, 60
	var sb strings.Builder
	fmt.Fprintf(&sb, "ncols %d\nnrows %d\nxllcorner 500\nyllcorner -120\ncellsize 2\nNODATA_value -9999\n", nx, ny)
	for r := 0; r < ny; r++ {
		for c := 0; c < nx; c++ {
			h := 3 + 0.05*float64(c)
			switch {
			case (c*13+r*7)%41 == 0:
				h = -9999
			case (c/10+r/10)%3 == 0:
				h += 6 + float64((c*7+r*3)%25)
			}
			fmt.Fprintf(&sb, "%.2f ", h)
		}
		sb.WriteByte('\n')
	}
	s, err := terrain.ReadESRI("ESRI", strings.NewReader(sb.String()), 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestObstructionRayMatchesOracle: on the five standard terrains and
// an imported DSM, rays with endpoints in the grid or up to 20 m
// outside it — descending and ascending through the ceiling, level
// above, at and below it, vertical, under the ground and of zero length
// — integrate to the oracle's bits.
func TestObstructionRayMatchesOracle(t *testing.T) {
	var models []*Model
	for _, name := range []string{"CAMPUS", "RURAL", "NYC", "LARGE", "FLAT"} {
		models = append(models, NewModel(terrain.ByName(name, 5), DefaultParams(), 5))
	}
	models = append(models, NewModel(esriSurface(t), DefaultParams(), 5))
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := models[rng.Intn(len(models))]
		b := m.Terrain.Bounds()
		top := m.Terrain.MaxHeight()
		uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
		point := func() geom.Vec2 {
			return geom.V2(uniform(b.MinX-20, b.MaxX+20), uniform(b.MinY-20, b.MaxY+20))
		}
		above := func() float64 { return top + uniform(0, 80) }
		below := func(p geom.Vec2) float64 { return uniform(m.GroundZ(p)-3, top) }
		pa, pb := point(), point()
		var a, c geom.Vec3
		kind := rng.Intn(8)
		switch kind {
		case 0: // descending through the ceiling
			a, c = pa.WithZ(above()), pb.WithZ(below(pb))
		case 1: // ascending through the ceiling
			a, c = pa.WithZ(below(pa)), pb.WithZ(above())
		case 2: // level, at or above the ceiling
			z := top
			if rng.Intn(2) == 0 {
				z = above()
			}
			a, c = pa.WithZ(z), pb.WithZ(z)
		case 3: // level, below the ceiling
			z := below(pa)
			a, c = pa.WithZ(z), pb.WithZ(z)
		case 4: // vertical
			a, c = pa.WithZ(below(pa)), pa.WithZ(above())
			if rng.Intn(2) == 0 {
				a, c = c, a
			}
		case 5: // under the ground
			a, c = pa.WithZ(m.GroundZ(pa)-uniform(0, 5)), pb.WithZ(m.GroundZ(pb)-uniform(0, 5))
		case 6: // zero length
			a = pa.WithZ(uniform(-5, top+40))
			c = a
		default: // anywhere
			a, c = pa.WithZ(uniform(-10, top+60)), pb.WithZ(uniform(-10, top+60))
		}
		got, want := m.obstructionRay(a, c), m.oracleObstructionRay(a, c)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("%s kind %d, %v → %v: got %.17g, want %.17g", m.Terrain.Name, kind, a, c, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}
