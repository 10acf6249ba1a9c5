package radio

import (
	"math"

	"repro/internal/geom"
	"repro/internal/noise"
	"repro/internal/terrain"
)

// Model is the terrain-aware propagation model. Pathloss between two
// points is FSPL plus an obstruction loss integrated along the direct
// ray (buildings nearly opaque, foliage lossy) plus spatially
// correlated log-normal shadowing. The model is a pure deterministic
// function of (seed, endpoints), which makes lazily evaluated
// ground-truth REMs order-independent and runs reproducible.
//
// Construct with NewModel; the zero value is unusable.
type Model struct {
	Terrain *terrain.Surface
	Params  Params
	// Budget converts pathloss to SNR; NewModel installs DefaultBudget.
	Budget LinkBudget

	shadow *noise.Field
	// obs memoizes the ray-obstruction integral; shared between models
	// with identical terrain content and loss constants (see obscache.go).
	obs *obsCache

	// Flattened terrain arrays for fast ray sampling.
	nx, ny   int
	originX  float64
	originY  float64
	invCell  float64
	height   []float64 // ground + obstacle
	ground   []float64
	material []terrain.Material
	// ceiling is the largest cell height: a ray sample at or above it
	// is below no cell's top, so it adds no obstruction loss.
	ceiling float64
}

// Params are the tunable propagation constants.
type Params struct {
	// AntennaPattern enables the dipole elevation pattern of the
	// UAV's omni antenna: gain falls off towards the vertical null
	// directly below the airframe. Off by default — the calibrated
	// link budget folds the average pattern into its gain figure —
	// but the ablation shows its effect on directly-overhead serving.
	AntennaPattern bool
	// BuildingLossDBPerM is attenuation per metre of building
	// penetrated by the ray. Concrete/steel is nearly opaque; a few
	// metres of wall exhaust the link.
	BuildingLossDBPerM float64
	// FoliageLossDBPerM is attenuation per metre of canopy (ITU-R
	// P.833-class vegetation loss).
	FoliageLossDBPerM float64
	// MaxObstructionDB caps total obstruction loss: even deep NLOS
	// links retain some diffracted/scattered energy.
	MaxObstructionDB float64
	// ShadowSigmaDB is the standard deviation of log-normal shadowing.
	ShadowSigmaDB float64
	// ShadowCorrLenM is the horizontal correlation length of the
	// shadowing field.
	ShadowCorrLenM float64
	// RayStepM is the sampling step along rays for the obstruction
	// integral. Defaults to the terrain cell size.
	RayStepM float64
}

// DefaultParams returns propagation constants calibrated so that the
// campus terrain reproduces the paper's measured behaviour: ~20 dB
// pathloss swings along 50 m flight segments (Fig 7), a U-shaped
// pathloss-vs-altitude curve (Fig 8), and FSPL-model REM errors of
// 4-10 dB depending on terrain (Fig 4).
func DefaultParams() Params {
	return Params{
		BuildingLossDBPerM: 2.5,
		FoliageLossDBPerM:  0.45,
		MaxObstructionDB:   45,
		ShadowSigmaDB:      3.0,
		ShadowCorrLenM:     40,
	}
}

// NewModel builds a propagation model over the given terrain with a
// deterministic shadowing field derived from seed.
func NewModel(t *terrain.Surface, p Params, seed uint64) *Model {
	if p.RayStepM <= 0 {
		p.RayStepM = t.Cell()
	}
	nx, ny := t.Dims()
	m := &Model{
		Terrain:  t,
		Params:   p,
		Budget:   DefaultBudget(),
		shadow:   noise.New(seed ^ 0x5eed5eed),
		nx:       nx,
		ny:       ny,
		originX:  t.Bounds().MinX,
		originY:  t.Bounds().MinY,
		invCell:  1 / t.Cell(),
		height:   make([]float64, nx*ny),
		ground:   make([]float64, nx*ny),
		material: make([]terrain.Material, nx*ny),
		ceiling:  math.Inf(-1),
	}
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			c := geom.V2(m.originX+(float64(cx)+0.5)*t.Cell(), m.originY+(float64(cy)+0.5)*t.Cell())
			i := cy*nx + cx
			m.ground[i] = t.GroundAt(c)
			m.height[i] = t.HeightAt(c)
			m.material[i] = t.MaterialAt(c)
			if m.height[i] > m.ceiling {
				m.ceiling = m.height[i]
			}
		}
	}
	m.obs = obsCacheFor(modelKey{
		terrainHash: terrainFingerprint(m.height, m.material),
		nx:          nx,
		ny:          ny,
		originX:     m.originX,
		originY:     m.originY,
		invCell:     m.invCell,
		rayStepM:    p.RayStepM,
		buildingDB:  p.BuildingLossDBPerM,
		foliageDB:   p.FoliageLossDBPerM,
		maxObsDB:    p.MaxObstructionDB,
	})
	return m
}

// cellIndex returns the flattened index of the cell containing (x, y),
// clamped to the grid border.
func (m *Model) cellIndex(x, y float64) int {
	cx := int((x - m.originX) * m.invCell)
	cy := int((y - m.originY) * m.invCell)
	if cx < 0 {
		cx = 0
	} else if cx >= m.nx {
		cx = m.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= m.ny {
		cy = m.ny - 1
	}
	return cy*m.nx + cx
}

// GroundZ returns the terrain ground elevation under p.
func (m *Model) GroundZ(p geom.Vec2) float64 { return m.ground[m.cellIndex(p.X, p.Y)] }

// Obstruction returns the total obstruction loss in dB along the ray
// a→b (capped at MaxObstructionDB), memoized per exact endpoint pair.
// The loss is a pure function of terrain geometry, so cached values are
// bit-identical to fresh evaluations and safe to share across
// goroutines and across models built over equal terrain.
func (m *Model) Obstruction(a, b geom.Vec3) float64 {
	if m.obs == nil {
		return m.obstructionRay(a, b)
	}
	k := rayKey{a.X, a.Y, a.Z, b.X, b.Y, b.Z}
	if v, ok := m.obs.get(k); ok {
		return v
	}
	v := m.obstructionRay(a, b)
	m.obs.put(k, v)
	return v
}

// Uncached returns a copy of m that evaluates every ray afresh instead
// of going through the shared obstruction cache, for rays that never
// repeat (a moving UE's): there a lookup only misses and an insert
// evicts rays that would repeat. The results are bit-identical.
func (m *Model) Uncached() *Model {
	c := *m
	c.obs = nil
	return &c
}

// obstructionRay integrates material losses along the ray a→b — the
// uncached evaluation behind Obstruction. Only samples below the
// terrain's ceiling can add loss. Sample i's height z(i) is monotone in
// i (each step rounds a monotone function of i), so the samples at or
// above the ceiling are a prefix or a suffix of 1..n−1: two scans that
// compute only z trim them, and the march visits what is left in the
// same order, adding the same terms. A NaN z stops either scan.
func (m *Model) obstructionRay(a, b geom.Vec3) float64 {
	d := b.Sub(a)
	length := d.Norm()
	if length < 1e-9 {
		return 0
	}
	step := m.Params.RayStepM
	n := int(length/step) + 1
	var loss float64
	inv := 1 / float64(n)
	sampleZ := func(t float64) float64 { return a.Z + d.Z*t }
	lo, hi := 1, n-1 // skip the endpoints themselves
	for lo <= hi && sampleZ(float64(lo)*inv) >= m.ceiling {
		lo++
	}
	for hi >= lo && sampleZ(float64(hi)*inv) >= m.ceiling {
		hi--
	}
	for i := lo; i <= hi; i++ {
		t := float64(i) * inv
		x := a.X + d.X*t
		y := a.Y + d.Y*t
		z := sampleZ(t)
		ci := m.cellIndex(x, y)
		if z < m.height[ci] {
			switch m.material[ci] {
			case terrain.Building:
				loss += m.Params.BuildingLossDBPerM * step
			case terrain.Foliage:
				loss += m.Params.FoliageLossDBPerM * step
			default:
				// Ray below open ground: terrain itself blocks
				// (hill shadowing) — treat like building mass.
				loss += m.Params.BuildingLossDBPerM * step
			}
			if loss >= m.Params.MaxObstructionDB {
				return m.Params.MaxObstructionDB
			}
		}
	}
	return loss
}

// LOS reports whether the direct ray a→b is unobstructed.
func (m *Model) LOS(a, b geom.Vec3) bool { return m.Obstruction(a, b) == 0 }

// shadowing returns the correlated log-normal shadowing term for the
// link a→b in dB (zero-mean). It is sampled at both endpoints and the
// midpoint of the ray so that it decorrelates when either end moves.
func (m *Model) shadowing(a, b geom.Vec3) float64 {
	l := m.Params.ShadowCorrLenM
	if l <= 0 || m.Params.ShadowSigmaDB == 0 {
		return 0
	}
	mid := a.Lerp(b, 0.5)
	s := m.shadow.At(a.X/l, a.Y/l, a.Z/l) +
		m.shadow.At(b.X/l+1000, b.Y/l, b.Z/l) +
		m.shadow.At(mid.X/l, mid.Y/l+1000, mid.Z/l)
	// Sum of three ~uniform-ish terms in [-1,1]; scale so the field's
	// std-dev ≈ ShadowSigmaDB. Var of value noise ≈ 0.1 per term.
	return s * m.Params.ShadowSigmaDB * 0.57
}

// Pathloss returns the deterministic pathloss in dB between tx and rx
// (direction-symmetric up to the shadowing field's endpoint keying,
// which is made symmetric by ordering the endpoints).
func (m *Model) Pathloss(tx, rx geom.Vec3) float64 {
	a, b := tx, rx
	if b.X < a.X || (b.X == a.X && (b.Y < a.Y || (b.Y == a.Y && b.Z < a.Z))) {
		a, b = b, a
	}
	pl := FSPL(a.Dist(b), m.Budget.FreqHz) + m.Obstruction(a, b) + m.shadowing(a, b)
	if m.Params.AntennaPattern {
		pl += DipoleElevationLossDB(a, b)
	}
	return pl
}

// DipoleElevationLossDB returns the extra loss from a vertical
// half-wave dipole's elevation pattern on the link a→b: the classic
// cos(π/2·sinθ)/cosθ donut, where θ is the elevation angle from the
// horizontal plane. Links near the vertical (UE directly under the
// UAV) fall into the pattern null; the loss is capped at 20 dB —
// airframe scattering fills real nulls in.
func DipoleElevationLossDB(a, b geom.Vec3) float64 {
	d := b.Sub(a)
	horiz := math.Hypot(d.X, d.Y)
	if horiz == 0 && d.Z == 0 {
		return 0
	}
	sinTheta := math.Abs(d.Z) / d.Norm()
	cosTheta := horiz / d.Norm()
	if cosTheta < 1e-6 {
		return 20
	}
	f := math.Cos(math.Pi/2*sinTheta) / cosTheta
	loss := -20 * math.Log10(math.Max(math.Abs(f), 1e-3))
	if loss < 0 {
		loss = 0
	}
	if loss > 20 {
		loss = 20
	}
	return loss
}

// UEAntennaHeight is the assumed height of a UE antenna above ground
// (a handheld phone).
const UEAntennaHeight = 1.5

// UEPoint lifts a ground position into 3-D at UE antenna height above
// the local terrain.
func (m *Model) UEPoint(p geom.Vec2) geom.Vec3 {
	return p.WithZ(m.GroundZ(p) + UEAntennaHeight)
}

// SNR returns the link SNR in dB between a UAV at uav (absolute
// altitude) and a UE standing at ground position ue.
func (m *Model) SNR(uav geom.Vec3, ue geom.Vec2) float64 {
	return m.Budget.SNRFromPathloss(m.Pathloss(uav, m.UEPoint(ue)))
}

// FSPLPathloss returns the pathloss the free-space model alone would
// predict for the same link — the baseline REM initialisation of §3.5
// and the "Propagation Model Based" comparator of Fig 4.
func (m *Model) FSPLPathloss(uav geom.Vec3, ue geom.Vec2) float64 {
	return FSPL(uav.Dist(m.UEPoint(ue)), m.Budget.FreqHz)
}

// FSPLSNR is the SNR corresponding to FSPLPathloss.
func (m *Model) FSPLSNR(uav geom.Vec3, ue geom.Vec2) float64 {
	return m.Budget.SNRFromPathloss(m.FSPLPathloss(uav, ue))
}
