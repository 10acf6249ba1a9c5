// Package noise implements deterministic coherent value noise.
//
// Two SkyRAN substrates need a smooth pseudo-random scalar field: the
// terrain generators (ground undulation, foliage density) and the radio
// propagation model (spatially correlated log-normal shadowing, the
// standard model for slow fading). Both require the field to be a pure
// function of (seed, position) so that simulation runs are exactly
// reproducible and the lazily-evaluated ground-truth REM cache never
// depends on evaluation order.
package noise

import "math"

// Field is a seeded 3-D coherent noise field. The zero value is not
// usable; construct with New.
type Field struct {
	seed uint64
}

// New returns a noise field derived from seed. Fields with different
// seeds are statistically independent.
func New(seed uint64) *Field {
	// Mix the seed once so that small consecutive seeds (0, 1, 2, ...)
	// still yield uncorrelated fields.
	return &Field{seed: splitmix(seed ^ 0x9e3779b97f4a7c15)}
}

// splitmix is the SplitMix64 finalizer: a high-quality 64-bit mix.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Per-axis lattice keys: corner (x, y, z) hashes to
// splitmix(seed ^ splitmix(x·kx) ^ splitmix(y·ky) ^ splitmix(z·kz)).
const (
	kx = 0x9e3779b97f4a7c15
	ky = 0xc2b2ae3d27d4eb4f
	kz = 0x165667b19e3779f9
)

// corner maps a lattice corner's hash inputs — the field seed XOR its
// three per-axis hashes — to a uniform value in [-1, 1].
func (f *Field) corner(hx, hy, hz uint64) float64 {
	h := splitmix(f.seed ^ hx ^ hy ^ hz)
	// 53 high bits -> float64 in [0,1), then map to [-1,1].
	return float64(h>>11)/float64(1<<53)*2 - 1
}

// smooth is the C¹-continuous fade curve 3t²-2t³.
func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// At returns the noise value at (x, y, z), a smooth function of
// position with values in [-1, 1] and correlation length ~1 lattice
// unit. Scale coordinates before calling to set the correlation
// distance: f.At(x/30, y/30, 0) has a ~30 m correlation length.
//
// The eight corners of the enclosing lattice cell share two hashes per
// axis, so each is computed once; XOR is exact and order-free, so each
// corner keeps the bits of hashing it alone.
func (f *Field) At(x, y, z float64) float64 {
	x0, y0, z0 := int64(math.Floor(x)), int64(math.Floor(y)), int64(math.Floor(z))
	tx, ty, tz := smooth(x-math.Floor(x)), smooth(y-math.Floor(y)), smooth(z-math.Floor(z))

	hx0, hx1 := splitmix(uint64(x0)*kx), splitmix(uint64(x0+1)*kx)
	hy0, hy1 := splitmix(uint64(y0)*ky), splitmix(uint64(y0+1)*ky)
	hz0, hz1 := splitmix(uint64(z0)*kz), splitmix(uint64(z0+1)*kz)
	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	return lerp(
		lerp(lerp(f.corner(hx0, hy0, hz0), f.corner(hx1, hy0, hz0), tx), lerp(f.corner(hx0, hy1, hz0), f.corner(hx1, hy1, hz0), tx), ty),
		lerp(lerp(f.corner(hx0, hy0, hz1), f.corner(hx1, hy0, hz1), tx), lerp(f.corner(hx0, hy1, hz1), f.corner(hx1, hy1, hz1), tx), ty),
		tz,
	)
}

// At2 returns 2-D noise (z fixed at 0.5 to avoid lattice alignment).
func (f *Field) At2(x, y float64) float64 { return f.At(x, y, 0.5) }

// FBM returns fractal Brownian motion: octaves of At summed with
// per-octave frequency doubling and amplitude halving. The result is
// approximately in [-1, 1]. More octaves add finer detail; terrain
// generators use 3-5.
func (f *Field) FBM(x, y float64, octaves int) float64 {
	var sum, amp, norm float64
	amp = 1
	freq := 1.0
	for i := 0; i < octaves; i++ {
		sum += amp * f.At2(x*freq, y*freq)
		norm += amp
		amp /= 2
		freq *= 2
	}
	if norm == 0 {
		return 0
	}
	return sum / norm
}
