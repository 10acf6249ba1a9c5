package noise

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		x, y, z := float64(i)*0.37, float64(i)*1.91, float64(i)*0.11
		if a.At(x, y, z) != b.At(x, y, z) {
			t.Fatalf("same seed differs at %v,%v,%v", x, y, z)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.73
		if a.At2(x, x) == b.At2(x, x) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 agree on %d/100 samples", same)
	}
}

func TestRangeBounded(t *testing.T) {
	f := New(7)
	check := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) ||
			math.Abs(x) > 1e6 || math.Abs(y) > 1e6 || math.Abs(z) > 1e6 {
			return true
		}
		v := f.At(x, y, z)
		return v >= -1.0001 && v <= 1.0001 && !math.IsNaN(v)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestContinuity(t *testing.T) {
	// Adjacent samples 1 cm apart must differ by a small amount: the
	// field is C¹ so the delta is bounded by max-slope * step.
	f := New(3)
	for i := 0; i < 2000; i++ {
		x := float64(i) * 0.173
		y := float64(i) * 0.311
		d := math.Abs(f.At2(x, y) - f.At2(x+0.01, y))
		if d > 0.08 {
			t.Fatalf("discontinuity at (%v,%v): delta %v", x, y, d)
		}
	}
}

// lattice is the per-corner hash At used before it shared its per-axis
// hashes: a uniform value in [-1, 1] for integer lattice point
// (x, y, z), deterministic in the field seed. It is the oracle for At.
func (f *Field) lattice(x, y, z int64) float64 {
	h := f.seed
	h ^= splitmix(uint64(x) * 0x9e3779b97f4a7c15)
	h ^= splitmix(uint64(y) * 0xc2b2ae3d27d4eb4f)
	h ^= splitmix(uint64(z) * 0x165667b19e3779f9)
	h = splitmix(h)
	return float64(h>>11)/float64(1<<53)*2 - 1
}

// latticeAt is At as it was before it shared its per-axis hashes: eight
// lattice calls, interpolated in the same order.
func (f *Field) latticeAt(x, y, z float64) float64 {
	x0, y0, z0 := int64(math.Floor(x)), int64(math.Floor(y)), int64(math.Floor(z))
	tx, ty, tz := smooth(x-math.Floor(x)), smooth(y-math.Floor(y)), smooth(z-math.Floor(z))

	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	var c [2][2][2]float64
	for dz := int64(0); dz < 2; dz++ {
		for dy := int64(0); dy < 2; dy++ {
			for dx := int64(0); dx < 2; dx++ {
				c[dx][dy][dz] = f.lattice(x0+dx, y0+dy, z0+dz)
			}
		}
	}
	return lerp(
		lerp(lerp(c[0][0][0], c[1][0][0], tx), lerp(c[0][1][0], c[1][1][0], tx), ty),
		lerp(lerp(c[0][0][1], c[1][0][1], tx), lerp(c[0][1][1], c[1][1][1], tx), ty),
		tz,
	)
}

// TestAtMatchesLattice: at several seeds, At returns the bits of the
// eight-lattice-call form for fractional, integer and negative
// coordinates and for coordinates out to ±1e7.
func TestAtMatchesLattice(t *testing.T) {
	for _, seed := range []uint64{0, 1, 11, 0x5eed5eed, 1 << 63} {
		f := New(seed)
		prop := func(x, y, z float64, kind uint8) bool {
			// quick draws floats up to ~1.8e308; fold them into ±1e7
			// and, by kind, snap axes onto the lattice.
			x, y, z = math.Mod(x, 1e7), math.Mod(y, 1e7), math.Mod(z, 1e7)
			if kind&1 != 0 {
				x = math.Round(x)
			}
			if kind&2 != 0 {
				y = math.Round(y)
			}
			if kind&4 != 0 {
				z = math.Round(z)
			}
			if kind&8 != 0 {
				x, y, z = x/1e6, y/1e6, z/1e6
			}
			got, want := f.At(x, y, z), f.latticeAt(x, y, z)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d At(%v, %v, %v) = %.17g, want %.17g", seed, x, y, z, got, want)
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatal(err)
		}
		for _, p := range [][3]float64{
			{0, 0, 0}, {-1, -1, -1}, {-0.5, 2.25, -3.75}, {1e7, -1e7, 0.5},
			{-1e7, 1e7, -1e7}, {1e7 - 0.5, -1e7 + 0.5, 3}, {math.Copysign(0, -1), 0, 0.5},
		} {
			if got, want := f.At(p[0], p[1], p[2]), f.latticeAt(p[0], p[1], p[2]); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d At%v = %.17g, want %.17g", seed, p, got, want)
			}
		}
	}
}

func TestLatticeAgreesAtIntegers(t *testing.T) {
	// At integer coordinates the interpolation weights are 0, so At
	// must return the lattice value exactly.
	f := New(11)
	if got, want := f.At(3, 4, 5), f.lattice(3, 4, 5); got != want {
		t.Errorf("At(3,4,5) = %v, lattice = %v", got, want)
	}
}

func TestMeanNearZero(t *testing.T) {
	f := New(99)
	var sum float64
	n := 10000
	for i := 0; i < n; i++ {
		x := float64(i%100) * 0.631
		y := float64(i/100) * 0.631
		sum += f.At2(x, y)
	}
	mean := sum / float64(n)
	if math.Abs(mean) > 0.1 {
		t.Errorf("mean = %v, want near 0", mean)
	}
}

func TestFBMBounded(t *testing.T) {
	f := New(5)
	for i := 0; i < 1000; i++ {
		v := f.FBM(float64(i)*0.29, float64(i)*0.53, 4)
		if v < -1.001 || v > 1.001 {
			t.Fatalf("FBM out of range: %v", v)
		}
	}
	if f.FBM(1, 2, 0) != 0 {
		t.Error("0 octaves should give 0")
	}
}

func TestFBMAddsDetail(t *testing.T) {
	// With more octaves the field has more high-frequency energy:
	// neighbouring samples decorrelate faster.
	f := New(21)
	var d1, d4 float64
	for i := 0; i < 500; i++ {
		x, y := float64(i)*0.37, float64(i)*0.91
		d1 += math.Abs(f.FBM(x, y, 1) - f.FBM(x+0.05, y, 1))
		d4 += math.Abs(f.FBM(x, y, 5) - f.FBM(x+0.05, y, 5))
	}
	if d4 <= d1 {
		t.Errorf("5-octave roughness %v not greater than 1-octave %v", d4, d1)
	}
}

func BenchmarkAt(b *testing.B) {
	f := New(1)
	for i := 0; i < b.N; i++ {
		f.At(float64(i)*0.01, 3.7, 1.1)
	}
}
