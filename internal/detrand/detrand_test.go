package detrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// oracleSeeds are the edge seeds every oracle check covers on top of
// the random ones: zero (stdlib substitutes 89482311), the modulus and
// its neighbours on both signs, values that reduce to 0 mod 2^31−1,
// and the int64 extremes.
var oracleSeeds = []int64{
	0, 1, -1, 89482311,
	1<<31 - 1, -(1<<31 - 1), 1<<31 - 2, 1 << 31, 2 * (1<<31 - 1),
	1 << 62, -(1 << 62), math.MinInt64, math.MaxInt64,
}

// oracleDraws is how many method calls each oracle check makes: past
// both lazily filled windows (334 feed words, 273 tap words) and a
// full turn of the 607-word register.
const oracleDraws = 1000

// sameDraw makes one call of the op-th rand.Rand method the repo uses
// on both streams and reports whether they agree.
func sameDraw(op int, ref, got *rand.Rand) (string, bool) {
	switch op % 6 {
	case 0:
		a, b := ref.Float64(), got.Float64()
		return fmt.Sprintf("Float64 %v != %v", b, a), a == b
	case 1:
		a, b := ref.Intn(1000), got.Intn(1000)
		return fmt.Sprintf("Intn %v != %v", b, a), a == b
	case 2:
		a, b := ref.NormFloat64(), got.NormFloat64()
		return fmt.Sprintf("NormFloat64 %v != %v", b, a), a == b
	case 3:
		a, b := ref.ExpFloat64(), got.ExpFloat64()
		return fmt.Sprintf("ExpFloat64 %v != %v", b, a), a == b
	case 4:
		a, b := ref.Int63(), got.Int63()
		return fmt.Sprintf("Int63 %v != %v", b, a), a == b
	default:
		a, b := ref.Uint64(), got.Uint64()
		return fmt.Sprintf("Uint64 %v != %v", b, a), a == b
	}
}

// matchesStdlib runs oracleDraws mixed calls, in an order drawn from
// ops, on rand.New(rand.NewSource(seed)) and on got, and reports the
// first disagreement.
func matchesStdlib(seed int64, got *rand.Rand, ops *rand.Rand) error {
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < oracleDraws; i++ {
		if msg, ok := sameDraw(ops.Intn(6), ref, got); !ok {
			return fmt.Errorf("seed %d draw %d: %s", seed, i, msg)
		}
	}
	return nil
}

// TestMatchesStdlibStream is the lazy source's oracle: New and Stream
// must yield math/rand's stream for the same seed, bit for bit,
// through every rand.Rand method the repo calls, for random seeds and
// the edge seeds alike.
func TestMatchesStdlibStream(t *testing.T) {
	check := func(seed int64) error {
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		if err := matchesStdlib(seed, Stream(seed), ops); err != nil {
			return fmt.Errorf("Stream: %w", err)
		}
		r := New(seed)
		if err := matchesStdlib(seed, r.Rand, ops); err != nil {
			return fmt.Errorf("New: %w", err)
		}
		if r.Draws() < 700 {
			return fmt.Errorf("seed %d: only %d source draws, short of both lazy windows", seed, r.Draws())
		}
		return nil
	}
	for _, seed := range oracleSeeds {
		if err := check(seed); err != nil {
			t.Fatal(err)
		}
	}
	var failure error
	if err := quick.Check(func(seed int64) bool {
		failure = check(seed)
		return failure == nil
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("%v: %v", err, failure)
	}
}

// A restored stream continues math/rand's stream from the restored
// position, wherever that falls relative to the lazy windows.
func TestRestoreMatchesStdlibStream(t *testing.T) {
	check := func(seed int64, at uint16) error {
		at %= oracleDraws
		ref := rand.New(rand.NewSource(seed))
		r := New(seed)
		for i := 0; i < int(at); i++ {
			ref.Float64()
			r.Float64()
		}
		fresh := New(seed)
		if err := fresh.Restore(r.State()); err != nil {
			return err
		}
		ops := rand.New(rand.NewSource(seed + int64(at)))
		for i := 0; i < oracleDraws; i++ {
			if msg, ok := sameDraw(ops.Intn(6), ref, fresh.Rand); !ok {
				return fmt.Errorf("seed %d restored at %d, draw %d: %s", seed, at, i, msg)
			}
		}
		return nil
	}
	for i, seed := range oracleSeeds {
		if err := check(seed, uint16(i*97)); err != nil {
			t.Fatal(err)
		}
	}
	var failure error
	if err := quick.Check(func(seed int64, at uint16) bool {
		failure = check(seed, at)
		return failure == nil
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatalf("%v: %v", err, failure)
	}
}

func TestSnapshotRestoreResumesStream(t *testing.T) {
	r := New(7)
	for i := 0; i < 257; i++ {
		r.NormFloat64()
	}
	st := r.State()
	var want []float64
	for i := 0; i < 100; i++ {
		want = append(want, r.Float64())
	}

	fresh := New(7)
	if err := fresh.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i, w := range want {
		if g := fresh.Float64(); g != w {
			t.Fatalf("resumed draw %d: %v, want %v", i, g, w)
		}
	}
}

func TestRestoreRejectsSeedMismatchAndRewind(t *testing.T) {
	r := New(1)
	if err := r.Restore(State{Seed: 2, Draws: 0}); err == nil {
		t.Fatal("Restore accepted a state from a different seed")
	}
	r.Float64()
	r.Float64()
	if err := r.Restore(State{Seed: 1, Draws: 1}); err == nil {
		t.Fatal("Restore accepted a rewind")
	}
}

func TestDrawsCountsEveryMethod(t *testing.T) {
	r := New(3)
	if r.Draws() != 0 {
		t.Fatalf("fresh stream has %d draws", r.Draws())
	}
	r.Float64()
	if r.Draws() == 0 {
		t.Fatal("Float64 did not count a draw")
	}
	before := r.Draws()
	r.NormFloat64() // may consume several source draws (ziggurat)
	if r.Draws() <= before {
		t.Fatal("NormFloat64 did not count draws")
	}
}

// BenchmarkSeed20 is one per-UE, per-phase stream's life in a serving
// phase: seed it, then draw 20 values. The math-rand case is the stdlib
// source the lazy one replaces.
func BenchmarkSeed20(b *testing.B) {
	for _, tc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"detrand", Stream},
		{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				r := tc.new(int64(i))
				for k := 0; k < 20; k++ {
					sink += r.Float64()
				}
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
