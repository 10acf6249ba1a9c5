package sim

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/terrain"
	"repro/internal/traffic"
)

// FuzzReplayTrace feeds trace container bytes through ReadTraceFile
// and, when they decode, one replayed serving phase on a small world (a
// single UAV over 3 UEs on FLAT): whatever the bytes hold, the phase is
// served or refused with an error, never a panic. The seeds are a
// captured trace and copies re-written under a valid container CRC with
// one bad arrival or a UE position off the terrain.
func FuzzReplayTrace(f *testing.F) {
	surf := terrain.ByName("FLAT", 5)
	world := func(tb testing.TB) *World {
		w, err := New(Config{Terrain: surf, Seed: 5, FastRanging: true}, flatUEs(surf, 3))
		if err != nil {
			tb.Fatal(err)
		}
		return w
	}
	live := traffic.Spec{Model: traffic.ModelPoisson, RateBps: 2e5}
	if err := live.Normalize(); err != nil {
		f.Fatal(err)
	}
	w := world(f)
	w.Capture = traffic.NewCapture(live, 0)
	if _, err := w.ServeTraffic(0.1, 10, live); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	good := filepath.Join(dir, "good.trace")
	if _, err := w.Capture.Trace.WriteFile(good); err != nil {
		f.Fatal(err)
	}
	for _, edit := range []func(ph *traffic.TracePhase){
		func(*traffic.TracePhase) {},
		func(ph *traffic.TracePhase) { ph.Arrivals[0].UE = 99 },
		func(ph *traffic.TracePhase) { ph.Arrivals[0].Bytes = 70000 },
		func(ph *traffic.TracePhase) { ph.Arrivals[0].T = math.NaN() },
		func(ph *traffic.TracePhase) { ph.UEs[0].X = math.NaN() },
		func(ph *traffic.TracePhase) { ph.UEs[0].X = math.Inf(1) },
		func(ph *traffic.TracePhase) { ph.UEs[0].X = -1e6 },
		func(ph *traffic.TracePhase) { ph.UEs[0].X = 1e300 },
	} {
		tr, err := traffic.ReadTraceFile(good)
		if err != nil {
			f.Fatal(err)
		}
		if len(tr.Phases[0].Arrivals) == 0 {
			f.Fatal("captured phase has no arrivals to edit")
		}
		edit(&tr.Phases[0])
		seed := filepath.Join(dir, "seed.trace")
		if _, err := tr.WriteFile(seed); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Damaged containers, so the reader's refusals are baseline
	// coverage rather than finds.
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(raw[:len(raw)/2])
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	path := filepath.Join(dir, "fuzz.trace")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := traffic.ReadTraceFile(path); err != nil {
			return
		}
		// A refused phase is a pass; only a panic fails.
		world(t).ServeTraffic(0.1, 10, traffic.Spec{Mode: traffic.ModeReplay, TraceFile: path}) //nolint:errcheck
	})
}
