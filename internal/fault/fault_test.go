package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

func TestNormalizeZeroScheduleStaysZero(t *testing.T) {
	var s Schedule
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s != (Schedule{}) {
		t.Fatalf("zero schedule changed by Normalize: %+v", s)
	}
	if s.Active() {
		t.Fatal("zero schedule reports Active")
	}
	if New(&s, 1) != nil {
		t.Fatal("New on inactive schedule should return nil")
	}
	if New(nil, 1) != nil {
		t.Fatal("New on nil schedule should return nil")
	}
}

func TestNormalizeDefaultsOnlyWithRate(t *testing.T) {
	s := Schedule{SRSOutlierRate: 0.1, GTPULossRate: 0.2, UEChurnRate: 0.3, LegAbortRate: 0.4}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.SRSOutlierM != 80 || s.GTPULossBurstS != 0.25 || s.UEChurnOutS != 1 || s.LegAbortMinFrac != 0.25 {
		t.Fatalf("defaults not filled: %+v", s)
	}
}

func TestNormalizeRejectsBadRates(t *testing.T) {
	for _, s := range []Schedule{
		{SRSDropRate: -0.1},
		{SRSDropRate: 1.5},
		{GTPULossRate: 1},
		{LegAbortRate: 0.5, LegAbortMinFrac: 2},
		{GPSDriftM: -1},
		{GTPULossRate: 0.5, GTPULossBurstS: 1e-9},
		{GTPULossRate: 0.5, GTPULossBurstS: 0.999e-3},
		{SRSDropRate: math.NaN()},
		{GTPUDupRate: math.Inf(1)},
		{UEChurnRate: 0.5, UEChurnOutS: math.NaN()},
		{GPSDriftM: math.Inf(1)},
		{BatterySagFrac: math.NaN()},
	} {
		sc := s
		if err := sc.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted invalid schedule", s)
		}
	}
}

// Rate-zero methods must consume no randomness, so partial schedules
// leave the untouched kinds' streams byte-identical.
func TestZeroRateConsumesNoDraws(t *testing.T) {
	s := Schedule{GPSDriftM: 2} // active, but all Bernoulli rates zero
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	in := New(&s, 9)
	if in.DropSRS() {
		t.Fatal("DropSRS fired at rate 0")
	}
	if got := in.PerturbRange(123); got != 123 {
		t.Fatal("PerturbRange changed value at rate 0")
	}
	if _, abort := in.AbortLeg(); abort {
		t.Fatal("AbortLeg fired at rate 0")
	}
	if in.srs.Draws() != 0 {
		t.Fatalf("srs stream consumed %d draws at zero rates", in.srs.Draws())
	}
	if in.uav.Draws() != 0 {
		t.Fatalf("uav stream consumed %d draws at zero rates", in.uav.Draws())
	}
	plan := in.NewServePlan(1, 0, 4, 10)
	if plan.DropGTPU(2, 5) || plan.DupGTPU(2) || plan.ChurnedOut(2, 5) {
		t.Fatal("serve plan injected at zero rates")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := Schedule{SRSDropRate: 0.5, SRSOutlierRate: 0.3, GPSDriftM: 3, LegAbortRate: 0.5}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	mk := func() *Injector { return New(&s, 42) }
	a := mk()
	for i := 0; i < 50; i++ {
		a.DropSRS()
		a.PerturbRange(float64(i))
		a.PerturbGPS(geom.V3(0, 0, 30), 0.02)
		a.AbortLeg()
	}
	st := a.Snapshot()

	b := mk()
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.DropSRS() != b.DropSRS() {
			t.Fatalf("DropSRS diverged at %d", i)
		}
		if a.PerturbRange(float64(i)) != b.PerturbRange(float64(i)) {
			t.Fatalf("PerturbRange diverged at %d", i)
		}
		pa := a.PerturbGPS(geom.V3(1, 2, 30), 0.02)
		pb := b.PerturbGPS(geom.V3(1, 2, 30), 0.02)
		if pa != pb {
			t.Fatalf("PerturbGPS diverged at %d: %v vs %v", i, pa, pb)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
}

// lossWindows walks UE ue's lazy loss stream to the horizon and returns
// every window it draws.
func lossWindows(p *ServePlan, ue int) []window {
	ls := p.loss[ue]
	var out []window
	for ls.next < ls.horizon {
		ls.draw()
		out = append(out, ls.cur)
	}
	return out
}

// eagerLossWindows is the oracle for the lazy loss stream: the whole
// phase's windows drawn up front from the same stream, as NewServePlan
// once did.
func eagerLossWindows(seed, phase uint64, ue int, rate, burstS, seconds float64) []window {
	rng := rand.New(rand.NewSource(planSeed(seed, phase, ue, 1)))
	meanGap := burstS * (1 - rate) / rate
	var ws []window
	t := rng.ExpFloat64() * meanGap
	for t < seconds {
		burst := rng.ExpFloat64() * burstS
		ws = append(ws, window{t, t + burst})
		t += burst + rng.ExpFloat64()*meanGap
	}
	return ws
}

// Drawing loss windows lazily must not move a single decision: for
// arrivals in time order, DropGTPU answers exactly what a scan of the
// eagerly drawn windows answers, and walking the lazy stream to the
// horizon yields the eager windows bit for bit.
func TestLazyLossWindowsMatchEager(t *testing.T) {
	for _, tc := range []struct{ rate, burstS, seconds float64 }{
		{0.1, 0.25, 20}, {0.5, 0.001, 5}, {0.9, 0.05, 3}, {0.01, 2, 30},
	} {
		s := Schedule{GTPULossRate: tc.rate, GTPULossBurstS: tc.burstS}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		const seed, phase, nUE = 5, 2, 6
		walked := New(&s, seed).NewServePlan(seed, phase, nUE, tc.seconds)
		queried := New(&s, seed).NewServePlan(seed, phase, nUE, tc.seconds)
		arrivals := rand.New(rand.NewSource(int64(tc.seconds * 1000)))
		for ue := 0; ue < nUE; ue++ {
			eager := eagerLossWindows(seed, phase, ue, tc.rate, tc.burstS, tc.seconds)
			if got := lossWindows(walked, ue); !reflect.DeepEqual(got, eager) {
				t.Fatalf("%+v UE %d: lazy windows %v, eager %v", tc, ue, got, eager)
			}
			at, drops, next := 0.0, 0, 0
			for at < tc.seconds {
				// Arrivals land on window edges as well as between them.
				for next < len(eager) && eager[next].to <= at {
					next++
				}
				if next < len(eager) && arrivals.Intn(4) == 0 {
					at = math.Max(at, []float64{eager[next].from, eager[next].to}[arrivals.Intn(2)])
				}
				want := false
				for _, w := range eager {
					want = want || w.contains(at)
				}
				if got := queried.DropGTPU(ue, at); got != want {
					t.Fatalf("%+v UE %d at %v: DropGTPU %v, eager windows say %v", tc, ue, at, got, want)
				}
				if want {
					drops++
				}
				at += arrivals.ExpFloat64() * tc.burstS / 4
			}
			if drops == 0 && len(eager) > 0 {
				t.Errorf("%+v UE %d: no arrival fell in any of %d windows", tc, ue, len(eager))
			}
		}
	}
}

// Serve-plan identity must not depend on the number of UEs in the
// phase: UE k's windows with 4 UEs equal UE k's windows with 40.
func TestServePlanUECountIndependent(t *testing.T) {
	s := Schedule{GTPULossRate: 0.3, GTPUDupRate: 0.2, UEChurnRate: 0.8}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	small := New(&s, 7).NewServePlan(7, 3, 4, 20)
	big := New(&s, 7).NewServePlan(7, 3, 40, 20)
	for ue := 0; ue < 4; ue++ {
		smallLoss, bigLoss := lossWindows(small, ue), lossWindows(big, ue)
		for i, w := range smallLoss {
			if bigLoss[i] != w {
				t.Fatalf("loss windows differ for UE %d", ue)
			}
		}
		if len(smallLoss) != len(bigLoss) {
			t.Fatalf("loss window count differs for UE %d", ue)
		}
		if small.churn[ue] != big.churn[ue] {
			t.Fatalf("churn windows differ for UE %d", ue)
		}
		for i := 0; i < 100; i++ {
			if small.DupGTPU(ue) != big.DupGTPU(ue) {
				t.Fatalf("dup stream differs for UE %d at draw %d", ue, i)
			}
		}
	}
}

func TestCountsSubNonZero(t *testing.T) {
	a := Counts{SRSDrops: 10, Replans: 2}
	b := Counts{SRSDrops: 4}
	d := a.Sub(b)
	if d.SRSDrops != 6 || d.Replans != 2 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	nz := d.NonZero()
	if len(nz) != 2 || nz[0].Name != "srs_drop" || nz[0].N != 6 || nz[1].Name != "replan" {
		t.Fatalf("NonZero wrong: %+v", nz)
	}
	if !(Counts{}).IsZero() || d.IsZero() {
		t.Fatal("IsZero wrong")
	}
}
