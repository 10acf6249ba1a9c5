package enb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/epc"
	"repro/internal/ltephy"
)

func key(b byte) [16]byte {
	var k [16]byte
	for i := range k {
		k[i] = b
	}
	return k
}

// rig builds an eNodeB with n attached UEs named "ue0".."ueN-1", at
// UE indices 0..n-1.
func rig(t *testing.T, n int) *ENodeB {
	t.Helper()
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	e := New(ltephy.LTE10MHz(), core)
	for i := 0; i < n; i++ {
		imsi := epc.IMSI(fmt.Sprintf("ue%d", i))
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(byte(i)), QoSClass: 9})
		if _, err := e.Attach(i, imsi, key(byte(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// ctxOf returns e's context for imsi, failing the test if e holds none.
func ctxOf(t *testing.T, e *ENodeB, imsi epc.IMSI) *UEContext {
	t.Helper()
	ctx, ok := e.Context(imsi)
	if !ok {
		t.Fatalf("no context for %s", imsi)
	}
	return ctx
}

// resolver is a Restore callback that gives each IMSI its index in
// index and its session in core.
func resolver(core *epc.Core, index map[epc.IMSI]int) func(epc.IMSI) (int, *epc.Session, bool) {
	return func(imsi epc.IMSI) (int, *epc.Session, bool) {
		ue, known := index[imsi]
		s, ok := core.Session(imsi)
		return ue, s, known && ok
	}
}

// runTTI plans and commits one scheduling interval at the plain CQI
// rate and returns the bits served.
func runTTI(e *ENodeB, grant func(ue int, bits float64)) float64 {
	e.PlanTTI()
	return e.CommitTTI(nil, grant)
}

func TestAttachCreatesContext(t *testing.T) {
	e := rig(t, 2)
	ctx, ok := e.Context("ue0")
	if !ok || ctx.Session == nil || ctx.UE != 0 {
		t.Fatalf("context = %+v", ctx)
	}
	if other := ctxOf(t, e, "ue1"); ctx.RNTI == other.RNTI || other.UE != 1 {
		t.Errorf("RNTIs must be unique and each context carries its UE index: %+v, %+v", ctx, other)
	}
	if len(e.ordered) != 2 {
		t.Error("connected count")
	}
}

func TestAttachUnknownFails(t *testing.T) {
	core := epc.NewCore(epc.NewHSS())
	e := New(ltephy.LTE10MHz(), core)
	if _, err := e.Attach(0, "ghost", key(1), 1); err == nil {
		t.Error("unknown subscriber should fail attach")
	}
}

func TestDetachReleases(t *testing.T) {
	e := rig(t, 1)
	e.Detach(ctxOf(t, e, "ue0"))
	if _, ok := e.Context("ue0"); ok {
		t.Error("context should be released")
	}
	if len(e.ordered) != 0 {
		t.Error("still connected after detach")
	}
}

func TestRunTTINoUEs(t *testing.T) {
	core := epc.NewCore(epc.NewHSS())
	e := New(ltephy.LTE10MHz(), core)
	if e.PlanTTI() != 0 || e.CommitTTI(nil, nil) != 0 {
		t.Error("no UEs should serve 0 bits")
	}
}

func TestRunTTIOutageUEExcluded(t *testing.T) {
	e := rig(t, 1)
	ctxOf(t, e, "ue0").ReportSNR(-30) // outage: CQI 0
	if runTTI(e, nil) != 0 {
		t.Error("outage UE should receive nothing")
	}
}

func TestThroughputMatchesCQITable(t *testing.T) {
	e := rig(t, 1)
	ue0 := ctxOf(t, e, "ue0")
	ue0.ReportSNR(25) // CQI 15
	for i := 0; i < 1000; i++ {
		runTTI(e, nil)
	}
	bps := ue0.ServedBits() // 1000 TTIs = 1 s
	want := ltephy.LTE10MHz().ThroughputBps(25)
	if math.Abs(bps-want)/want > 0.01 {
		t.Errorf("served %v bps, want ~%v", bps, want)
	}
}

func TestRoundRobinFairAllocation(t *testing.T) {
	e := rig(t, 2)
	ue0, ue1 := ctxOf(t, e, "ue0"), ctxOf(t, e, "ue1")
	ue0.ReportSNR(25)
	ue1.ReportSNR(25)
	for i := 0; i < 1000; i++ {
		runTTI(e, nil)
	}
	b0, b1 := ue0.ServedBits(), ue1.ServedBits()
	if math.Abs(b0-b1)/b0 > 0.02 {
		t.Errorf("unfair RR: %v vs %v", b0, b1)
	}
	// Each should get ~half the peak.
	want := ltephy.LTE10MHz().ThroughputBps(25) / 2
	if math.Abs(b0-want)/want > 0.05 {
		t.Errorf("per-UE %v, want ~%v", b0, want)
	}
}

// With more decodable UEs than PRBs (as on a 10,000-UE cell), each TTI
// grants one PRB to each of the 50 UEs in the rotation's window, which
// moves by one UE per TTI: over 120 TTIs each of 120 UEs is granted 50
// times, and the plan lists only the granted UEs.
func TestRoundRobinMoreUEsThanPRBs(t *testing.T) {
	const n = 120
	e := rig(t, n)
	prbs := e.Num.PRBs
	ctxs := make([]*UEContext, n)
	for u := range ctxs {
		ctxs[u] = ctxOf(t, e, epc.IMSI(fmt.Sprintf("ue%d", u)))
		ctxs[u].CQI = 1 + u%15
	}
	granted := make([]int, n)
	want := make([]float64, n)
	for tti := 0; tti < n; tti++ {
		occupied := e.PlanTTI()
		if len(e.plan) != prbs || occupied != prbs {
			t.Fatalf("TTI %d: plan holds %d allocations over %d PRBs, want %d one-PRB allocations", tti, len(e.plan), occupied, prbs)
		}
		for k, a := range e.plan {
			if a.N != 1 || a.Start != k || (k > 0 && a.RNTI <= e.plan[k-1].RNTI) {
				t.Fatalf("TTI %d: allocation %d is %+v after %+v, want one PRB at %d in ascending RNTI order", tti, k, a, e.plan[max(k-1, 0)], k)
			}
		}
		e.CommitTTI(nil, func(ue int, _ float64) {
			granted[ue]++
			want[ue] += BitsPerPRBTTI(ctxs[ue].CQI)
		})
	}
	for u, ctx := range ctxs {
		if granted[u] != prbs || ctx.ServedBits() != want[u] {
			t.Errorf("UE %d (CQI %d): %d grants, %v bits served, want %d grants and %v bits", u, ctx.CQI, granted[u], ctx.ServedBits(), prbs, want[u])
		}
	}
}

func TestPRBConservationProperty(t *testing.T) {
	// Total served bits can never exceed all PRBs at the best active
	// CQI — the scheduler cannot create capacity.
	e := rig(t, 3)
	ctxOf(t, e, "ue0").ReportSNR(5)
	ctxOf(t, e, "ue1").ReportSNR(15)
	ctxOf(t, e, "ue2").ReportSNR(25)
	for i := 0; i < 200; i++ {
		total := runTTI(e, nil)
		cap := BitsPerPRBTTI(15) * float64(e.Num.PRBs)
		if total > cap+1e-9 {
			t.Fatalf("TTI served %v bits > capacity %v", total, cap)
		}
	}
}

// The tabulated rate is the link-adaptation formula, bit for bit, at
// every CQI, out-of-range ones included.
func TestBitsPerPRBTTITable(t *testing.T) {
	for cqi := -2; cqi <= 20; cqi++ {
		want := 0.0
		if cqi > 0 {
			want = rePerPRBTTI * ltephy.EfficiencyForSNR(ltephy.SNRForCQI(cqi))
		}
		if got := BitsPerPRBTTI(cqi); got != want {
			t.Errorf("CQI %d: %v bits, formula %v", cqi, got, want)
		}
	}
}

func BenchmarkRunTTI(b *testing.B) {
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	e := New(ltephy.LTE10MHz(), core)
	for i := 0; i < 8; i++ {
		imsi := epc.IMSI(fmt.Sprintf("ue%d", i))
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(byte(i))})
		ctx, err := e.Attach(i, imsi, key(byte(i)), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		ctx.ReportSNR(float64(5 + 3*i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PlanTTI()
		e.CommitTTI(nil, nil)
	}
}

func TestSchedulerConservationProperty(t *testing.T) {
	// Property: over any sequence of random CQI reports, per-TTI served
	// bits never exceed the all-PRBs-at-best-active-CQI bound, and the
	// sum of per-UE credited bits equals the reported TTI totals.
	e := rig(t, 5)
	ues := make([]*UEContext, 5)
	for u := range ues {
		ues[u] = ctxOf(t, e, epc.IMSI(fmt.Sprintf("ue%d", u)))
	}
	rng := rand.New(rand.NewSource(42))
	var totalTTI float64
	for i := 0; i < 500; i++ {
		for _, ctx := range ues {
			ctx.ReportSNR(rng.Float64()*40 - 10)
		}
		best := 0
		for _, ctx := range e.ordered {
			if ctx.CQI > best {
				best = ctx.CQI
			}
		}
		served := runTTI(e, nil)
		if cap := BitsPerPRBTTI(best) * float64(e.Num.PRBs); served > cap+1e-6 {
			t.Fatalf("TTI %d: served %v > cap %v", i, served, cap)
		}
		totalTTI += served
	}
	var totalUE float64
	for _, ctx := range ues {
		totalUE += ctx.ServedBits()
	}
	if math.Abs(totalTTI-totalUE) > 1e-6*totalTTI {
		t.Errorf("bit accounting mismatch: %v vs %v", totalTTI, totalUE)
	}
}
