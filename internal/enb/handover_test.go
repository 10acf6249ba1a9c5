package enb

import (
	"testing"

	"repro/internal/epc"
	"repro/internal/ltephy"
)

func twoCells(t *testing.T) (*ENodeB, *ENodeB, *epc.Core) {
	t.Helper()
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	hss.Provision(epc.Subscriber{IMSI: "001010000000001", Key: [16]byte{1}, QoSClass: 9})
	a := New(ltephy.LTE10MHz(), core)
	b := New(ltephy.LTE10MHz(), core)
	return a, b, core
}

// The X2 transfer must conserve every in-flight byte: packets queued at
// the source drain at the target with nothing lost, duplicated, or
// re-tunneled, and the scheduler accounting continues.
func TestHandoverTransferZeroByteLoss(t *testing.T) {
	src, dst, core := twoCells(t)
	imsi := epc.IMSI("001010000000001")
	ctx, err := src.Attach(4, imsi, [16]byte{1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ReportSNR(20)
	bearer := ctxOf(t, src, imsi).Bearer()
	for i := 0; i < 5; i++ {
		if !bearer.Enqueue(100+i, float64(i)) {
			t.Fatalf("packet %d tail-dropped", i)
		}
	}
	wantBytes := bearer.QueuedBytes()
	wantPkts := bearer.QueuedPackets()
	served := ctx.ServedBits()

	hc, err := src.ReleaseForHandover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hc.QueuedBytes != wantBytes {
		t.Fatalf("transfer recorded %d queued bytes, want %d", hc.QueuedBytes, wantBytes)
	}
	if _, ok := src.Context(imsi); ok {
		t.Fatal("source still holds the context after release")
	}
	if _, ok := core.Session(imsi); !ok {
		t.Fatal("EPC session did not survive the handover release")
	}

	nctx, err := dst.AdoptForHandover(hc)
	if err != nil {
		t.Fatal(err)
	}
	if nctx.RNTI == ctx.RNTI && nctx.RNTI != 61 {
		// Both cells start their RNTI space at 61, so equality here is
		// coincidental, not shared identity.
		t.Fatalf("unexpected RNTI reuse: %d", nctx.RNTI)
	}
	if nctx.CQI != 0 {
		t.Fatalf("adopted context CQI = %d, want 0 (no CSI yet)", nctx.CQI)
	}
	if nctx.UE != ctx.UE {
		t.Fatalf("adopted context carries UE index %d, want %d", nctx.UE, ctx.UE)
	}
	if nctx.Session.TEID != ctx.Session.TEID {
		t.Fatalf("TEID changed across handover: %d -> %d", ctx.Session.TEID, nctx.Session.TEID)
	}
	got := ctxOf(t, dst, imsi).Bearer()
	if got != bearer {
		t.Fatal("bearer object did not move with the context")
	}
	if got.QueuedBytes() != wantBytes || got.QueuedPackets() != wantPkts {
		t.Fatalf("backlog changed in transfer: %d bytes/%d pkts, want %d/%d",
			got.QueuedBytes(), got.QueuedPackets(), wantBytes, wantPkts)
	}
	if nctx.ServedBits() != served {
		t.Fatalf("served-bits accounting reset: %v, want %v", nctx.ServedBits(), served)
	}

	// The target can serve the transferred backlog to completion.
	nctx.ReportSNR(20)
	var delivered int
	for i := 0; i < 100 && got.QueuedPackets() > 0; i++ {
		runTTI(dst, func(_ int, bits float64) {
			for _, d := range got.Credit(bits) {
				delivered += d.Bytes
			}
		})
	}
	if delivered != wantBytes {
		t.Fatalf("delivered %d bytes at target, want %d", delivered, wantBytes)
	}
}

func TestReleaseForHandoverUnknownUE(t *testing.T) {
	src, dst, _ := twoCells(t)
	if _, err := src.ReleaseForHandover(&UEContext{IMSI: "001019999999999"}); err == nil {
		t.Fatal("release of unknown UE should fail")
	}
	// Nor does a cell release another cell's context.
	ctx, err := dst.Attach(0, "001010000000001", [16]byte{1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.ReleaseForHandover(ctx); err == nil {
		t.Fatal("release of a context another cell holds should fail")
	}
}

func TestAdoptForHandoverDuplicate(t *testing.T) {
	src, dst, _ := twoCells(t)
	imsi := epc.IMSI("001010000000001")
	ctx, err := src.Attach(0, imsi, [16]byte{1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := src.ReleaseForHandover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AdoptForHandover(hc); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.AdoptForHandover(hc); err == nil {
		t.Fatal("double adopt should fail")
	}
}

// A3 semantics: the candidate must be better by the hysteresis margin
// continuously for the time-to-trigger; wobbles reset the clock.
func TestHandoverEngineA3(t *testing.T) {
	cfg := HandoverConfig{HysteresisDB: 3, TTTs: 0.3, InterruptS: 0.05, PingPongWindowS: 1}
	h := NewHandoverEngine(cfg, 1, 2)
	dt := 0.1
	now := 0.0
	step := func(scores []float64) (int, bool) {
		now += dt
		return h.Evaluate(0, now, dt, 0, scores)
	}
	// Better but under hysteresis: never triggers.
	for i := 0; i < 10; i++ {
		if _, fired := step([]float64{10, 12}); fired {
			t.Fatal("triggered below hysteresis")
		}
	}
	// Above hysteresis for 2 ticks (0.2 s < TTT), then a dip: reset.
	step([]float64{10, 14})
	step([]float64{10, 14})
	step([]float64{10, 11}) // dip resets candidacy
	step([]float64{10, 14})
	step([]float64{10, 14})
	if _, fired := step([]float64{10, 14}); !fired {
		t.Fatal("expected trigger after continuous TTT")
	}
	st := h.Stats()
	if st.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", st.Attempts)
	}
	h.Complete(0, now, 0, 1)
	if !h.Interrupted(0, now+0.01) {
		t.Fatal("UE should be interrupted right after handover")
	}
	if h.Interrupted(0, now+1) {
		t.Fatal("interruption should have elapsed")
	}
	// Immediate return to cell 0 within the window is a ping-pong.
	now += 0.2
	h.Complete(0, now, 1, 0)
	st = h.Stats()
	if st.Successes != 2 || st.PingPongs != 1 {
		t.Fatalf("successes=%d pingpongs=%d, want 2/1", st.Successes, st.PingPongs)
	}
	if st.PerCellOut[0] != 1 || st.PerCellIn[1] != 1 || st.PerCellOut[1] != 1 || st.PerCellIn[0] != 1 {
		t.Fatalf("per-cell counters wrong: %+v", st)
	}
	if h.UESuccesses(0) != 2 {
		t.Fatalf("UESuccesses = %d, want 2", h.UESuccesses(0))
	}

	// Snapshot/restore round-trips the whole state.
	snap := h.Snapshot()
	h2 := NewHandoverEngine(cfg, 1, 2)
	if err := h2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if h2.Stats().Successes != 2 || h2.UESuccesses(0) != 2 {
		t.Fatal("restored engine lost state")
	}
}

// Restore rebuilds the contexts of an eNodeB whose attach layout
// differs from the snapshot's.
func TestRestoreRebuildsLayout(t *testing.T) {
	src, dst, core := twoCells(t)
	imsi := epc.IMSI("001010000000001")
	ctx, err := src.Attach(3, imsi, [16]byte{1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ReportSNR(15)
	if !ctx.Bearer().Enqueue(64, 1.5) {
		t.Fatal("packet tail-dropped")
	}
	runTTI(src, nil)
	snap := src.Snapshot()

	// dst has a different (empty) attach layout; Restore rebuilds it.
	if err := dst.Restore(snap, resolver(core, map[epc.IMSI]int{imsi: 3})); err != nil {
		t.Fatal(err)
	}
	if dst.Snapshot().NextRNTI != snap.NextRNTI {
		t.Fatal("nextRNTI not restored")
	}
	got, ok := dst.Context(imsi)
	if !ok || got.Bearer().QueuedBytes() != 64 {
		t.Fatalf("cold-restored bearer backlog wrong: ok=%v", ok)
	}
	if got.ServedBits() != ctx.ServedBits() {
		t.Fatal("served bits not restored")
	}
	if got.UE != 3 {
		t.Fatalf("restored context carries UE index %d, want 3", got.UE)
	}
	// An IMSI the owner cannot resolve fails the restore.
	if err := dst.Restore(snap, resolver(core, nil)); err == nil {
		t.Fatal("restore accepted a UE the owner does not know")
	}
}
