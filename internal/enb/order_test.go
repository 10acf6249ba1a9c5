package enb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/epc"
	"repro/internal/ltephy"
)

// referencePlan is the scheduler's plan as it was computed before the
// eNodeB kept an RNTI-ordered context list: walk every context in the
// IMSI map, keep the ones with a decodable channel, sort them by RNTI,
// share the PRBs round-robin, and list the UEs granted at least one
// PRB. It reads the cell without advancing it, so it predicts the plan
// of the next TTI.
func referencePlan(e *ENodeB) []Alloc {
	var active []*UEContext
	for _, ctx := range e.byIMSI {
		if ctx.CQI > 0 {
			active = append(active, ctx)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].RNTI < active[j].RNTI })
	ttis := int(e.ttis + 1)
	prbs := e.Num.PRBs
	var out []Alloc
	start := 0
	for i, ctx := range active {
		n := prbs / len(active)
		if (i+ttis)%len(active) < prbs%len(active) {
			n++
		}
		if n > 0 {
			out = append(out, Alloc{RNTI: ctx.RNTI, UE: ctx.UE, CQI: ctx.CQI, Start: start, N: n})
			start += n
		}
	}
	return out
}

// cellStarved maps each context's UE index to its starved-TTI count;
// ahead adds the TTI about to run, which counts the contexts with an
// undecodable channel and data queued.
func cellStarved(e *ENodeB, ahead bool) map[int]uint64 {
	out := make(map[int]uint64)
	for _, ctx := range e.byIMSI {
		out[ctx.UE] = ctx.starvedTTIs
		if ahead && ctx.CQI == 0 && ctx.bearer.QueuedPackets() > 0 {
			out[ctx.UE]++
		}
	}
	return out
}

// orderRig is two cells on one core plus a pool of provisioned UEs,
// driven through random interleavings of every operation that changes
// a cell's context set.
type orderRig struct {
	t     *testing.T
	r     *rand.Rand
	core  *epc.Core
	cells [2]*ENodeB
	where map[epc.IMSI]int // attached UE -> cell
	pool  []epc.IMSI
	index map[epc.IMSI]int // pool UE -> its index in pool
	// wrapped counts checked plans holding RNTIs from both sides of a
	// nextRNTI wrap; skipped counts RNTI assignments that skipped a
	// live RNTI.
	wrapped, skipped int
}

func newOrderRig(t *testing.T, r *rand.Rand) *orderRig {
	hss := epc.NewHSS()
	g := &orderRig{t: t, r: r, core: epc.NewCore(hss), where: make(map[epc.IMSI]int), index: make(map[epc.IMSI]int)}
	for c := range g.cells {
		g.cells[c] = New(ltephy.LTE10MHz(), g.core)
	}
	seen := make(map[epc.IMSI]bool)
	for len(g.pool) < 40 {
		imsi := epc.IMSI(fmt.Sprintf("0010100000%05d", r.Intn(100000)))
		if seen[imsi] {
			continue
		}
		seen[imsi] = true
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(7), QoSClass: 9})
		g.index[imsi] = len(g.pool)
		g.pool = append(g.pool, imsi)
	}
	return g
}

func (g *orderRig) attached() []epc.IMSI {
	var out []epc.IMSI
	for _, imsi := range g.pool {
		if _, ok := g.where[imsi]; ok {
			out = append(out, imsi)
		}
	}
	return out
}

// contextOf returns the context of an attached pool UE, from its cell.
func (g *orderRig) contextOf(imsi epc.IMSI) *UEContext {
	return ctxOf(g.t, g.cells[g.where[imsi]], imsi)
}

// assigned notes a context cell c just created: it carries its UE's
// pool index, its RNTI is unique in the cell, and the RNTI differs from
// the nextRNTI before the call only when the cell skipped a live RNTI.
func (g *orderRig) assigned(c int, ctx *UEContext, next uint16) {
	if want := g.index[ctx.IMSI]; ctx.UE != want {
		g.t.Fatalf("cell %d: context for %s carries UE index %d, want %d", c, ctx.IMSI, ctx.UE, want)
	}
	for _, other := range g.cells[c].ordered {
		if other != ctx && other.RNTI == ctx.RNTI {
			g.t.Fatalf("cell %d: RNTI %d assigned to %s is live for %s", c, ctx.RNTI, ctx.IMSI, other.IMSI)
		}
	}
	if ctx.RNTI != next {
		g.skipped++
	}
}

func (g *orderRig) step() {
	t, r := g.t, g.r
	att := g.attached()
	switch op := r.Intn(9); {
	case op == 0 || len(att) == 0: // attach
		c := r.Intn(2)
		imsi := g.pool[r.Intn(len(g.pool))]
		if _, ok := g.where[imsi]; ok {
			return
		}
		next := g.cells[c].nextRNTI
		ctx, err := g.cells[c].Attach(g.index[imsi], imsi, key(7), r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		g.assigned(c, ctx, next)
		g.where[imsi] = c
	case op == 1: // detach
		imsi := att[r.Intn(len(att))]
		g.cells[g.where[imsi]].Detach(g.contextOf(imsi))
		delete(g.where, imsi)
	case op == 2: // handover
		imsi := att[r.Intn(len(att))]
		from := g.where[imsi]
		hc, err := g.cells[from].ReleaseForHandover(g.contextOf(imsi))
		if err != nil {
			t.Fatal(err)
		}
		next := g.cells[1-from].nextRNTI
		ctx, err := g.cells[1-from].AdoptForHandover(hc)
		if err != nil {
			t.Fatal(err)
		}
		g.assigned(1-from, ctx, next)
		g.where[imsi] = 1 - from
	case op == 3: // restore, sometimes with nextRNTI about to wrap or on a live RNTI
		c := r.Intn(2)
		st := g.cells[c].Snapshot()
		switch r.Intn(3) {
		case 0:
			st.NextRNTI = 65535 - uint16(r.Intn(4))
		case 1:
			if len(st.UEs) > 0 {
				st.NextRNTI = st.UEs[r.Intn(len(st.UEs))].RNTI
			}
		}
		if err := g.cells[c].Restore(st, resolver(g.core, g.index)); err != nil {
			t.Fatal(err)
		}
		for _, ctx := range g.cells[c].ordered {
			if want := g.index[ctx.IMSI]; ctx.UE != want {
				t.Fatalf("cell %d: restored context for %s carries UE index %d, want %d", c, ctx.IMSI, ctx.UE, want)
			}
		}
	case op <= 5: // channel reports, some undecodable
		for _, imsi := range att {
			if r.Intn(2) == 0 {
				g.contextOf(imsi).ReportSNR(r.Float64()*45 - 15)
			}
		}
	case op == 6: // downlink data, so starvation counts
		imsi := att[r.Intn(len(att))]
		g.contextOf(imsi).Bearer().Enqueue(1+r.Intn(1500), 0)
	default: // a TTI on one cell, committed or not
		g.tti(r.Intn(2))
	}
}

// tti plans one scheduling interval on cell c, commits it or not, and
// checks it against the reference: the same allocations in the same
// ascending-RNTI order, the occupied PRBs they sum to, grants to the
// UEs with bits to take, and the same starvation counts.
func (g *orderRig) tti(c int) {
	e := g.cells[c]
	want := referencePlan(e)
	wantStarved := cellStarved(e, true)
	occupied := e.PlanTTI()
	got := append([]Alloc(nil), e.plan...)
	if n := sumPRBs(want); occupied != n {
		g.t.Fatalf("cell %d: plan occupies %d PRBs, want %d", c, occupied, n)
	}
	if g.r.Intn(2) == 0 {
		var granted []int
		e.CommitTTI(nil, func(ue int, _ float64) { granted = append(granted, ue) })
		var wantGranted []int
		for _, a := range want {
			if BitsPerPRBTTI(a.CQI) > 0 {
				wantGranted = append(wantGranted, a.UE)
			}
		}
		if !reflect.DeepEqual(granted, wantGranted) {
			g.t.Fatalf("cell %d: grants went to %v, want %v", c, granted, wantGranted)
		}
	}
	if len(got) == 0 {
		got = nil
	}
	if !reflect.DeepEqual(got, want) {
		g.t.Fatalf("cell %d: plan\n%v\nwant\n%v", c, got, want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].RNTI >= got[i].RNTI {
			g.t.Fatalf("cell %d: plan out of RNTI order at %d: %v", c, i, got)
		}
	}
	if len(got) > 1 && got[0].RNTI < 61 && got[len(got)-1].RNTI > 65000 {
		g.wrapped++
	}
	if s := cellStarved(e, false); !reflect.DeepEqual(s, wantStarved) {
		g.t.Fatalf("cell %d: starved TTIs %v, want %v", c, s, wantStarved)
	}
}

// sumPRBs is the number of PRBs allocs occupy.
func sumPRBs(allocs []Alloc) int {
	n := 0
	for _, a := range allocs {
		n += a.N
	}
	return n
}

// Plans stay in ascending RNTI order, with the allocations and
// starvation counts of the map-walk-and-sort scheduler, under random
// interleavings of Attach, Detach, ReleaseForHandover,
// AdoptForHandover and Restore, nextRNTI wraps included; a nextRNTI
// that lands on a live RNTI is skipped, never reissued.
func TestSchedulerOrderUnderChurn(t *testing.T) {
	wrapped, skipped := 0, 0
	prop := func(seed int64) bool {
		g := newOrderRig(t, rand.New(rand.NewSource(seed)))
		for i := 0; i < 400; i++ {
			g.step()
		}
		wrapped += g.wrapped
		skipped += g.skipped
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if wrapped == 0 {
		t.Error("no checked plan spanned a nextRNTI wrap")
	}
	if skipped == 0 {
		t.Error("no RNTI assignment skipped a live RNTI")
	}
}

// A nextRNTI wrap past 65535 hands out small RNTIs again: those UEs
// schedule first, as an RNTI sort would put them.
func TestSchedulerOrderAcrossRNTIWrap(t *testing.T) {
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	e := New(ltephy.LTE10MHz(), core)
	if err := e.Restore(State{NextRNTI: 65534}, resolver(core, nil)); err != nil {
		t.Fatal(err)
	}
	var ctxs []*UEContext
	for i := 0; i < 4; i++ {
		imsi := epc.IMSI(fmt.Sprintf("w%d", i))
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(byte(i)), QoSClass: 9})
		ctx, err := e.Attach(i, imsi, key(byte(i)), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ctx.ReportSNR(20)
		ctxs = append(ctxs, ctx)
	}
	var got []uint16
	e.PlanTTI()
	for _, a := range e.plan {
		got = append(got, a.RNTI)
	}
	if want := []uint16{0, 1, 65534, 65535}; !reflect.DeepEqual(got, want) {
		t.Fatalf("plan RNTIs %v, want %v", got, want)
	}
	e.Detach(ctxs[2]) // RNTI 0
	got = got[:0]
	e.PlanTTI()
	for _, a := range e.plan {
		got = append(got, a.RNTI)
	}
	if want := []uint16{1, 65534, 65535}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after detach, plan RNTIs %v, want %v", got, want)
	}
}

// A UE holds its RNTI while the cell hands out the other 65,535: the
// next assignment wraps onto the held RNTI and must skip it. The
// newcomer gets the next free RNTI, both UEs take their grants, and
// the cell's snapshot restores. A cell whose every RNTI is live
// refuses the next context.
func TestRNTIWrapSkipsLiveRNTI(t *testing.T) {
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	e := New(ltephy.LTE10MHz(), core)
	for i, imsi := range []epc.IMSI{"held", "roamer", "late"} {
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(byte(i)), QoSClass: 9})
	}
	held, err := e.Attach(0, "held", key(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The roamer takes one RNTI on attach and one per handover back in.
	roamer, err := e.Attach(1, "roamer", key(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; ; n++ {
		hc, err := e.ReleaseForHandover(roamer)
		if err != nil {
			t.Fatal(err)
		}
		if n == 65535 {
			break
		}
		if roamer, err = e.AdoptForHandover(hc); err != nil {
			t.Fatal(err)
		}
	}
	if e.nextRNTI != held.RNTI {
		t.Fatalf("nextRNTI %d after 65,535 assignments, want the held RNTI %d", e.nextRNTI, held.RNTI)
	}
	late, err := e.Attach(2, "late", key(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if late.RNTI != held.RNTI+1 {
		t.Fatalf("newcomer got RNTI %d, want %d (the held RNTI %d skipped)", late.RNTI, held.RNTI+1, held.RNTI)
	}

	held.ReportSNR(20)
	late.ReportSNR(20)
	e.PlanTTI()
	var granted []int
	e.CommitTTI(nil, func(ue int, _ float64) { granted = append(granted, ue) })
	if want := []int{held.UE, late.UE}; !reflect.DeepEqual(granted, want) {
		t.Fatalf("grants went to %v, want %v", granted, want)
	}
	index := map[epc.IMSI]int{"held": 0, "late": 2}
	if err := New(ltephy.LTE10MHz(), core).Restore(e.Snapshot(), resolver(core, index)); err != nil {
		t.Fatalf("the cell's own snapshot fails Restore: %v", err)
	}

	full := New(ltephy.LTE10MHz(), core)
	for r := range 1 << 16 {
		full.ordered = append(full.ordered, &UEContext{RNTI: uint16(r)})
	}
	hc, err := e.ReleaseForHandover(late)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.AdoptForHandover(hc); err == nil {
		t.Fatal("a cell with every RNTI live adopted another context")
	}
}
