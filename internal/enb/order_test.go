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
// IMSI map, keep the connected ones with a decodable channel, sort them
// by RNTI, allocate. It reads the cell without advancing it, so it
// predicts the plan of the next TTI.
func referencePlan(e *ENodeB) []Alloc {
	var active []*UEContext
	for _, ctx := range e.byIMSI {
		if ctx.RRC == RRCConnected && ctx.CQI > 0 {
			active = append(active, ctx)
		}
	}
	sort.Slice(active, func(i, j int) bool { return active[i].RNTI < active[j].RNTI })
	if len(active) == 0 {
		return nil
	}
	ttis := int(e.ttis + 1)
	prbs := e.Num.PRBs
	nPRB := make([]int, len(active))
	switch e.Policy {
	case RoundRobin:
		for i := range active {
			nPRB[i] = prbs / len(active)
			if (i+ttis)%len(active) < prbs%len(active) {
				nPRB[i]++
			}
		}
	case MaxCQI:
		best := 0
		for i, ctx := range active[1:] {
			if ctx.CQI > active[best].CQI || (ctx.CQI == active[best].CQI && ctx.RNTI < active[best].RNTI) {
				best = i + 1
			}
		}
		nPRB[best] = prbs
	case ProportionalFair:
		best, bestMetric := 0, -1.0
		for i, ctx := range active {
			if m := BitsPerPRBTTI(ctx.CQI) / max(ctx.avgRateBps, 1); m > bestMetric {
				bestMetric, best = m, i
			}
		}
		nPRB[best] = prbs
	}
	var out []Alloc
	start := 0
	for i, ctx := range active {
		out = append(out, Alloc{RNTI: ctx.RNTI, IMSI: ctx.IMSI, CQI: ctx.CQI, Start: start, N: nPRB[i]})
		start += nPRB[i]
	}
	return out
}

// starvedTTIs maps each context's IMSI to its starved-TTI count; ahead
// adds the TTI about to run, which counts the connected contexts with an
// undecodable channel and data queued.
func starvedTTIs(e *ENodeB, ahead bool) map[epc.IMSI]uint64 {
	out := make(map[epc.IMSI]uint64)
	for imsi, ctx := range e.byIMSI {
		out[imsi] = ctx.starvedTTIs
		if ahead && ctx.RRC == RRCConnected && ctx.CQI == 0 && ctx.bearer != nil && ctx.bearer.QueuedPackets() > 0 {
			out[imsi]++
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
	// wrapped counts checked plans holding RNTIs from both sides of a
	// nextRNTI wrap.
	wrapped int
}

func newOrderRig(t *testing.T, r *rand.Rand, policy SchedulerPolicy) *orderRig {
	hss := epc.NewHSS()
	g := &orderRig{t: t, r: r, core: epc.NewCore(hss), where: make(map[epc.IMSI]int)}
	for c := range g.cells {
		g.cells[c] = New(ltephy.LTE10MHz(), g.core, policy)
	}
	seen := make(map[epc.IMSI]bool)
	for len(g.pool) < 40 {
		imsi := epc.IMSI(fmt.Sprintf("0010100000%05d", r.Intn(100000)))
		if seen[imsi] {
			continue
		}
		seen[imsi] = true
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(7), QoSClass: 9})
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

// freeRNTI reports whether cell c's next RNTI is unused: reusing a live
// RNTI after a wrap is outside the scheduler's contract, so the rig
// never does it.
func (g *orderRig) freeRNTI(c int) bool {
	_, live := g.cells[c].byRNTI[g.cells[c].nextRNTI]
	return !live
}

func (g *orderRig) step() {
	t, r := g.t, g.r
	att := g.attached()
	switch op := r.Intn(9); {
	case op == 0 || len(att) == 0: // attach
		c := r.Intn(2)
		imsi := g.pool[r.Intn(len(g.pool))]
		if _, ok := g.where[imsi]; ok || !g.freeRNTI(c) {
			return
		}
		if _, err := g.cells[c].Attach(imsi, key(7), r.Uint64()); err != nil {
			t.Fatal(err)
		}
		g.where[imsi] = c
	case op == 1: // detach
		imsi := att[r.Intn(len(att))]
		g.cells[g.where[imsi]].Detach(imsi)
		delete(g.where, imsi)
	case op == 2: // handover
		imsi := att[r.Intn(len(att))]
		from := g.where[imsi]
		if !g.freeRNTI(1 - from) {
			return
		}
		hc, err := g.cells[from].ReleaseForHandover(imsi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.cells[1-from].AdoptForHandover(hc); err != nil {
			t.Fatal(err)
		}
		g.where[imsi] = 1 - from
	case op == 3: // cold restore, sometimes with nextRNTI about to wrap
		c := r.Intn(2)
		st := g.cells[c].Snapshot()
		if r.Intn(3) == 0 {
			st.NextRNTI = 65535 - uint16(r.Intn(4))
		}
		if err := g.cells[c].Restore(st, g.core.Session); err != nil {
			t.Fatal(err)
		}
	case op <= 5: // channel reports, some undecodable
		for _, imsi := range att {
			if r.Intn(2) == 0 {
				g.cells[g.where[imsi]].ReportSNR(imsi, r.Float64()*45-15)
			}
		}
	case op == 6: // downlink data, so starvation counts
		imsi := att[r.Intn(len(att))]
		b, _ := g.cells[g.where[imsi]].Bearer(imsi)
		b.Enqueue(1+r.Intn(1500), 0)
	default: // a TTI on one cell, planned or run
		g.tti(r.Intn(2))
	}
}

// tti runs one scheduling interval on cell c and checks it against the
// reference: the same allocations in the same ascending-RNTI order, and
// the same starvation counts.
func (g *orderRig) tti(c int) {
	e := g.cells[c]
	want := referencePlan(e)
	wantStarved := starvedTTIs(e, true)
	var got []Alloc
	if g.r.Intn(2) == 0 {
		got = e.PlanTTI().Allocs
	} else {
		var granted []epc.IMSI
		e.RunTTIFunc(func(imsi epc.IMSI, _ float64) { granted = append(granted, imsi) })
		got = append([]Alloc(nil), e.schedPlan.Allocs...)
		var wantGranted []epc.IMSI
		for _, a := range want {
			if a.N > 0 && BitsPerPRBTTI(a.CQI) > 0 {
				wantGranted = append(wantGranted, a.IMSI)
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
	if s := starvedTTIs(e, false); !reflect.DeepEqual(s, wantStarved) {
		g.t.Fatalf("cell %d: starved TTIs %v, want %v", c, s, wantStarved)
	}
}

// Plans stay in ascending RNTI order, with the allocations and
// starvation counts of the map-walk-and-sort scheduler, under random
// interleavings of Attach, Detach, ReleaseForHandover,
// AdoptForHandover and Restore, nextRNTI wraps included.
func TestSchedulerOrderUnderChurn(t *testing.T) {
	for _, policy := range []SchedulerPolicy{RoundRobin, MaxCQI, ProportionalFair} {
		wrapped := 0
		prop := func(seed int64) bool {
			g := newOrderRig(t, rand.New(rand.NewSource(seed)), policy)
			for i := 0; i < 400; i++ {
				g.step()
			}
			wrapped += g.wrapped
			return !t.Failed()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(int64(policy) + 1))}); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if wrapped == 0 {
			t.Errorf("%s: no checked plan spanned a nextRNTI wrap", policy)
		}
	}
}

// A nextRNTI wrap past 65535 hands out small RNTIs again: those UEs
// schedule first, as an RNTI sort would put them.
func TestSchedulerOrderAcrossRNTIWrap(t *testing.T) {
	hss := epc.NewHSS()
	core := epc.NewCore(hss)
	e := New(ltephy.LTE10MHz(), core, RoundRobin)
	if err := e.Restore(State{NextRNTI: 65534}, core.Session); err != nil {
		t.Fatal(err)
	}
	var imsis []epc.IMSI
	for i := 0; i < 4; i++ {
		imsi := epc.IMSI(fmt.Sprintf("w%d", i))
		hss.Provision(epc.Subscriber{IMSI: imsi, Key: key(byte(i)), QoSClass: 9})
		if _, err := e.Attach(imsi, key(byte(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
		e.ReportSNR(imsi, 20)
		imsis = append(imsis, imsi)
	}
	var got []uint16
	for _, a := range e.PlanTTI().Allocs {
		got = append(got, a.RNTI)
	}
	if want := []uint16{0, 1, 65534, 65535}; !reflect.DeepEqual(got, want) {
		t.Fatalf("plan RNTIs %v, want %v", got, want)
	}
	e.Detach(imsis[2]) // RNTI 0
	got = got[:0]
	for _, a := range e.PlanTTI().Allocs {
		got = append(got, a.RNTI)
	}
	if want := []uint16{1, 65534, 65535}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after detach, plan RNTIs %v, want %v", got, want)
	}
}
