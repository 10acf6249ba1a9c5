package interference

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/terrain"
)

func testGraph(t *testing.T, plan Plan, n int) *Graph {
	t.Helper()
	surf := terrain.ByName("FLAT", 1)
	if surf == nil {
		t.Fatal("no FLAT terrain")
	}
	m := radio.NewModel(surf, radio.DefaultParams(), 1)
	b := surf.Bounds()
	cells := make([]geom.Vec3, n)
	for i := range cells {
		fr := (float64(i) + 0.5) / float64(n)
		cells[i] = geom.V2(b.MinX+fr*b.Width(), b.Center().Y).WithZ(60)
	}
	return NewGraph(plan, m, cells)
}

func TestParsePlan(t *testing.T) {
	for in, want := range map[string]Plan{"": PlanCochannel, "separate": PlanSeparate, "cochannel": PlanCochannel} {
		got, err := ParsePlan(in)
		if err != nil || got != want {
			t.Errorf("ParsePlan(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePlan("tdd"); err == nil {
		t.Error("unknown plan should fail")
	}
}

// SINR must never exceed the plain SNR, and must equal it bitwise when
// the interferer set is empty — the backward-compat contract the whole
// multicell subsystem leans on.
func TestSINRNeverExceedsSNRProperty(t *testing.T) {
	g := testGraph(t, PlanCochannel, 3)
	sep := testGraph(t, PlanSeparate, 3)
	b := g.Model.Terrain.Bounds()
	prop := func(fx, fy float64, serving uint8, start, n uint8, o0, o1, o2 uint8) bool {
		ue := geom.V2(
			b.MinX+math.Abs(math.Mod(fx, 1))*b.Width(),
			b.MinY+math.Abs(math.Mod(fy, 1))*b.Height(),
		)
		s := int(serving) % 3
		alloc := PRBInterval{Start: int(start) % 50, N: int(n) % 50}
		occ := []int{int(o0) % 51, int(o1) % 51, int(o2) % 51}
		snr := g.oracleSNRdB(s, ue)
		sinr := g.SINRdB(s, ue, alloc, occ)
		if sinr > snr {
			t.Logf("SINR %.6f > SNR %.6f at %v", sinr, snr, ue)
			return false
		}
		// Separate carriers: empty interferer set, bitwise equality.
		if got := sep.SINRdB(s, ue, alloc, occ); got != sep.oracleSNRdB(s, ue) {
			t.Logf("separate-plan SINR %.17g != SNR %.17g", got, sep.oracleSNRdB(s, ue))
			return false
		}
		// Wideband obeys the same ordering.
		if wb := g.WidebandSINRdB(s, ue, occ, 50); wb > snr {
			t.Logf("wideband SINR %.6f > SNR %.6f", wb, snr)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSINREqualsSNRWithoutOverlap(t *testing.T) {
	g := testGraph(t, PlanCochannel, 2)
	ue := g.Model.Terrain.Bounds().Center()
	// Interferer occupies PRBs [0,10); allocation sits at [10,20): no
	// overlap, so the penalty must be exactly zero.
	alloc := PRBInterval{Start: 10, N: 10}
	if p := g.PenaltyDB(0, ue, alloc, []int{50, 10}); p != 0 {
		t.Fatalf("non-overlapping allocation penalty = %g, want exact 0", p)
	}
	if got, want := g.SINRdB(0, ue, alloc, []int{50, 10}), g.oracleSNRdB(0, ue); got != want {
		t.Fatalf("SINR %v != SNR %v with no overlap", got, want)
	}
	// Full overlap must strictly degrade (cells are co-channel and close
	// enough for the interference to rise above the noise floor).
	if got := g.SINRdB(0, ue, PRBInterval{Start: 0, N: 10}, []int{50, 50}); got >= g.oracleSNRdB(0, ue) {
		t.Fatalf("full-overlap SINR %v did not degrade below SNR %v", got, g.oracleSNRdB(0, ue))
	}
}

func TestOverlapPRBs(t *testing.T) {
	cases := []struct {
		alloc    PRBInterval
		occ, out int
	}{
		{PRBInterval{0, 10}, 0, 0},
		{PRBInterval{0, 10}, 5, 5},
		{PRBInterval{0, 10}, 50, 10},
		{PRBInterval{20, 10}, 20, 0},
		{PRBInterval{20, 10}, 25, 5},
		{PRBInterval{20, 10}, 50, 10},
	}
	for _, c := range cases {
		if got := overlapPRBs(c.alloc, c.occ); got != c.out {
			t.Errorf("overlapPRBs(%+v, %d) = %d, want %d", c.alloc, c.occ, got, c.out)
		}
	}
}

func TestBestCellLoadBias(t *testing.T) {
	g := testGraph(t, PlanCochannel, 2)
	b := g.Model.Terrain.Bounds()
	mid := b.Center()
	// Unloaded, one cell wins on pure SINR (shadowing breaks the
	// geometric tie); enough load on the winner must flip selection.
	win := g.BestCell(mid, nil, 0)
	other := 1 - win
	load := []int{0, 0}
	load[win] = 100
	if got := g.BestCell(mid, load, 0.5); got != other {
		t.Errorf("BestCell with cell %d heavily loaded = %d, want %d", win, got, other)
	}
	// Zero bias ignores load entirely.
	if got := g.BestCell(mid, load, 0); got != win {
		t.Errorf("BestCell with zero bias = %d, want %d", got, win)
	}
}

func TestPlaceMaxMinSINRImprovesAndDeterministic(t *testing.T) {
	build := func() (*Graph, []geom.Vec2) {
		g := testGraph(t, PlanCochannel, 3)
		b := g.Model.Terrain.Bounds()
		// Start all cells stacked at the centre — maximal self-interference.
		for i := range g.Cells {
			g.Cells[i] = b.Center().WithZ(60)
		}
		ues := []geom.Vec2{
			geom.V2(b.MinX+0.2*b.Width(), b.MinY+0.3*b.Height()),
			geom.V2(b.MinX+0.8*b.Width(), b.MinY+0.7*b.Height()),
			geom.V2(b.MinX+0.5*b.Width(), b.MinY+0.9*b.Height()),
			geom.V2(b.MinX+0.1*b.Width(), b.MinY+0.8*b.Height()),
		}
		return g, ues
	}
	g1, ues := build()
	before := g1.MinSINRdB(ues)
	p1, err := PlaceMaxMinSINR(g1, ues, g1.Model.Terrain.Bounds(), 40, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := g1.MinSINRdB(ues)
	if after < before {
		t.Fatalf("placement worsened objective: %.2f -> %.2f dB", before, after)
	}
	g8, _ := build()
	p8, err := PlaceMaxMinSINR(g8, ues, g8.Model.Terrain.Bounds(), 40, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1 {
		if p1[i] != p8[i] {
			t.Fatalf("placement differs at cell %d between 1 and 8 workers: %v vs %v", i, p1[i], p8[i])
		}
	}
}
