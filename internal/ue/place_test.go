package ue

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// placeRandomOpenQuadratic is PlaceRandomOpen as it was before the grid
// hash: every candidate is checked against every accepted position. It
// is the oracle the grid-hashed placement must match decision for
// decision.
func placeRandomOpenQuadratic(n int, area geom.Rect, isOpen func(geom.Vec2) bool, minSep float64, rng *rand.Rand) []*UE {
	ues := make([]*UE, 0, n)
	positions := make([]geom.Vec2, 0, n)
	for id := 0; id < n; id++ {
		placed := false
		for try := 0; try < 10000; try++ {
			p := geom.V2(area.MinX+rng.Float64()*area.Width(), area.MinY+rng.Float64()*area.Height())
			if !isOpen(p) {
				continue
			}
			ok := true
			for _, q := range positions {
				if p.Dist(q) < minSep {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ues = append(ues, New(id, p))
			positions = append(positions, p)
			placed = true
			break
		}
		if !placed {
			panic(fmt.Sprintf("ue: cannot place UE %d: area too constrained", id))
		}
	}
	return ues
}

// placeCase is one random placement problem: a population, an area
// anywhere within ±1e6 m of the origin, a separation and an open-ground
// mask over a coarse grid of the area.
type placeCase struct {
	Seed   int64
	N      int
	Area   geom.Rect
	MinSep float64
	MaskNX int
	MaskNY int
	Mask   []bool
}

// Generate implements quick.Generator. The separation is 0, the
// scale-up rule sqrt(area/(4n)), or a random fraction of what the open
// area can hold, so every case stays placeable.
func (placeCase) Generate(r *rand.Rand, _ int) reflect.Value {
	c := placeCase{Seed: r.Int63(), N: r.Intn(400)}
	w, h := 1+r.Float64()*2000, 1+r.Float64()*2000
	c.Area.MinX = (r.Float64()*2 - 1) * 1e6
	c.Area.MinY = (r.Float64()*2 - 1) * 1e6
	c.Area.MaxX, c.Area.MaxY = c.Area.MinX+w, c.Area.MinY+h
	c.MaskNX, c.MaskNY = 1+r.Intn(8), 1+r.Intn(8)
	c.Mask = make([]bool, c.MaskNX*c.MaskNY)
	open := 0
	for i := range c.Mask {
		c.Mask[i] = r.Float64() < 0.8
		if c.Mask[i] {
			open++
		}
	}
	if open == 0 {
		c.Mask[0], open = true, 1
	}
	fits := math.Sqrt(w * h * float64(open) / float64(len(c.Mask)) / float64(4*max(c.N, 1)))
	switch r.Intn(4) {
	case 0:
		c.MinSep = 0
	case 1:
		c.MinSep = math.Sqrt(w * h / float64(4*max(c.N, 1)))
		if float64(open) < 0.8*float64(len(c.Mask)) {
			c.MinSep = fits // keep a mostly closed mask placeable
		}
	default:
		c.MinSep = r.Float64() * fits
	}
	return reflect.ValueOf(c)
}

func (c placeCase) isOpen(p geom.Vec2) bool {
	fx := (p.X - c.Area.MinX) / c.Area.Width()
	fy := (p.Y - c.Area.MinY) / c.Area.Height()
	x := min(max(int(fx*float64(c.MaskNX)), 0), c.MaskNX-1)
	y := min(max(int(fy*float64(c.MaskNY)), 0), c.MaskNY-1)
	return c.Mask[y*c.MaskNX+x]
}

// place runs one placement, turning its panic (an unplaceable case)
// into a value so the two implementations can be compared on it too.
func place(f func(int, geom.Rect, func(geom.Vec2) bool, float64, *rand.Rand) []*UE, c placeCase) (ues []*UE, next int64, panicked any) {
	rng := rand.New(rand.NewSource(c.Seed))
	defer func() {
		if p := recover(); p != nil {
			panicked = p
		}
	}()
	ues = f(c.N, c.Area, c.isOpen, c.MinSep, rng)
	return ues, rng.Int63(), nil
}

// The grid-hashed placement makes exactly the quadratic scan's
// accept/reject decisions: identical positions, and the RNG left at the
// same point (the next draw matches).
func TestPlaceRandomOpenMatchesQuadraticScan(t *testing.T) {
	prop := func(c placeCase) bool {
		got, gotNext, gotPanic := place(PlaceRandomOpen, c)
		want, wantNext, wantPanic := place(placeRandomOpenQuadratic, c)
		if gotPanic != nil || wantPanic != nil {
			if fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
				t.Logf("n=%d minSep=%g: panic %v, oracle %v", c.N, c.MinSep, gotPanic, wantPanic)
				return false
			}
			return true
		}
		if gotNext != wantNext || len(got) != len(want) {
			t.Logf("n=%d minSep=%g: %d UEs next draw %d, oracle %d UEs next draw %d",
				c.N, c.MinSep, len(got), gotNext, len(want), wantNext)
			return false
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Pos != want[i].Pos {
				t.Logf("n=%d minSep=%g: UE %d at %v, oracle %v", c.N, c.MinSep, i, got[i].Pos, want[i].Pos)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// The scale-up case the scenario layer runs (2000 UEs, FLAT's inset
// area, separation sqrt(area/(4n))), against the oracle.
func TestPlaceRandomOpenScaleUpMatchesQuadraticScan(t *testing.T) {
	area := geom.Rect{MinX: 20, MinY: 20, MaxX: 230, MaxY: 230}
	c := placeCase{Seed: 3, N: 2000, Area: area, MinSep: math.Sqrt(area.Area() / 8000),
		MaskNX: 1, MaskNY: 1, Mask: []bool{true}}
	got, gotNext, _ := place(PlaceRandomOpen, c)
	want, wantNext, _ := place(placeRandomOpenQuadratic, c)
	if !reflect.DeepEqual(got, want) || gotNext != wantNext {
		t.Fatal("scale-up placement diverged from the quadratic scan")
	}
}

// Near misses: a point just inside minSep of an accepted one, in any
// direction and anywhere in the grid (cell borders included), is always
// found, however the cell coordinates round.
func TestSepGridFindsEveryNearMiss(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, h := 1+r.Float64()*2000, 1+r.Float64()*2000
		area := geom.Rect{MinX: (r.Float64()*2 - 1) * 1e6, MinY: (r.Float64()*2 - 1) * 1e6}
		area.MaxX, area.MaxY = area.MinX+w, area.MinY+h
		// At or above sqrt(area/(4n)), so cells are as narrow as the
		// separation allows.
		minSep := math.Sqrt(w*h/4000) * (1 + 2*r.Float64())
		g := newSepGrid(area, minSep, 1000)
		q := geom.V2(area.MinX+r.Float64()*w, area.MinY+r.Float64()*h)
		if r.Intn(2) == 0 && g.cell > 0 {
			// Snap q onto a cell corner, where the coordinate rounding bites.
			q.X = area.MinX + math.Floor((q.X-area.MinX)/g.cell)*g.cell
			q.Y = area.MinY + math.Floor((q.Y-area.MinY)/g.cell)*g.cell
		}
		g.add(q)
		for k := 0; k < 64; k++ {
			a := r.Float64() * 2 * math.Pi
			if k%2 == 0 {
				a = float64(r.Intn(4)) * math.Pi / 2 // straight across a border
			}
			d := math.Nextafter(minSep, 0) * (1 - r.Float64()*r.Float64()*1e-9)
			p := geom.V2(q.X+d*math.Cos(a), q.Y+d*math.Sin(a))
			if want := p.Dist(q) < minSep; g.conflicts(p) != want {
				t.Logf("minSep=%g cell=%g q=%v p=%v dist=%g: conflicts=%v", minSep, g.cell, q, p, p.Dist(q), !want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// A conflicting pair whose cell coordinates, in cells exactly minSep
// wide, round two cells apart (found by search): q on a cell border, p
// just under minSep east of it. A 3×3 scan over such cells misses it;
// the grid's slightly wider cells must not.
func TestSepGridRoundingEdge(t *testing.T) {
	const minSep = 1.1563174734654131
	area := geom.Rect{MinX: 575.8020194402795, MinY: 0, MaxX: 575.8020194402795 + 2300, MaxY: 10}
	q := geom.V2(2806.3384257550615, 5)
	p := geom.V2(2807.4947432285267, 5)
	if !(p.Dist(q) < minSep) {
		t.Fatal("setup: the pair is not in conflict")
	}
	if d := math.Floor((p.X-area.MinX)/minSep) - math.Floor((q.X-area.MinX)/minSep); d != 2 {
		t.Fatalf("setup: minSep-wide cells put the pair %v cells apart, want 2", d)
	}
	g := newSepGrid(area, minSep, 10000)
	g.add(q)
	if !g.conflicts(p) {
		t.Fatalf("conflict at distance %v < minSep %v not found (cell %v)", p.Dist(q), minSep, g.cell)
	}
}

var placedSink []*UE

// BenchmarkPlaceRandomOpen is the scale-up build's placement: 10k UEs
// on FLAT's inset area at separation sqrt(area/(4n)).
func BenchmarkPlaceRandomOpen(b *testing.B) {
	area := geom.Rect{MinX: 20, MinY: 20, MaxX: 230, MaxY: 230}
	const n = 10000
	minSep := math.Sqrt(area.Area() / (4 * n))
	open := func(geom.Vec2) bool { return true }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		placedSink = PlaceRandomOpen(n, area, open, minSep, rand.New(rand.NewSource(int64(i))))
	}
}

// TestRelocateHalf: at most half the UEs move, each to an open spot
// inside the 8%-inset area, and with no open spot nobody moves.
func TestRelocateHalf(t *testing.T) {
	bounds := geom.Rect{MaxX: 200, MaxY: 100}
	inner := bounds.Inset(16)
	isOpen := func(p geom.Vec2) bool { return p.X < 100 }
	start := func() []*UE {
		ues := make([]*UE, 7)
		for i := range ues {
			ues[i] = New(i, geom.V2(150, 50))
		}
		return ues
	}
	ues := start()
	RelocateHalf(ues, bounds, isOpen, rand.New(rand.NewSource(3)))
	moved := 0
	for _, u := range ues {
		if u.Pos == geom.V2(150, 50) {
			continue
		}
		moved++
		if !isOpen(u.Pos) || !inner.Contains(u.Pos) {
			t.Errorf("UE %d moved to %v, outside the open inset area", u.ID, u.Pos)
		}
	}
	if moved == 0 || moved > len(ues)/2 {
		t.Errorf("%d of %d UEs moved, want 1..%d", moved, len(ues), len(ues)/2)
	}
	ues = start()
	RelocateHalf(ues, bounds, func(geom.Vec2) bool { return false }, rand.New(rand.NewSource(3)))
	for _, u := range ues {
		if u.Pos != geom.V2(150, 50) {
			t.Errorf("UE %d moved to %v with no open spot", u.ID, u.Pos)
		}
	}
}
