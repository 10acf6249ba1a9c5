// Package ue models the ground user equipment: identity, position and
// mobility. The paper evaluates static UEs on the testbed (§4.2),
// scripted routes "closely mimicking human mobility" for the epoch
// study (Fig 12), and random per-epoch repositioning for the scale-up
// study (§5.2).
package ue

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// UE is one ground terminal.
type UE struct {
	// ID is a stable identifier (also the SRS root seed in the PHY).
	ID int
	// Pos is the current true ground position.
	Pos geom.Vec2
	// Mobility drives position updates; nil means static.
	Mobility Mobility
}

// New returns a static UE.
func New(id int, pos geom.Vec2) *UE { return &UE{ID: id, Pos: pos} }

// Step advances the UE by dt seconds.
func (u *UE) Step(dt float64, rng *rand.Rand) {
	if u.Mobility != nil {
		u.Pos = u.Mobility.Step(dt, u.Pos, rng)
	}
}

// String implements fmt.Stringer.
func (u *UE) String() string { return fmt.Sprintf("UE%d@%s", u.ID, u.Pos) }

// State is a UE's serializable state: identity, position, and the
// internal cursor of its mobility model (which waypoint a Route is
// walking toward; the current target and pause timer of a
// RandomWaypoint). The mobility model itself is part of the scenario
// configuration and is rebuilt, not serialized.
type State struct {
	ID  int
	Pos geom.Vec2

	RouteNext int

	RWTarget    geom.Vec2
	RWHasTarget bool
	RWPausing   float64
}

// Snapshot captures the UE's state.
func (u *UE) Snapshot() State {
	st := State{ID: u.ID, Pos: u.Pos}
	switch m := u.Mobility.(type) {
	case *Route:
		st.RouteNext = m.next
	case *RandomWaypoint:
		st.RWTarget = m.target
		st.RWHasTarget = m.hasTarget
		st.RWPausing = m.pausing
	}
	return st
}

// Restore reinstates a snapshot into a UE with the same identity and
// mobility model.
func (u *UE) Restore(st State) error {
	if st.ID != u.ID {
		return fmt.Errorf("ue: restoring state for UE %d into UE %d", st.ID, u.ID)
	}
	u.Pos = st.Pos
	switch m := u.Mobility.(type) {
	case *Route:
		if st.RouteNext < 0 || st.RouteNext > len(m.Waypoints) {
			return fmt.Errorf("ue: UE %d route cursor %d out of range", u.ID, st.RouteNext)
		}
		m.next = st.RouteNext
	case *RandomWaypoint:
		m.target = st.RWTarget
		m.hasTarget = st.RWHasTarget
		m.pausing = st.RWPausing
	}
	return nil
}

// Mobility advances a position by dt seconds.
type Mobility interface {
	Step(dt float64, cur geom.Vec2, rng *rand.Rand) geom.Vec2
}

// Static never moves. The zero value is ready to use.
type Static struct{}

// Step implements Mobility.
func (Static) Step(_ float64, cur geom.Vec2, _ *rand.Rand) geom.Vec2 { return cur }

// Route walks a scripted waypoint list at pedestrian speed, the
// "predefined routes (scripted to closely mimic human mobility)" of
// Fig 12. When Loop is set the route repeats; otherwise the UE stops
// at the final waypoint.
type Route struct {
	Waypoints []geom.Vec2
	SpeedMS   float64
	Loop      bool

	next int
}

// NewRoute returns a route mobility at the given walking speed
// (default 1.4 m/s if speed <= 0).
func NewRoute(waypoints []geom.Vec2, speedMS float64, loop bool) *Route {
	if speedMS <= 0 {
		speedMS = 1.4
	}
	return &Route{Waypoints: waypoints, SpeedMS: speedMS, Loop: loop}
}

// Step implements Mobility.
func (r *Route) Step(dt float64, cur geom.Vec2, _ *rand.Rand) geom.Vec2 {
	remaining := r.SpeedMS * dt
	for remaining > 1e-12 && r.next < len(r.Waypoints) {
		target := r.Waypoints[r.next]
		d := cur.Dist(target)
		if d <= remaining {
			cur = target
			remaining -= d
			r.next++
			if r.next >= len(r.Waypoints) && r.Loop {
				r.next = 0
			}
		} else {
			cur = cur.Add(target.Sub(cur).Unit().Scale(remaining))
			remaining = 0
		}
	}
	return cur
}

// RandomWaypoint implements the classic random-waypoint model within
// an area: pick a uniform destination, walk to it at SpeedMS, pause,
// repeat.
type RandomWaypoint struct {
	Area    geom.Rect
	SpeedMS float64
	PauseS  float64

	target    geom.Vec2
	hasTarget bool
	pausing   float64
}

// NewRandomWaypoint returns the model with sane defaults (1.4 m/s, 5 s
// pause) applied to non-positive parameters.
func NewRandomWaypoint(area geom.Rect, speedMS, pauseS float64) *RandomWaypoint {
	if speedMS <= 0 {
		speedMS = 1.4
	}
	if pauseS < 0 {
		pauseS = 0
	}
	return &RandomWaypoint{Area: area, SpeedMS: speedMS, PauseS: pauseS}
}

// Step implements Mobility.
func (m *RandomWaypoint) Step(dt float64, cur geom.Vec2, rng *rand.Rand) geom.Vec2 {
	remaining := dt
	for remaining > 1e-12 {
		if m.pausing > 0 {
			p := math.Min(m.pausing, remaining)
			m.pausing -= p
			remaining -= p
			continue
		}
		if !m.hasTarget {
			m.target = geom.V2(
				m.Area.MinX+rng.Float64()*m.Area.Width(),
				m.Area.MinY+rng.Float64()*m.Area.Height(),
			)
			m.hasTarget = true
		}
		d := cur.Dist(m.target)
		canMove := m.SpeedMS * remaining
		if d <= canMove {
			cur = m.target
			if m.SpeedMS > 0 {
				remaining -= d / m.SpeedMS
			} else {
				remaining = 0
			}
			m.hasTarget = false
			m.pausing = m.PauseS
		} else {
			cur = cur.Add(m.target.Sub(cur).Unit().Scale(canMove))
			remaining = 0
		}
	}
	return cur
}

// PlaceRandomOpen places n UEs uniformly at random on open terrain
// cells (UEs cannot stand inside buildings), at least minSep apart.
// isOpen reports whether a point is standable. It panics only if the
// area is so constrained that no placement exists after many tries —
// a scenario-configuration error; TryPlaceRandomOpen returns that as an
// error instead.
func PlaceRandomOpen(n int, area geom.Rect, isOpen func(geom.Vec2) bool, minSep float64, rng *rand.Rand) []*UE {
	ues, err := TryPlaceRandomOpen(n, area, isOpen, minSep, rng)
	if err != nil {
		panic(err.Error())
	}
	return ues
}

// TryPlaceRandomOpen is PlaceRandomOpen, failing with an error when a
// UE finds no open spot at least minSep from the others in 10,000
// draws.
//
// Candidates are checked against a grid hash of the accepted positions
// rather than all of them, with the same p.Dist(q) < minSep test, so
// every accept/reject decision (and every RNG draw) is the one a scan
// over all accepted positions makes.
func TryPlaceRandomOpen(n int, area geom.Rect, isOpen func(geom.Vec2) bool, minSep float64, rng *rand.Rand) ([]*UE, error) {
	ues := make([]*UE, 0, n)
	grid := newSepGrid(area, minSep, n)
	for id := 0; id < n; id++ {
		placed := false
		for try := 0; try < 10000; try++ {
			p := geom.V2(area.MinX+rng.Float64()*area.Width(), area.MinY+rng.Float64()*area.Height())
			if !isOpen(p) || grid.conflicts(p) {
				continue
			}
			ues = append(ues, New(id, p))
			grid.add(p)
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("ue: cannot place UE %d: area too constrained", id)
		}
	}
	return ues, nil
}

// RelocateHalf is the dynamic-UE step between epochs (§5.2): it draws
// a UE index len(ues)/2 times and moves each drawn UE to a uniformly
// random open spot inside bounds inset by 8% of its width. A UE may be
// drawn twice; one that finds no open spot in 5,000 draws stays put.
func RelocateHalf(ues []*UE, bounds geom.Rect, isOpen func(geom.Vec2) bool, rng *rand.Rand) {
	area := bounds.Inset(bounds.Width() * 0.08)
	for i := 0; i < len(ues)/2; i++ {
		idx := rng.Intn(len(ues))
		for try := 0; try < 5000; try++ {
			p := geom.V2(area.MinX+rng.Float64()*area.Width(), area.MinY+rng.Float64()*area.Height())
			if isOpen(p) {
				ues[idx].Pos = p
				break
			}
		}
	}
}

// sepGrid buckets accepted positions into square cells at least minSep
// wide (chained through next), so a minimum-separation check visits
// only the 3×3 cells around a candidate.
//
// Why 3×3 suffices: a conflicting q has |p.X−q.X| ≤ p.Dist(q) < minSep
// (Hypot never rounds below its larger leg), and the cell is a factor
// 1+1e-6 wider than minSep, so the exact cell coordinates of p and q
// differ by less than 1−1e-6. A computed coordinate, (x−MinX)/cell,
// carries two roundings relative to itself (the subtraction is exact or
// at least halves its operands), so with at most 4097 cells a side it
// is off by under 2e-12, far inside that margin: the floors differ by
// at most one, and clamping to the grid only brings them closer. With
// cells exactly minSep wide they can differ by two
// (TestSepGridRoundingEdge).
type sepGrid struct {
	minSep float64
	area   geom.Rect
	cell   float64
	nx, ny int
	head   []int32 // per cell: 1 + index of the newest point, 0 when empty
	next   []int32 // per point: 1 + index of the next point in its cell
	pts    []geom.Vec2
}

func newSepGrid(area geom.Rect, minSep float64, n int) *sepGrid {
	g := &sepGrid{minSep: minSep, area: area}
	if !(minSep > 0) {
		return g // p.Dist(q) < minSep never holds: nothing to index
	}
	w, h := area.Width(), area.Height()
	// Wider cells than minSep keep tiny separations from building huge
	// grids: about 4 cells per UE at most, and at most 4096 a side.
	g.cell = max(minSep*(1+1e-6), math.Sqrt(w*h/float64(4*max(n, 1))), max(w, h)/4096)
	g.nx, g.ny = cellIndex(w, g.cell)+1, cellIndex(h, g.cell)+1
	g.head = make([]int32, g.nx*g.ny)
	g.next = make([]int32, 0, n)
	g.pts = make([]geom.Vec2, 0, n)
	return g
}

// cellIndex is the cell coordinate of offset d, floored and clamped at
// 0; callers clamp the top end. A NaN (a degenerate area) maps to 0,
// which puts every point in one cell: slow, but still exact.
func cellIndex(d, cell float64) int {
	i := math.Floor(d / cell)
	if !(i > 0) {
		return 0
	}
	return int(i)
}

func (g *sepGrid) cellOf(p geom.Vec2) (int, int) {
	return min(cellIndex(p.X-g.area.MinX, g.cell), g.nx-1), min(cellIndex(p.Y-g.area.MinY, g.cell), g.ny-1)
}

// conflicts reports whether an accepted point lies closer than minSep
// to p.
func (g *sepGrid) conflicts(p geom.Vec2) bool {
	if g.head == nil {
		return false
	}
	cx, cy := g.cellOf(p)
	for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
		for x := max(cx-1, 0); x <= min(cx+1, g.nx-1); x++ {
			for k := g.head[y*g.nx+x]; k != 0; k = g.next[k-1] {
				if p.Dist(g.pts[k-1]) < g.minSep {
					return true
				}
			}
		}
	}
	return false
}

// add records an accepted point.
func (g *sepGrid) add(p geom.Vec2) {
	if g.head == nil {
		return
	}
	cx, cy := g.cellOf(p)
	c := cy*g.nx + cx
	g.pts = append(g.pts, p)
	g.next = append(g.next, g.head[c])
	g.head[c] = int32(len(g.pts))
}

// PlaceClustered places n UEs in a Gaussian cluster around center with
// the given spread, on open cells — the paper's Topology B (§4.5.2).
func PlaceClustered(n int, center geom.Vec2, spreadM float64, area geom.Rect, isOpen func(geom.Vec2) bool, rng *rand.Rand) []*UE {
	ues := make([]*UE, 0, n)
	for id := 0; id < n; id++ {
		placed := false
		for try := 0; try < 10000; try++ {
			p := area.Clamp(geom.V2(
				center.X+rng.NormFloat64()*spreadM,
				center.Y+rng.NormFloat64()*spreadM,
			))
			if !isOpen(p) {
				continue
			}
			ues = append(ues, New(id, p))
			placed = true
			break
		}
		if !placed {
			panic(fmt.Sprintf("ue: cannot place clustered UE %d", id))
		}
	}
	return ues
}
