// Package terrain models the ground environment a SkyRAN UAV flies
// over: a height field with per-cell material (open ground, building,
// foliage), plus procedural generators for the four environments the
// paper evaluates and a LiDAR-style point-cloud import pipeline.
//
// The paper's scale-up study (§5.1) derives terrains from USGS LiDAR
// scans gridded at 1 m. That data is not redistributable, so this
// package synthesizes statistically similar terrains with
// deterministic seeds: an open RURAL area, a Manhattan-like NYC street
// canyon grid, a 1 km² semi-urban LARGE area, and the 300 m × 300 m
// CAMPUS testbed (office building, parking lot, 35 m forest) used in
// §4. A real point cloud can be substituted via FromPointCloud.
package terrain

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Material classifies what occupies a terrain cell above ground level.
// The radio propagation model attenuates rays differently per material:
// buildings are nearly opaque, foliage is lossy but penetrable.
type Material uint8

const (
	// Open is bare ground, roads, parking lots, water.
	Open Material = iota
	// Building is a man-made structure; rays through it are heavily
	// attenuated.
	Building
	// Foliage is tree canopy; rays are attenuated per metre of canopy
	// traversed.
	Foliage
)

// String implements fmt.Stringer.
func (m Material) String() string {
	switch m {
	case Open:
		return "open"
	case Building:
		return "building"
	case Foliage:
		return "foliage"
	default:
		return fmt.Sprintf("Material(%d)", uint8(m))
	}
}

// Surface is a gridded terrain: ground elevation plus obstacle height
// and material per cell. The zero value is unusable; construct with
// NewSurface, a generator, or FromPointCloud.
type Surface struct {
	// Name identifies the terrain in experiment output ("NYC", ...).
	Name string

	cell     float64
	ground   *geom.Grid // ground elevation above datum, metres
	obstacle *geom.Grid // obstacle height above ground, metres
	material []Material // row-major, parallel to the grids
}

// maxImportCells caps the grid ReadESRI and FromPointCloud will
// allocate: 2²¹ cells, a 1.4 km square at 1 m and 8× the largest
// built-in terrain (LARGE, 500 × 500 cells). A few points far apart
// would otherwise size a grid from their extent alone.
const maxImportCells = 1 << 21

// checkGrid refuses an import whose cell size is not in (0, maxImportM]
// or whose grid over area, at that cell size, would exceed
// maxImportCells. It counts cells as geom.GridOver does. The importers
// bound every coordinate first, so the extent is finite and only a
// tiny cell can count +Inf cells, which the limit refuses.
func checkGrid(area geom.Rect, cell float64) error {
	if !finite(cell) || cell <= 0 {
		return fmt.Errorf("cell size %v is not in (0, 1e9] m", cell)
	}
	nx, ny := math.Ceil(area.Width()/cell), math.Ceil(area.Height()/cell)
	if n := math.Max(nx, 1) * math.Max(ny, 1); !(n <= maxImportCells) {
		return fmt.Errorf("grid of %g cells exceeds the %d-cell import limit", n, maxImportCells)
	}
	return nil
}

// maxImportM bounds every value an importer reads, in metres (or
// cells, for an ESRI grid's dimensions): far beyond any terrain, and
// small enough that the importers' sums and differences of two values
// stay finite.
const maxImportM = 1e9

// finite reports whether v is a number within ±maxImportM, the test
// every imported value must pass (ESRI's NODATA_value marker aside).
func finite(v float64) bool { return math.Abs(v) <= maxImportM }

// NewSurface allocates a flat, open surface covering area with the
// given cell size.
func NewSurface(name string, area geom.Rect, cell float64) *Surface {
	g := geom.GridOver(area, cell)
	return &Surface{
		Name:     name,
		cell:     cell,
		ground:   g,
		obstacle: geom.GridOver(area, cell),
		material: make([]Material, g.NX*g.NY),
	}
}

// Bounds returns the area covered by the surface.
func (s *Surface) Bounds() geom.Rect { return s.ground.Bounds() }

// Cell returns the grid cell size in metres.
func (s *Surface) Cell() float64 { return s.cell }

// Dims returns the grid dimensions (cells east-west, north-south).
func (s *Surface) Dims() (nx, ny int) { return s.ground.NX, s.ground.NY }

// GroundAt returns the ground elevation at p (clamped to the border
// outside the area).
func (s *Surface) GroundAt(p geom.Vec2) float64 { return s.ground.ValueAt(p) }

// HeightAt returns the total obstruction height (ground + obstacle) at
// p. A ray passing below this altitude at p is blocked or attenuated
// according to MaterialAt.
func (s *Surface) HeightAt(p geom.Vec2) float64 {
	return s.ground.ValueAt(p) + s.obstacle.ValueAt(p)
}

// ObstacleAt returns the obstacle height above ground at p.
func (s *Surface) ObstacleAt(p geom.Vec2) float64 { return s.obstacle.ValueAt(p) }

// MaterialAt returns the material occupying the column above ground at
// p; Open where there is no obstacle.
func (s *Surface) MaterialAt(p geom.Vec2) Material {
	cx, cy := s.clampCell(p)
	return s.material[cy*s.ground.NX+cx]
}

func (s *Surface) clampCell(p geom.Vec2) (int, int) {
	cx, cy := s.ground.CellOf(p)
	if cx < 0 {
		cx = 0
	}
	if cx >= s.ground.NX {
		cx = s.ground.NX - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= s.ground.NY {
		cy = s.ground.NY - 1
	}
	return cx, cy
}

// setCell writes ground elevation, obstacle height and material for
// cell (cx, cy). Out-of-bounds writes are ignored so generators can
// paint shapes that straddle the boundary.
func (s *Surface) setCell(cx, cy int, ground, obstacle float64, m Material) {
	if !s.ground.InBounds(cx, cy) {
		return
	}
	s.ground.Set(cx, cy, ground)
	s.obstacle.Set(cx, cy, obstacle)
	s.material[cy*s.ground.NX+cx] = m
}

// paintObstacle raises the obstacle in cell (cx, cy) to at least h with
// material m, keeping the taller of any existing obstacle.
func (s *Surface) paintObstacle(cx, cy int, h float64, m Material) {
	if !s.ground.InBounds(cx, cy) {
		return
	}
	if s.obstacle.At(cx, cy) < h {
		s.obstacle.Set(cx, cy, h)
		s.material[cy*s.ground.NX+cx] = m
	}
}

// paintRect raises obstacles across a rectangle (in world metres).
func (s *Surface) paintRect(r geom.Rect, h float64, m Material) {
	x0, y0 := s.ground.CellOf(geom.V2(r.MinX, r.MinY))
	x1, y1 := s.ground.CellOf(geom.V2(r.MaxX-1e-9, r.MaxY-1e-9))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			s.paintObstacle(cx, cy, h, m)
		}
	}
}

// paintDisk raises obstacles across a disk (tree canopies).
func (s *Surface) paintDisk(c geom.Vec2, radius, h float64, m Material) {
	x0, y0 := s.ground.CellOf(geom.V2(c.X-radius, c.Y-radius))
	x1, y1 := s.ground.CellOf(geom.V2(c.X+radius, c.Y+radius))
	r2 := radius * radius
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			if !s.ground.InBounds(cx, cy) {
				continue
			}
			cc := s.ground.CellCenter(cx, cy)
			d2 := cc.Sub(c).Dot(cc.Sub(c))
			if d2 <= r2 {
				// Dome the canopy: full height at the centre tapering
				// towards the rim.
				hh := h * math.Sqrt(1-d2/r2)
				s.paintObstacle(cx, cy, hh, m)
			}
		}
	}
}

// IsOpen reports whether the cell at p has no obstacle, i.e. a UE can
// stand there and a UAV can descend low over it.
func (s *Surface) IsOpen(p geom.Vec2) bool { return s.MaterialAt(p) == Open }

// MaxHeight returns the tallest obstruction (ground + obstacle) on the
// surface; the minimum safe flight altitude is above this.
func (s *Surface) MaxHeight() float64 {
	var best float64 = math.Inf(-1)
	nx, ny := s.Dims()
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			if h := s.ground.At(cx, cy) + s.obstacle.At(cx, cy); h > best {
				best = h
			}
		}
	}
	return best
}

// ObstructionStats summarises terrain complexity for experiment logs.
type ObstructionStats struct {
	OpenFrac, BuildingFrac, FoliageFrac float64
	MeanObstacleHeight                  float64 // over non-open cells
	MaxObstacleHeight                   float64
}

// Stats computes the obstruction statistics of the surface.
func (s *Surface) Stats() ObstructionStats {
	var st ObstructionStats
	nx, ny := s.Dims()
	total := float64(nx * ny)
	var covered float64
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			m := s.material[cy*nx+cx]
			h := s.obstacle.At(cx, cy)
			switch m {
			case Open:
				st.OpenFrac++
			case Building:
				st.BuildingFrac++
			case Foliage:
				st.FoliageFrac++
			}
			if m != Open {
				st.MeanObstacleHeight += h
				covered++
			}
			if h > st.MaxObstacleHeight {
				st.MaxObstacleHeight = h
			}
		}
	}
	st.OpenFrac /= total
	st.BuildingFrac /= total
	st.FoliageFrac /= total
	if covered > 0 {
		st.MeanObstacleHeight /= covered
	}
	return st
}
