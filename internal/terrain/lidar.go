package terrain

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// This file implements the LiDAR ingestion pipeline of §5.1: "We
// pre-process the point-clouds to obtain a spatial granularity of 1m."
// The paper uses USGS LPC tiles; here the same gridding runs over any
// point cloud; the tests drive it end-to-end with a synthesizer that
// emits a LiDAR-like cloud from a Surface, so no proprietary data is
// needed.

// Classification mirrors the ASPRS LAS point classes we care about.
type Classification uint8

const (
	// ClassGround is a bare-earth return.
	ClassGround Classification = 2
	// ClassVegetation is a canopy return (LAS high vegetation).
	ClassVegetation Classification = 5
	// ClassBuilding is a rooftop return.
	ClassBuilding Classification = 6
)

// Point is a single LiDAR return.
type Point struct {
	X, Y, Z float64
	Class   Classification
}

// PointCloud is an unordered set of LiDAR returns.
type PointCloud []Point

// FromPointCloud grids a point cloud into a Surface at the given cell
// size. Per cell: ground elevation is the minimum ground-classified Z
// (falling back to the minimum Z of any class, then to neighbour
// interpolation); obstacle height is the maximum non-ground Z above
// ground; material is the majority non-ground class. A point with a
// coordinate that is not finite or exceeds 1e9 m in magnitude is
// refused, and so is a cloud whose extent needs more than
// maxImportCells cells, before the grid is allocated.
func FromPointCloud(name string, pc PointCloud, cell float64) (*Surface, error) {
	if len(pc) == 0 {
		return nil, fmt.Errorf("terrain: empty point cloud")
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, p := range pc {
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return nil, fmt.Errorf("terrain: point %d (%v, %v, %v) is not finite or exceeds 1e9 m in magnitude", i, p.X, p.Y, p.Z)
		}
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	area := geom.Rect{MinX: minX, MinY: minY, MaxX: maxX + cell, MaxY: maxY + cell}
	if err := checkGrid(area, cell); err != nil {
		return nil, fmt.Errorf("terrain: point cloud: %w", err)
	}
	s := NewSurface(name, area, cell)
	nx, ny := s.Dims()

	agg := make([]cellAgg, nx*ny)
	for i := range agg {
		agg[i] = cellAgg{groundMin: math.Inf(1), anyMin: math.Inf(1), topMax: math.Inf(-1)}
	}
	for _, p := range pc {
		cx, cy := s.ground.CellOf(geom.V2(p.X, p.Y))
		if cx < 0 || cx >= nx || cy < 0 || cy >= ny {
			continue
		}
		a := &agg[cy*nx+cx]
		a.hasAny = true
		a.anyMin = math.Min(a.anyMin, p.Z)
		switch p.Class {
		case ClassGround:
			a.hasGround = true
			a.groundMin = math.Min(a.groundMin, p.Z)
		case ClassVegetation:
			a.nVeg++
			a.topMax = math.Max(a.topMax, p.Z)
		case ClassBuilding:
			a.nBld++
			a.topMax = math.Max(a.topMax, p.Z)
		default:
			a.topMax = math.Max(a.topMax, p.Z)
		}
	}

	// Gridding. Cells under buildings and dense canopy have no
	// bare-earth returns, so their ground elevation is interpolated
	// from the nearest ring of ground-bearing cells — the same
	// bare-earth DEM construction USGS applies to LPC tiles.
	near := groundCounts(nx, ny, agg)
	for cy := 0; cy < ny; cy++ {
		for cx := 0; cx < nx; cx++ {
			a := agg[cy*nx+cx]
			ground, haveGround := 0.0, false
			if a.hasGround {
				ground, haveGround = a.groundMin, true
			} else if g, ok := nearestGround(nx, ny, agg, near, cx, cy); ok {
				ground, haveGround = g, true
			} else if a.hasAny {
				ground, haveGround = a.anyMin, true
			}
			if !a.hasAny {
				s.setCell(cx, cy, ground, 0, Open)
				continue
			}
			obstacle := 0.0
			m := Open
			if haveGround && a.topMax > ground+0.5 { // ignore sub-half-metre clutter
				obstacle = a.topMax - ground
				if a.nBld >= a.nVeg && a.nBld > 0 {
					m = Building
				} else if a.nVeg > 0 {
					m = Foliage
				} else {
					m = Building
				}
			}
			s.setCell(cx, cy, ground, obstacle, m)
		}
	}
	return s, nil
}

// cellAgg accumulates per-cell return statistics during gridding.
type cellAgg struct {
	groundMin float64
	anyMin    float64
	topMax    float64
	nVeg      int
	nBld      int
	hasGround bool
	hasAny    bool
}

// maxRing bounds nearestGround's search; it covers building
// footprints up to ~80 cells wide.
const maxRing = 40

// groundCounts returns the summed-area table of ground-bearing cells:
// entry (y+1)·(nx+1) + x+1 counts those in columns 0..x of rows 0..y.
func groundCounts(nx, ny int, agg []cellAgg) []int32 {
	sat := make([]int32, (nx+1)*(ny+1))
	for y := 0; y < ny; y++ {
		var row int32
		for x := 0; x < nx; x++ {
			if agg[y*nx+x].hasGround {
				row++
			}
			sat[(y+1)*(nx+1)+x+1] = sat[y*(nx+1)+x+1] + row
		}
	}
	return sat
}

// nearestGround searches expanding rings around (cx, cy) for cells
// with bare-earth returns and returns their mean ground elevation. The
// rings span the square of side 2·maxRing+1 around the cell; when the
// summed-area table sat counts no ground cell in it, there is nothing
// to find and the walk is skipped, so sparse clouds stay linear in
// their cell count.
func nearestGround(nx, ny int, agg []cellAgg, sat []int32, cx, cy int) (float64, bool) {
	x0, x1 := max(cx-maxRing, 0), min(cx+maxRing, nx-1)+1
	y0, y1 := max(cy-maxRing, 0), min(cy+maxRing, ny-1)+1
	w := nx + 1
	if sat[y1*w+x1]-sat[y0*w+x1]-sat[y1*w+x0]+sat[y0*w+x0] == 0 {
		return 0, false
	}
	for r := 1; r <= maxRing; r++ {
		var sum float64
		var n int
		visit := func(x, y int) {
			if x < 0 || x >= nx || y < 0 || y >= ny {
				return
			}
			if a := agg[y*nx+x]; a.hasGround {
				sum += a.groundMin
				n++
			}
		}
		for dx := -r; dx <= r; dx++ { // top and bottom edges of the ring
			visit(cx+dx, cy-r)
			visit(cx+dx, cy+r)
		}
		for dy := -r + 1; dy <= r-1; dy++ { // left and right edges
			visit(cx-r, cy+dy)
			visit(cx+r, cy+dy)
		}
		if n > 0 {
			return sum / float64(n), true
		}
	}
	return 0, false
}

// ReadXYZ parses the "x y z class" text format. Blank lines and lines
// starting with '#' are skipped. The class column is optional and
// defaults to ground. A coordinate that is not finite or exceeds 1e9 m
// in magnitude is refused, naming its line and axis.
func ReadXYZ(r io.Reader) (PointCloud, error) {
	var pc PointCloud
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			return nil, fmt.Errorf("terrain: line %d: want at least 3 fields, got %d", lineNo, len(f))
		}
		var p Point
		for i, dst := range []*float64{&p.X, &p.Y, &p.Z} {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("terrain: line %d: %s: %w", lineNo, "xyz"[i:i+1], err)
			}
			if !finite(v) {
				return nil, fmt.Errorf("terrain: line %d: %s: %v is not finite or exceeds 1e9 m in magnitude", lineNo, "xyz"[i:i+1], v)
			}
			*dst = v
		}
		p.Class = ClassGround
		if len(f) >= 4 {
			c, err := strconv.ParseUint(f[3], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("terrain: line %d: class: %w", lineNo, err)
			}
			p.Class = Classification(c)
		}
		pc = append(pc, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("terrain: read: %w", err)
	}
	return pc, nil
}
