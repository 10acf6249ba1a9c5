// Package rem implements Radio Environment Maps (§3.3 of the paper):
// per-UE SNR grids built from in-flight measurements, inverse-distance
// weighted interpolation for unvisited cells, SNR gradient maps for
// trajectory planning, max-min placement, and the position-keyed REM
// store that lets later epochs reuse maps measured for nearby UE
// positions (§3.5).
package rem

import (
	"fmt"

	"repro/internal/geom"
)

// Map is a radio environment map for one UE position at one operating
// altitude: per-cell SNR estimates plus bookkeeping of which cells were
// actually measured (vs interpolated or model-initialised).
type Map struct {
	grid *geom.Grid
	// sum/count accumulate raw measurements per cell; the grid holds
	// their mean for measured cells and interpolated/model values
	// elsewhere.
	sum   []float64
	count []int

	// prior holds the model-initialised value per cell (§3.5 FSPL
	// initialisation). During interpolation it acts as a virtual
	// measurement at distance PriorRangeM, so cells far from any real
	// measurement relax to the model instead of trusting long-range
	// IDW extrapolation.
	prior    []float64
	hasPrior bool
	// PriorRangeM is the blending length scale (default 25 m).
	PriorRangeM float64
	// BlendPrior enables prior blending during interpolation (see the
	// comment in Interpolate; default off, matching the paper).
	BlendPrior bool
}

// New returns an empty REM covering area with the given cell size
// (1 m in the paper). All cells start at 0 SNR, unmeasured.
func New(area geom.Rect, cell float64) *Map {
	g := geom.GridOver(area, cell)
	n := g.NX * g.NY
	return &Map{grid: g, sum: make([]float64, n), count: make([]int, n)}
}

// Grid exposes the underlying SNR grid (shared, not a copy).
func (m *Map) Grid() *geom.Grid { return m.grid }

// Bounds returns the covered area.
func (m *Map) Bounds() geom.Rect { return m.grid.Bounds() }

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	c := &Map{
		grid:        m.grid.Clone(),
		sum:         append([]float64(nil), m.sum...),
		count:       append([]int(nil), m.count...),
		hasPrior:    m.hasPrior,
		PriorRangeM: m.PriorRangeM,
		BlendPrior:  m.BlendPrior,
	}
	if m.prior != nil {
		c.prior = append([]float64(nil), m.prior...)
	}
	return c
}

// AddMeasurement bins an SNR sample taken at horizontal position p
// into its cell; the cell value becomes the running mean of all
// samples in that cell (§3.3.3 "Measurement Update"). Samples outside
// the area are ignored.
func (m *Map) AddMeasurement(p geom.Vec2, snrDB float64) {
	cx, cy := m.grid.CellOf(p)
	if !m.grid.InBounds(cx, cy) {
		return
	}
	i := cy*m.grid.NX + cx
	m.sum[i] += snrDB
	m.count[i]++
	m.grid.Values()[i] = m.sum[i] / float64(m.count[i])
}

// Measured reports whether cell (cx, cy) holds at least one direct
// measurement.
func (m *Map) Measured(cx, cy int) bool {
	return m.count[cy*m.grid.NX+cx] > 0
}

// MeasuredCells returns the number of cells with direct measurements.
func (m *Map) MeasuredCells() int {
	n := 0
	for _, c := range m.count {
		if c > 0 {
			n++
		}
	}
	return n
}

// Value returns the current SNR estimate at p (nearest cell).
func (m *Map) Value(p geom.Vec2) float64 { return m.grid.ValueAt(p) }

// FillFrom initialises every *unmeasured* cell from the given model
// (e.g. free-space pathloss given an estimated UE position, §3.5) and
// records the model as the map's interpolation prior. Measured cells
// keep their data.
func (m *Map) FillFrom(model func(geom.Vec2) float64) {
	if m.prior == nil {
		m.prior = make([]float64, m.grid.NX*m.grid.NY)
	}
	m.hasPrior = true
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			v := model(m.grid.CellCenter(cx, cy))
			m.prior[i] = v
			if m.count[i] == 0 {
				m.grid.Values()[i] = v
			}
		}
	}
}

// ErrNoMeasurements is returned by Interpolate when the map holds no
// measured cells to interpolate from.
var ErrNoMeasurements = fmt.Errorf("rem: no measured cells to interpolate from")

// Interpolate fills every unmeasured cell by inverse-distance-weighted
// (IDW) interpolation over measured cells, with weights 1/d²
// (§3.3.3 "Interpolation"). Only the nearest measured cells influence
// each estimate, located through a coarse spatial index so the pass
// stays near-linear in grid size.
func (m *Map) Interpolate() error {
	measured := m.measuredPoints()
	if len(measured) == 0 {
		return ErrNoMeasurements
	}
	const minNeighbors = 6
	ix := newNeighbourIndex(m.grid.Bounds(), measured, minNeighbors)
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				continue
			}
			c := m.grid.CellCenter(cx, cy)
			var num, den float64
			exact := false
			nearest2 := 1e300
			for _, mi := range ix.neighbours(c) {
				p := measured[mi]
				d2 := (p.x-c.X)*(p.x-c.X) + (p.y-c.Y)*(p.y-c.Y)
				if d2 < 1e-12 {
					num, den = p.v, 1
					exact = true
					break
				}
				if d2 < nearest2 {
					nearest2 = d2
				}
				w := 1 / d2
				num += w * p.v
				den += w
			}
			if den <= 0 {
				continue
			}
			v := num / den
			if m.BlendPrior && m.hasPrior && !exact {
				// Optional: relax towards the model prior as the
				// nearest real measurement recedes, α = 1/(1+(d/R)²).
				// Off by default — the paper's estimated REM is pure
				// IDW over measurements (§3.3.3); the prior fill only
				// seeds planning before data exists (§3.5). Blending
				// helps placement safety but caps whole-map accuracy
				// at the model's (poor) NLOS fidelity, so the
				// placement mask is the default safeguard instead.
				pr := m.PriorRangeM
				if pr <= 0 {
					pr = 25
				}
				alpha := 1 / (1 + nearest2/(pr*pr))
				v = alpha*v + (1-alpha)*m.prior[i]
			}
			m.grid.Set(cx, cy, v)
		}
	}
	return nil
}

// measuredPt is a measured cell: its centre and mean SNR.
type measuredPt struct {
	x, y, v float64
}

// measuredPoints returns the measured cells in row-major order.
func (m *Map) measuredPoints() []measuredPt {
	var out []measuredPt
	for cy := 0; cy < m.grid.NY; cy++ {
		for cx := 0; cx < m.grid.NX; cx++ {
			i := cy*m.grid.NX + cx
			if m.count[i] > 0 {
				c := m.grid.CellCenter(cx, cy)
				out = append(out, measuredPt{c.X, c.Y, m.grid.Values()[i]})
			}
		}
	}
	return out
}

// bucketsPerSide is the resolution of the coarse index the
// interpolators search measured cells through.
const bucketsPerSide = 32

// neighbourIndex buckets measured points on a bucketsPerSide² grid
// over the map. A cell's candidate neighbours are the points of the
// bucket rings around its bucket, expanded until at least want points
// are found and then one ring further, so no nearer point in a
// diagonal bucket is missed. That list, and its order, depend only on
// the bucket, so it is built once per bucket on first use and shared
// by every cell in the bucket.
type neighbourIndex struct {
	bounds  geom.Rect
	bw, bh  float64
	want    int
	buckets [][]int
	lists   [][]int
}

func newNeighbourIndex(b geom.Rect, pts []measuredPt, want int) *neighbourIndex {
	ix := &neighbourIndex{
		bounds:  b,
		bw:      b.Width() / bucketsPerSide,
		bh:      b.Height() / bucketsPerSide,
		want:    want,
		buckets: make([][]int, bucketsPerSide*bucketsPerSide),
		lists:   make([][]int, bucketsPerSide*bucketsPerSide),
	}
	if ix.bw <= 0 {
		ix.bw = 1
	}
	if ix.bh <= 0 {
		ix.bh = 1
	}
	for i, p := range pts {
		bx, by := ix.bucketOf(p.x, p.y)
		ix.buckets[by*bucketsPerSide+bx] = append(ix.buckets[by*bucketsPerSide+bx], i)
	}
	return ix
}

func (ix *neighbourIndex) bucketOf(x, y float64) (int, int) {
	bx := int((x - ix.bounds.MinX) / ix.bw)
	by := int((y - ix.bounds.MinY) / ix.bh)
	if bx < 0 {
		bx = 0
	} else if bx >= bucketsPerSide {
		bx = bucketsPerSide - 1
	}
	if by < 0 {
		by = 0
	} else if by >= bucketsPerSide {
		by = bucketsPerSide - 1
	}
	return bx, by
}

// neighbours returns the candidate neighbour indices for a cell centred
// at c. The slice is shared: callers must not modify it.
func (ix *neighbourIndex) neighbours(c geom.Vec2) []int {
	bx, by := ix.bucketOf(c.X, c.Y)
	k := by*bucketsPerSide + bx
	if ix.lists[k] != nil {
		return ix.lists[k]
	}
	var idxs []int
	lastRing := -1 // ring index after which to stop
	for r := 0; r < 2*bucketsPerSide; r++ {
		added := collectRing(ix.buckets, bucketsPerSide, bx, by, r, &idxs)
		if added < 0 && len(idxs) > 0 {
			break // ring fully outside the index; no more points anywhere
		}
		if lastRing < 0 && len(idxs) >= ix.want {
			lastRing = r + 1
		}
		if lastRing >= 0 && r >= lastRing {
			break
		}
	}
	ix.lists[k] = idxs
	return idxs
}

// collectRing appends the point indices of the bucket ring at radius r
// around (bx, by) and returns the number appended (or -1 if the whole
// ring was out of bounds).
func collectRing(buckets [][]int, n, bx, by, r int, out *[]int) int {
	added := 0
	inb := false
	visit := func(x, y int) {
		if x < 0 || x >= n || y < 0 || y >= n {
			return
		}
		inb = true
		*out = append(*out, buckets[y*n+x]...)
		added += len(buckets[y*n+x])
	}
	if r == 0 {
		visit(bx, by)
	} else {
		for dx := -r; dx <= r; dx++ {
			visit(bx+dx, by-r)
			visit(bx+dx, by+r)
		}
		for dy := -r + 1; dy <= r-1; dy++ {
			visit(bx-r, by+dy)
			visit(bx+r, by+dy)
		}
	}
	if !inb {
		return -1
	}
	return added
}
