package terrain

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

const esriOK = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -9999\n1 2\n3 4\n"

// esriWith replaces one header line of esriOK.
func esriWith(key, line string) string {
	var out []string
	for _, l := range strings.Split(esriOK, "\n") {
		if strings.HasPrefix(l, key+" ") {
			l = line
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// ReadESRI refuses a header value or height that is not finite or
// exceeds 1e9 in magnitude: heights of 1.7e308 and -1.7e308 would
// give cell 0 an obstacle of +Inf. A NODATA_value need only be finite,
// as real grids use -3.4028235e38.
func TestESRIRejectsNonFinite(t *testing.T) {
	for _, c := range []struct{ asc, field string }{
		{esriWith("cellsize", "cellsize NaN"), "cellsize"},
		{esriWith("cellsize", "cellsize +Inf"), "cellsize"},
		{esriWith("xllcorner", "xllcorner NaN"), "xllcorner"},
		{esriWith("yllcorner", "yllcorner -Inf"), "yllcorner"},
		{esriWith("NODATA_value", "NODATA_value NaN"), "nodata_value"},
		{esriWith("ncols", "ncols Inf"), "ncols"},
		{strings.Replace(esriOK, "3 4", "3 NaN", 1), "data row 2"},
		{strings.Replace(esriOK, "1 2", "Inf 2", 1), "data row 1"},
		{strings.Replace(esriOK, "1 2", "1.7e308 -1.7e308", 1), "data row 1"},
		{esriWith("xllcorner", "xllcorner 2e9"), "xllcorner"},
		{esriWith("yllcorner", "yllcorner -2e9"), "yllcorner"},
		{esriWith("cellsize", "cellsize 2e9"), "cellsize"},
		{esriWith("ncols", "ncols 2e9"), "header ncols"},
	} {
		_, err := ReadESRI("NF", strings.NewReader(c.asc), 1)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("ReadESRI with a non-finite or out-of-range %s: err = %v, want one naming it", c.field, err)
		}
	}
	if _, err := ReadESRI("OK", strings.NewReader(esriOK), 1); err != nil {
		t.Errorf("the unmodified grid fails: %v", err)
	}
	nodata := strings.Replace(esriWith("NODATA_value", "NODATA_value -3.4028235e38"), "1 2", "-3.4028235e38 2", 1)
	s, err := ReadESRI("NODATA", strings.NewReader(nodata), 1)
	if err != nil {
		t.Fatalf("a grid with NODATA_value -3.4028235e38 fails: %v", err)
	}
	checkImported(t, s)
}

func TestESRIRejectsOversizedGrid(t *testing.T) {
	// The header alone asks for 10¹⁰ cells; the import stops at the
	// first data row, before reading or allocating the grid.
	asc := "ncols 100000\nnrows 100000\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n"
	if _, err := ReadESRI("BIG", strings.NewReader(asc), 1); err == nil || !strings.Contains(err.Error(), "import limit") {
		t.Errorf("err = %v, want the import limit", err)
	}
	// A complete grid whose corner would push its extent past float64:
	// both exceed the 1e9 bound on header values.
	asc = strings.Replace(esriWith("xllcorner", "xllcorner 1.7e308"), "cellsize 10", "cellsize 1e308", 1)
	if _, err := ReadESRI("FAR", strings.NewReader(asc), 1); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Errorf("err = %v, want a non-finite extent", err)
	}
}

// ReadXYZ refuses a coordinate that is not finite or exceeds 1e9 m in
// magnitude: ground at 1.7e308 in cells 0 and 2 of the last cloud
// would grid cell 1's interpolated ground to +Inf.
func TestReadXYZRejectsNonFinite(t *testing.T) {
	for _, c := range []struct{ xyz, want string }{
		{"1 2 3\nNaN 2 3 2\n", "line 2: x"},
		{"1 +Inf 3\n", "line 1: y"},
		{"# header\n1 2 -Inf 6\n", "line 2: z"},
		{"0 0 1.7e308 2\n2 0 1.7e308 2\n1 0 5 6\n", "line 1: z"},
	} {
		_, err := ReadXYZ(strings.NewReader(c.xyz))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadXYZ(%q): err = %v, want %q", c.xyz, err, c.want)
		}
	}
}

func TestFromPointCloudRejectsNonFiniteAndOversized(t *testing.T) {
	nan := PointCloud{{0, 0, 1, ClassGround}, {math.NaN(), 3, 1, ClassGround}}
	if _, err := FromPointCloud("NAN", nan, 1); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Errorf("NaN point: err = %v, want one naming point 1", err)
	}
	huge := PointCloud{{0, 0, 1.7e308, ClassGround}, {2, 0, 1.7e308, ClassGround}, {1, 0, 5, ClassBuilding}}
	if _, err := FromPointCloud("HUGE", huge, 1); err == nil || !strings.Contains(err.Error(), "point 0") {
		t.Errorf("point at z = 1.7e308: err = %v, want one naming point 0", err)
	}
	// Two points 100 km apart would size an ~80 GB grid from their
	// extent alone.
	far := "0 0 5 2\n100000 100000 5 2\n"
	pc, err := ReadXYZ(strings.NewReader(far))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromPointCloud("FAR", pc, 1); err == nil || !strings.Contains(err.Error(), "import limit") {
		t.Errorf("far points: err = %v, want the import limit", err)
	}
	if _, err := FromPointCloud("CELL", pc, math.NaN()); err == nil {
		t.Error("NaN cell size should fail")
	}
}

// TestImportLimitCoversBuiltins checks that every built-in terrain fits
// under the import cap, so any of them exported to ESRI reads back.
func TestImportLimitCoversBuiltins(t *testing.T) {
	for _, name := range []string{"CAMPUS", "RURAL", "NYC", "LARGE", "FLAT"} {
		s := ByName(name, 1)
		nx, ny := s.Dims()
		if nx*ny > maxImportCells/4 {
			t.Errorf("%s has %d cells, within 4× of the %d-cell import limit", name, nx*ny, maxImportCells)
		}
	}
	large := Large(1)
	var buf bytes.Buffer
	if err := large.WriteESRI(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadESRI("LARGE-DSM", &buf, 4); err != nil {
		t.Errorf("LARGE round trip: %v", err)
	}
}

// oracleNearestGround is the ring walk without the summed-area skip.
func oracleNearestGround(nx, ny int, agg []cellAgg, cx, cy int) (float64, bool) {
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
		for dx := -r; dx <= r; dx++ {
			visit(cx+dx, cy-r)
			visit(cx+dx, cy+r)
		}
		for dy := -r + 1; dy <= r-1; dy++ {
			visit(cx-r, cy+dy)
			visit(cx+r, cy+dy)
		}
		if n > 0 {
			return sum / float64(n), true
		}
	}
	return 0, false
}

// TestNearestGroundMatchesRingWalk checks the summed-area skip against
// the plain ring walk on every cell of sparse and dense random grids.
func TestNearestGroundMatchesRingWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		nx, ny := 1+rng.Intn(200), 1+rng.Intn(200)
		agg := make([]cellAgg, nx*ny)
		density := []float64{0, 0.0002, 0.002, 0.05, 0.5}[trial%5]
		for i := range agg {
			if rng.Float64() < density {
				agg[i] = cellAgg{hasGround: true, groundMin: rng.NormFloat64() * 20}
			}
		}
		sat := groundCounts(nx, ny, agg)
		for cy := 0; cy < ny; cy++ {
			for cx := 0; cx < nx; cx++ {
				g, ok := nearestGround(nx, ny, agg, sat, cx, cy)
				og, ook := oracleNearestGround(nx, ny, agg, cx, cy)
				if ok != ook || math.Float64bits(g) != math.Float64bits(og) {
					t.Fatalf("%d×%d grid, cell (%d, %d): (%v, %v), ring walk (%v, %v)", nx, ny, cx, cy, g, ok, og, ook)
				}
			}
		}
	}
}

// checkImported holds for every surface an importer returns: a grid
// within the cap over a finite area, with finite ground and obstacle
// heights in every cell.
func checkImported(t *testing.T, s *Surface) {
	t.Helper()
	nx, ny := s.Dims()
	if nx*ny > maxImportCells {
		t.Fatalf("imported %d × %d cells, over the %d-cell limit", nx, ny, maxImportCells)
	}
	notFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	b := s.Bounds()
	for _, v := range []float64{b.MinX, b.MinY, b.MaxX, b.MaxY, s.Cell()} {
		if notFinite(v) {
			t.Fatalf("imported bounds %+v, cell %v: not finite", b, s.Cell())
		}
	}
	for i, v := range s.ground.Values() {
		if o := s.obstacle.Values()[i]; notFinite(v) || notFinite(o) {
			t.Fatalf("imported cell %d: ground %v, obstacle %v: not finite", i, v, o)
		}
	}
}

func FuzzReadESRI(f *testing.F) {
	f.Add(esriOK)
	f.Add(esriWith("cellsize", "cellsize NaN"))
	f.Add(esriWith("cellsize", "cellsize +Inf"))
	f.Add(esriWith("xllcorner", "xllcorner NaN"))
	f.Add("ncols 100000\nnrows 100000\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n")
	f.Add("ncols 3\nnrows 1\nxllcorner -5\nyllcorner 7\ncellsize 0.5\nNODATA_value -1\n-1 30 2\n")
	f.Add("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -9999\n1.7e308 -1.7e308\n")
	f.Fuzz(func(t *testing.T, asc string) {
		s, err := ReadESRI("FUZZ", strings.NewReader(asc), 4)
		if err != nil {
			return
		}
		checkImported(t, s)
	})
}

func FuzzReadXYZ(f *testing.F) {
	f.Add("1 2 3\n4 5 6 6\n")
	f.Add("1 2 3\nNaN 2 3 2\n")
	f.Add("0 0 5 2\n100000 100000 5 2\n")
	f.Add("# cloud\n0 0 1 2\n3 0 9 6\n0 3 4 5\n3 3 1\n")
	f.Add("0 0 1.7e308 2\n2 0 1.7e308 2\n1 0 5 6\n")
	f.Fuzz(func(t *testing.T, xyz string) {
		pc, err := ReadXYZ(strings.NewReader(xyz))
		if err != nil || len(pc) == 0 {
			return
		}
		s, err := FromPointCloud("FUZZ", pc, 1)
		if err != nil {
			return
		}
		checkImported(t, s)
	})
}
