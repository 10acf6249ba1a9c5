package terrain

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// Synthesize emits a LiDAR-like point cloud from a Surface: density
// points per square metre, with ground returns under open cells and
// top returns over obstacles (plus a fraction of ground returns
// punching through foliage, as real LiDAR does).
func Synthesize(s *Surface, density float64, seed uint64) PointCloud {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := s.Bounds()
	n := int(b.Area() * density)
	pc := make(PointCloud, 0, n)
	for i := 0; i < n; i++ {
		p := geom.V2(b.MinX+rng.Float64()*b.Width(), b.MinY+rng.Float64()*b.Height())
		ground := s.GroundAt(p)
		switch s.MaterialAt(p) {
		case Open:
			pc = append(pc, Point{p.X, p.Y, ground, ClassGround})
		case Building:
			pc = append(pc, Point{p.X, p.Y, ground + s.ObstacleAt(p), ClassBuilding})
		case Foliage:
			if rng.Float64() < 0.25 { // canopy penetration
				pc = append(pc, Point{p.X, p.Y, ground, ClassGround})
			} else {
				top := ground + s.ObstacleAt(p)*(0.8+0.2*rng.Float64())
				pc = append(pc, Point{p.X, p.Y, top, ClassVegetation})
			}
		}
	}
	return pc
}

// WriteXYZ serialises the cloud in the plain "x y z class" text format
// (one point per line) that ReadXYZ and cmd/skyranctl accept.
func (pc PointCloud) WriteXYZ(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range pc {
		if _, err := fmt.Fprintf(bw, "%.3f %.3f %.3f %d\n", p.X, p.Y, p.Z, p.Class); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SortByXY orders the cloud row-major for deterministic serialisation.
func (pc PointCloud) SortByXY() {
	sort.Slice(pc, func(i, j int) bool {
		if pc[i].Y != pc[j].Y {
			return pc[i].Y < pc[j].Y
		}
		return pc[i].X < pc[j].X
	})
}

func TestMaterialString(t *testing.T) {
	if Open.String() != "open" || Building.String() != "building" || Foliage.String() != "foliage" {
		t.Error("material names wrong")
	}
	if !strings.Contains(Material(9).String(), "9") {
		t.Error("unknown material should show its code")
	}
}

func TestNewSurfaceFlat(t *testing.T) {
	s := NewSurface("T", geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 50}, 1)
	nx, ny := s.Dims()
	if nx != 100 || ny != 50 {
		t.Fatalf("dims %dx%d", nx, ny)
	}
	if s.Cell() != 1 {
		t.Error("cell size")
	}
	p := geom.V2(50, 25)
	if s.GroundAt(p) != 0 || s.HeightAt(p) != 0 || s.MaterialAt(p) != Open || !s.IsOpen(p) {
		t.Error("flat surface should be zero/open everywhere")
	}
}

func TestPaintRectAndDisk(t *testing.T) {
	s := NewSurface("T", geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 1)
	s.paintRect(geom.Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}, 15, Building)
	if s.MaterialAt(geom.V2(15, 15)) != Building {
		t.Error("rect interior should be building")
	}
	if s.ObstacleAt(geom.V2(15, 15)) != 15 {
		t.Errorf("obstacle height = %v", s.ObstacleAt(geom.V2(15, 15)))
	}
	if s.MaterialAt(geom.V2(25, 25)) != Open {
		t.Error("outside rect should stay open")
	}

	s.paintDisk(geom.V2(50, 50), 5, 20, Foliage)
	if s.MaterialAt(geom.V2(50, 50)) != Foliage {
		t.Error("disk centre should be foliage")
	}
	// Tapered canopy: edge lower than centre.
	if s.ObstacleAt(geom.V2(53, 50)) >= s.ObstacleAt(geom.V2(50, 50)) {
		t.Error("canopy should taper towards the rim")
	}
	if s.MaterialAt(geom.V2(57, 50)) != Open {
		t.Error("outside disk radius should stay open")
	}
}

func TestPaintKeepsTaller(t *testing.T) {
	s := NewSurface("T", geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1)
	s.paintRect(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 30, Building)
	s.paintDisk(geom.V2(5, 5), 3, 10, Foliage)
	if s.MaterialAt(geom.V2(5, 5)) != Building || s.ObstacleAt(geom.V2(5, 5)) != 30 {
		t.Error("shorter paint must not overwrite taller obstacle")
	}
}

func TestPaintOutOfBoundsIgnored(t *testing.T) {
	s := NewSurface("T", geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 1)
	// Must not panic.
	s.paintRect(geom.Rect{MinX: -50, MinY: -50, MaxX: 60, MaxY: 5}, 9, Building)
	if s.MaterialAt(geom.V2(5, 2)) != Building {
		t.Error("in-bounds part of straddling rect should be painted")
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name      string
		gen       func(uint64) *Surface
		size      float64
		minBldFrc float64
	}{
		{"CAMPUS", Campus, 300, 0.02},
		{"RURAL", Rural, 250, 0.001},
		{"NYC", NYC, 250, 0.30},
		{"LARGE", Large, 1000, 0.03},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.gen(1)
			if s.Name != c.name {
				t.Errorf("name = %q", s.Name)
			}
			b := s.Bounds()
			if b.Width() < c.size-1 || b.Width() > c.size+5 {
				t.Errorf("width = %v, want ~%v", b.Width(), c.size)
			}
			st := s.Stats()
			if st.BuildingFrac < c.minBldFrc {
				t.Errorf("building fraction = %v, want >= %v", st.BuildingFrac, c.minBldFrc)
			}
			if st.OpenFrac <= 0 {
				t.Error("no open ground at all")
			}
			if st.MaxObstacleHeight <= 0 {
				t.Error("no obstacles generated")
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := NYC(7), NYC(7)
	nx, ny := a.Dims()
	for cy := 0; cy < ny; cy += 17 {
		for cx := 0; cx < nx; cx += 13 {
			p := a.ground.CellCenter(cx, cy)
			if a.HeightAt(p) != b.HeightAt(p) || a.MaterialAt(p) != b.MaterialAt(p) {
				t.Fatalf("same seed differs at %v", p)
			}
		}
	}
	c := NYC(8)
	diff := 0
	for cy := 0; cy < ny; cy += 17 {
		for cx := 0; cx < nx; cx += 13 {
			p := a.ground.CellCenter(cx, cy)
			if a.HeightAt(p) != c.HeightAt(p) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds give identical terrain")
	}
}

func TestNYCHasCanyons(t *testing.T) {
	s := NYC(3)
	// Streets every ~62 m: the row at y=9 (inside the first street)
	// should be mostly open.
	open := 0
	for x := 0.5; x < 250; x++ {
		if s.IsOpen(geom.V2(x, 9)) {
			open++
		}
	}
	if open < 200 {
		t.Errorf("street row only %d/250 open", open)
	}
	st := s.Stats()
	if st.MaxObstacleHeight < 60 {
		t.Errorf("tallest tower %v m, want >= 60", st.MaxObstacleHeight)
	}
}

func TestCampusForest(t *testing.T) {
	s := Campus(1)
	// The southern strip is heavily forested with ~35 m trees.
	tall := 0
	for x := 5.0; x < 295; x += 5 {
		for y := 5.0; y < 50; y += 5 {
			if s.MaterialAt(geom.V2(x, y)) == Foliage && s.ObstacleAt(geom.V2(x, y)) > 20 {
				tall++
			}
		}
	}
	if tall < 20 {
		t.Errorf("only %d tall-foliage samples in the forest strip", tall)
	}
}

func TestMaxHeight(t *testing.T) {
	s := NewSurface("T", geom.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}, 1)
	s.paintRect(geom.Rect{MinX: 5, MinY: 5, MaxX: 8, MaxY: 8}, 33, Building)
	if got := s.MaxHeight(); got != 33 {
		t.Errorf("MaxHeight = %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"CAMPUS", "RURAL", "NYC", "LARGE", "FLAT"} {
		if ByName(n, 1) == nil {
			t.Errorf("ByName(%q) = nil", n)
		}
	}
	if ByName("MOON", 1) != nil {
		t.Error("unknown name should return nil")
	}
}

func TestSynthesizeRoundTrip(t *testing.T) {
	orig := NewSurface("RT", geom.Rect{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60}, 1)
	orig.paintRect(geom.Rect{MinX: 10, MinY: 10, MaxX: 30, MaxY: 30}, 25, Building)
	orig.paintDisk(geom.V2(45, 45), 6, 15, Foliage)

	pc := Synthesize(orig, 6, 42) // 6 pts/m² ≈ QL1 LiDAR density
	got, err := FromPointCloud("RT2", pc, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Compare obstruction height on a sample of interior cells.
	var errSum float64
	var n int
	for y := 2.5; y < 58; y += 2 {
		for x := 2.5; x < 58; x += 2 {
			p := geom.V2(x, y)
			errSum += math.Abs(got.HeightAt(p) - orig.HeightAt(p))
			n++
		}
	}
	mean := errSum / float64(n)
	if mean > 2.5 {
		t.Errorf("mean reconstruction error %.2f m, want <= 2.5", mean)
	}
	if got.MaterialAt(geom.V2(20, 20)) != Building {
		t.Error("building core misclassified")
	}
}

func TestFromPointCloudEmpty(t *testing.T) {
	if _, err := FromPointCloud("X", nil, 1); err == nil {
		t.Error("want error for empty cloud")
	}
}

func TestXYZRoundTrip(t *testing.T) {
	pc := PointCloud{
		{1.25, 2.5, 3.75, ClassGround},
		{10, 20, 30, ClassBuilding},
		{5, 6, 7, ClassVegetation},
	}
	var buf bytes.Buffer
	if err := pc.WriteXYZ(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXYZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pc) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range pc {
		if math.Abs(got[i].X-pc[i].X) > 1e-3 || got[i].Class != pc[i].Class {
			t.Errorf("point %d = %+v, want %+v", i, got[i], pc[i])
		}
	}
}

func TestReadXYZErrors(t *testing.T) {
	cases := []string{
		"1 2",          // too few fields
		"a 2 3",        // bad x
		"1 b 3",        // bad y
		"1 2 c",        // bad z
		"1 2 3 banana", // bad class
	}
	for _, c := range cases {
		if _, err := ReadXYZ(strings.NewReader(c)); err == nil {
			t.Errorf("ReadXYZ(%q) should fail", c)
		}
	}
	// Comments, blanks, default class all fine.
	pc, err := ReadXYZ(strings.NewReader("# hi\n\n1 2 3\n"))
	if err != nil || len(pc) != 1 || pc[0].Class != ClassGround {
		t.Errorf("lenient parse failed: %v %v", pc, err)
	}
}

func TestSortByXY(t *testing.T) {
	pc := PointCloud{{5, 5, 0, 2}, {1, 1, 0, 2}, {3, 1, 0, 2}}
	pc.SortByXY()
	if pc[0].X != 1 || pc[1].X != 3 || pc[2].Y != 5 {
		t.Errorf("sort order wrong: %+v", pc)
	}
}

func TestHeightAtProperty(t *testing.T) {
	s := Campus(5)
	f := func(x, y float64) bool {
		p := geom.V2(math.Mod(math.Abs(x), 300), math.Mod(math.Abs(y), 300))
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			return true
		}
		// Height is always >= ground, obstacle >= 0.
		return s.HeightAt(p) >= s.GroundAt(p) && s.ObstacleAt(p) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
