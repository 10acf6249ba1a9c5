package terrain

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
)

// WriteESRI is the tests' fixture writer: it exports the surface's
// total height field (ground + obstacle), as a LiDAR-derived DSM holds
// it, in ESRI ASCII grid format, rows north to south per the format's
// convention.
func (s *Surface) WriteESRI(w io.Writer) error {
	bw := bufio.NewWriter(w)
	nx, ny := s.Dims()
	b := s.Bounds()
	fmt.Fprintf(bw, "ncols %d\n", nx)
	fmt.Fprintf(bw, "nrows %d\n", ny)
	fmt.Fprintf(bw, "xllcorner %g\n", b.MinX)
	fmt.Fprintf(bw, "yllcorner %g\n", b.MinY)
	fmt.Fprintf(bw, "cellsize %g\n", s.Cell())
	fmt.Fprintf(bw, "NODATA_value %d\n", -9999)
	for cy := ny - 1; cy >= 0; cy-- {
		for cx := 0; cx < nx; cx++ {
			if cx > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			h := s.ground.At(cx, cy) + s.obstacle.At(cx, cy)
			if _, err := bw.WriteString(strconv.FormatFloat(h, 'f', 2, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func TestESRIRoundTrip(t *testing.T) {
	orig := NewSurface("RT", geom.Rect{MinX: 100, MinY: 200, MaxX: 140, MaxY: 230}, 1)
	orig.paintRect(geom.Rect{MinX: 110, MinY: 210, MaxX: 120, MaxY: 220}, 25, Building)

	var buf bytes.Buffer
	if err := orig.WriteESRI(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadESRI("RT2", &buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := got.Bounds()
	if b.MinX != 100 || b.MinY != 200 || b.Width() != 40 || b.Height() != 30 {
		t.Fatalf("bounds %+v", b)
	}
	// Heights match everywhere (DSM view).
	for y := 201.5; y < 229; y += 3 {
		for x := 101.5; x < 139; x += 3 {
			p := geom.V2(x, y)
			if math.Abs(got.HeightAt(p)-orig.HeightAt(p)) > 0.05 {
				t.Fatalf("height mismatch at %v: %v vs %v", p, got.HeightAt(p), orig.HeightAt(p))
			}
		}
	}
	// The tall block is classified as building.
	if got.MaterialAt(geom.V2(115, 215)) != Building {
		t.Error("block not classified as building")
	}
	if got.MaterialAt(geom.V2(105, 205)) != Open {
		t.Error("flat ground misclassified")
	}
}

func TestESRIOrientation(t *testing.T) {
	// First data row is the NORTHERN edge. Grid: 2 cols x 2 rows with
	// distinct values.
	asc := `ncols 2
nrows 2
xllcorner 0
yllcorner 0
cellsize 10
NODATA_value -9999
1 2
3 4
`
	s, err := ReadESRI("O", strings.NewReader(asc), 100)
	if err != nil {
		t.Fatal(err)
	}
	// South-west cell (0-10, 0-10) is the last row's first value: 3.
	if got := s.HeightAt(geom.V2(5, 5)); got != 3 {
		t.Errorf("SW = %v, want 3", got)
	}
	if got := s.HeightAt(geom.V2(15, 15)); got != 2 {
		t.Errorf("NE = %v, want 2", got)
	}
}

func TestESRINodataAndErrors(t *testing.T) {
	asc := `ncols 2
nrows 1
xllcorner 0
yllcorner 0
cellsize 5
NODATA_value -1
-1 7
`
	s, err := ReadESRI("N", strings.NewReader(asc), 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaterialAt(geom.V2(2, 2)) != Open {
		t.Error("nodata should become open ground")
	}
	for _, bad := range []string{
		"",                    // empty
		"ncols 2\nnrows 2\n",  // missing cellsize and data
		"ncols x\nnrows 2\n1", // bad header value
		"ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 4\n", // too many rows
		"ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n",      // short row
		"ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 banana\n", // bad value
	} {
		if _, err := ReadESRI("B", strings.NewReader(bad), 1); err == nil {
			t.Errorf("ReadESRI(%q) should fail", bad)
		}
	}
}

func TestESRIFromGenerator(t *testing.T) {
	// Export a generated campus and re-import: the propagation-relevant
	// height field survives the round trip.
	orig := Campus(1)
	var buf bytes.Buffer
	if err := orig.WriteESRI(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadESRI("CAMPUS-DSM", &buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for y := 5.5; y < 295; y += 10 {
		for x := 5.5; x < 295; x += 10 {
			p := geom.V2(x, y)
			if d := math.Abs(got.HeightAt(p) - orig.HeightAt(p)); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.05 {
		t.Errorf("worst DSM height error %.3f m", worst)
	}
}
