package terrain

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// ESRI ASCII grid interchange (.asc): the de-facto text format for
// digital elevation models, understood by ArcGIS, QGIS and GDAL. A
// LiDAR-derived DSM product holds a *total* height field (ground +
// obstacle); ReadESRI imports such a DSM as an all-building surface —
// coarse, but enough to drive the propagation model from third-party
// data when no classified point cloud is available.

// ReadESRI parses an ESRI ASCII grid into a Surface. Cells more than
// minObstacle above the grid's 10th-percentile height are classified
// as buildings (a DSM carries no material classes); NODATA cells
// become open ground at the base level. A header value or height that
// is not finite or exceeds 1e9 in magnitude is refused, naming its
// field or row (NODATA_value need only be finite: real grids use
// -3.4028235e38), and so is a header that asks for more than
// maxImportCells cells, before any row is read.
func ReadESRI(name string, r io.Reader, minObstacle float64) (*Surface, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	header := map[string]float64{}
	var nodata float64 = -9999
	var rows [][]float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		key := strings.ToLower(fields[0])
		isHeader := len(fields) == 2 && (key == "ncols" || key == "nrows" ||
			key == "xllcorner" || key == "yllcorner" || key == "cellsize" ||
			key == "nodata_value")
		if isHeader && rows == nil {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("terrain: esri header %s: %w", key, err)
			}
			if !finite(v) && (key != "nodata_value" || math.IsNaN(v) || math.IsInf(v, 0)) {
				return nil, fmt.Errorf("terrain: esri header %s: %v is not finite or exceeds 1e9 in magnitude", key, v)
			}
			if key == "nodata_value" {
				nodata = v
			} else {
				header[key] = v
			}
			continue
		}
		if rows == nil {
			// The header ends at the first data row: refuse a grid too
			// large to import before reading its rows.
			if _, _, err := esriArea(header); err != nil {
				return nil, err
			}
		}
		row := make([]float64, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("terrain: esri data row %d: %w", len(rows)+1, err)
			}
			if v != nodata && !finite(v) {
				return nil, fmt.Errorf("terrain: esri data row %d: %v is not finite or exceeds 1e9 in magnitude", len(rows)+1, v)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("terrain: esri read: %w", err)
	}
	area, cell, err := esriArea(header)
	if err != nil {
		return nil, err
	}

	ncols := int(header["ncols"])
	nrows := int(header["nrows"])
	if len(rows) != nrows {
		return nil, fmt.Errorf("terrain: esri has %d data rows, header says %d", len(rows), nrows)
	}
	for i, row := range rows {
		if len(row) != ncols {
			return nil, fmt.Errorf("terrain: esri row %d has %d cols, header says %d", i+1, len(row), ncols)
		}
	}

	s := NewSurface(name, area, cell)

	// Base level: 10th percentile of valid heights, taken as ground.
	var valid []float64
	for _, row := range rows {
		for _, v := range row {
			if v != nodata {
				valid = append(valid, v)
			}
		}
	}
	if len(valid) == 0 {
		return nil, fmt.Errorf("terrain: esri grid has no valid cells")
	}
	base := percentileOf(valid, 10)

	for ry, row := range rows {
		cy := nrows - 1 - ry // first data row is the northernmost
		for cx, v := range row {
			if v == nodata {
				s.setCell(cx, cy, base, 0, Open)
				continue
			}
			if v-base > minObstacle {
				s.setCell(cx, cy, base, v-base, Building)
			} else {
				s.setCell(cx, cy, v, 0, Open)
			}
		}
	}
	return s, nil
}

// esriArea returns the area and cell size the header describes, once
// it describes a positive grid that checkGrid accepts.
func esriArea(header map[string]float64) (geom.Rect, float64, error) {
	ncols, nrows, cell := header["ncols"], header["nrows"], header["cellsize"]
	if !(ncols >= 1 && nrows >= 1 && cell > 0) {
		return geom.Rect{}, 0, fmt.Errorf("terrain: esri header incomplete (ncols=%g nrows=%g cellsize=%g)", ncols, nrows, cell)
	}
	x, y := header["xllcorner"], header["yllcorner"]
	area := geom.Rect{MinX: x, MinY: y, MaxX: x + math.Floor(ncols)*cell, MaxY: y + math.Floor(nrows)*cell}
	if err := checkGrid(area, cell); err != nil {
		return geom.Rect{}, 0, fmt.Errorf("terrain: esri: %w", err)
	}
	return area, cell, nil
}

// percentileOf returns the p-th percentile of xs.
func percentileOf(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	idx := int(p / 100 * float64(len(cp)-1))
	return cp[idx]
}
