// Command remviz renders terrains, ground-truth REMs, gradient maps
// and flight trajectories as ASCII art — the textual counterpart of
// the paper's Fig 5/15/16 overlays.
//
// Usage:
//
//	remviz -terrain NYC -what terrain
//	remviz -terrain CAMPUS -what rem -ue 150,150 -alt 60
//	remviz -terrain CAMPUS -what gradient -ue 150,150
//	remviz -terrain CAMPUS -what trajectory -ues 5
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/rem"
	"repro/internal/terrain"
	"repro/internal/traj"
	"repro/internal/ue"
)

func main() {
	var (
		terrName = flag.String("terrain", "CAMPUS", "terrain name")
		what     = flag.String("what", "terrain", "terrain | rem | gradient | trajectory")
		uePos    = flag.String("ue", "80,250", "UE position x,y for rem/gradient")
		alt      = flag.Float64("alt", 60, "altitude for REM computation")
		nUEs     = flag.Int("ues", 5, "UE count for trajectory view")
		seed     = flag.Int64("seed", 1, "seed")
		cols     = flag.Int("width", 78, "output width in characters")
	)
	flag.Parse()
	if err := run(*terrName, *what, *uePos, *alt, *nUEs, *seed, *cols); err != nil {
		fmt.Fprintln(os.Stderr, "remviz:", err)
		os.Exit(1)
	}
}

func run(terrName, what, uePos string, alt float64, nUEs int, seed int64, cols int) error {
	t := terrain.ByName(terrName, uint64(seed))
	if t == nil {
		return fmt.Errorf("unknown terrain %q", terrName)
	}
	switch what {
	case "terrain":
		renderTerrain(t, cols)
	case "rem", "gradient":
		p, err := parsePoint(uePos)
		if err != nil {
			return err
		}
		model := radio.NewModel(t, radio.DefaultParams(), uint64(seed))
		cell := t.Bounds().Width() / float64(cols)
		g := radio.GroundTruthREM(model, t.Bounds(), cell, p, alt)
		if what == "gradient" {
			g = rem.Gradient(g)
		}
		renderGrid(g, cols, what == "gradient")
		fmt.Printf("UE at %s, altitude %.0f m\n", p, alt)
	case "trajectory":
		return renderTrajectory(t, nUEs, seed, alt, cols)
	default:
		return fmt.Errorf("unknown view %q", what)
	}
	return nil
}

func parsePoint(s string) (geom.Vec2, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geom.Vec2{}, fmt.Errorf("want x,y, got %q", s)
	}
	x, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return geom.Vec2{}, err
	}
	y, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return geom.Vec2{}, err
	}
	return geom.V2(x, y), nil
}

func renderTerrain(t *terrain.Surface, cols int) {
	b := t.Bounds()
	rows := cols * int(b.Height()) / int(b.Width()) / 2 // chars are ~2x tall
	for ry := rows - 1; ry >= 0; ry-- {
		var line strings.Builder
		for cx := 0; cx < cols; cx++ {
			p := geom.V2(
				b.MinX+(float64(cx)+0.5)*b.Width()/float64(cols),
				b.MinY+(float64(ry)+0.5)*b.Height()/float64(rows),
			)
			switch t.MaterialAt(p) {
			case terrain.Building:
				if t.ObstacleAt(p) > 40 {
					line.WriteByte('#')
				} else {
					line.WriteByte('B')
				}
			case terrain.Foliage:
				line.WriteByte('t')
			default:
				line.WriteByte('.')
			}
		}
		fmt.Println(line.String())
	}
	st := t.Stats()
	fmt.Printf("%s: B=building (#=tall) t=foliage .=open | %.0f%% open, max obstacle %.0f m\n",
		t.Name, 100*st.OpenFrac, st.MaxObstacleHeight)
}

func renderGrid(g *geom.Grid, cols int, isGradient bool) {
	// Normalize to 10 shade levels.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range g.Values() {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	shades := " .:-=+*%@#"
	rows := g.NY / 2
	if rows < 1 {
		rows = 1
	}
	for ry := rows - 1; ry >= 0; ry-- {
		var line strings.Builder
		for cx := 0; cx < g.NX && cx < cols; cx++ {
			v := g.At(cx, ry*2)
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * 9.999)
			}
			line.WriteByte(shades[idx])
		}
		fmt.Println(line.String())
	}
	kind := "SNR"
	if isGradient {
		kind = "gradient"
	}
	fmt.Printf("%s range: %.1f .. %.1f dB (dark=low, bright=high)\n", kind, lo, hi)
}

func renderTrajectory(t *terrain.Surface, nUEs int, seed int64, alt float64, cols int) error {
	rng := rand.New(rand.NewSource(seed))
	ues, err := ue.TryPlaceRandomOpen(nUEs, t.Bounds().Inset(t.Bounds().Width()*0.1), t.IsOpen, 15, rng)
	if err != nil {
		return err
	}
	model := radio.NewModel(t, radio.DefaultParams(), uint64(seed))

	// Build the aggregate FSPL-initialised REM and plan like SkyRAN's
	// first epoch.
	cell := t.Bounds().Width() / 125
	maps := make([]*rem.Map, len(ues))
	for i, u := range ues {
		m := rem.New(t.Bounds(), cell)
		pos := u.Pos
		m.FillFrom(func(c geom.Vec2) float64 { return model.FSPLSNR(c.WithZ(alt), pos) })
		maps[i] = m
	}
	agg := maps[0].Grid().Clone()
	for _, m := range maps[1:] {
		for i, v := range m.Grid().Values() {
			agg.Values()[i] += v
		}
	}
	grad := rem.Gradient(agg)
	pl := traj.DefaultPlanner()
	path, err := pl.Plan(grad, make([]traj.History, len(ues)), t.Bounds().Center(), rng)
	if err != nil {
		return err
	}

	// Render: terrain background, trajectory '+', UEs 'U', start 'S'.
	b := t.Bounds()
	rows := cols / 2
	canvas := make([][]byte, rows)
	for ry := range canvas {
		canvas[ry] = make([]byte, cols)
		for cx := range canvas[ry] {
			p := cellToWorld(b, cols, rows, cx, ry)
			switch t.MaterialAt(p) {
			case terrain.Building:
				canvas[ry][cx] = 'B'
			case terrain.Foliage:
				canvas[ry][cx] = 't'
			default:
				canvas[ry][cx] = '.'
			}
		}
	}
	plot := func(p geom.Vec2, ch byte) {
		cx := int((p.X - b.MinX) / b.Width() * float64(cols))
		ry := int((p.Y - b.MinY) / b.Height() * float64(rows))
		if cx >= 0 && cx < cols && ry >= 0 && ry < rows {
			canvas[ry][cx] = ch
		}
	}
	for _, p := range path.Resample(b.Width() / float64(cols)) {
		plot(p, '+')
	}
	for _, u := range ues {
		plot(u.Pos, 'U')
	}
	plot(path[0], 'S')
	for ry := rows - 1; ry >= 0; ry-- {
		fmt.Println(string(canvas[ry]))
	}
	fmt.Printf("planned trajectory: %.0f m through %d waypoints (S=start, +=path, U=UE)\n",
		path.Length(), len(path))
	return nil
}

func cellToWorld(b geom.Rect, cols, rows, cx, ry int) geom.Vec2 {
	return geom.V2(
		b.MinX+(float64(cx)+0.5)*b.Width()/float64(cols),
		b.MinY+(float64(ry)+0.5)*b.Height()/float64(rows),
	)
}
