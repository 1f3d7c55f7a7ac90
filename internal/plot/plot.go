// Package plot renders experiment series as ASCII line charts — the
// terminal equivalent of the paper's figures. It exists so that the figure
// reproductions can be *looked at* (who wins, where the knee is, whether a
// curve is flat) without leaving the terminal or adding dependencies.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// markers assigns one glyph per series, cycling if there are many.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Series is one named curve.
type Series struct {
	Name string
	Ys   []float64
}

// Chart is a renderable X/Y chart of one or more series sharing the Xs.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Xs     []float64
	Series []Series
	// width and height are the plot-area dimensions in characters;
	// zero values choose 64x20.
	width, height int
}

// Render draws the chart. Points are plotted at their nearest cell; the
// Y axis is annotated with min/mid/max values and a legend follows.
func (c *Chart) Render() string {
	w, h := c.width, c.height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 20
	}
	if len(c.Xs) == 0 || len(c.Series) == 0 {
		return c.Title + "\n(no data)\n"
	}

	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, y := range s.Ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if math.IsInf(ymin, 1) {
		return c.Title + "\n(no finite data)\n"
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	xmin, xmax := c.Xs[0], c.Xs[len(c.Xs)-1]
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	col := func(x float64) int {
		v := int(math.Round((x - xmin) / (xmax - xmin) * float64(w-1)))
		return clamp(v, 0, w-1)
	}
	row := func(y float64) int {
		v := int(math.Round((ymax - y) / (ymax - ymin) * float64(h-1)))
		return clamp(v, 0, h-1)
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		prevSet := false
		var pr, pc int
		for i, y := range s.Ys {
			if i >= len(c.Xs) || math.IsNaN(y) || math.IsInf(y, 0) {
				prevSet = false
				continue
			}
			r, cc := row(y), col(c.Xs[i])
			if prevSet {
				drawLine(grid, pr, pc, r, cc, '.')
			}
			grid[r][cc] = m
			pr, pc, prevSet = r, cc, true
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	axis := func(v float64) string { return fmt.Sprintf("%8.4g", v) }
	for r := 0; r < h; r++ {
		label := strings.Repeat(" ", 8)
		switch r {
		case 0:
			label = axis(ymax)
		case h / 2:
			label = axis((ymax + ymin) / 2)
		case h - 1:
			label = axis(ymin)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", 8), w-len(axis(xmax)), axis(xmin), axis(xmax))
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", 8), c.XLabel, c.YLabel)
	}
	for si, s := range c.Series {
		fmt.Fprintf(&b, "%s  %c %s\n", strings.Repeat(" ", 8), markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// drawLine joins two cells with a sparse dotted segment (midpoint
// recursion), leaving endpoint markers intact.
func drawLine(grid [][]byte, r0, c0, r1, c1 int, glyph byte) {
	dr, dc := r1-r0, c1-c0
	if abs(dr) <= 1 && abs(dc) <= 1 {
		return
	}
	mr, mc := r0+dr/2, c0+dc/2
	if grid[mr][mc] == ' ' {
		grid[mr][mc] = glyph
	}
	drawLine(grid, r0, c0, mr, mc, glyph)
	drawLine(grid, mr, mc, r1, c1, glyph)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
