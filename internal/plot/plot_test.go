package plot

import (
	"math"
	"strings"
	"testing"
)

func twoSeries() *Chart {
	return &Chart{
		Title:  "Miss percent",
		XLabel: "rate",
		YLabel: "miss%",
		Xs:     []float64{1, 2, 3, 4, 5},
		Series: []Series{
			{Name: "EDF-HP", Ys: []float64{1, 2, 4, 8, 16}},
			{Name: "CCA", Ys: []float64{1, 1.5, 3, 6, 12}},
		},
	}
}

func TestRenderContainsStructure(t *testing.T) {
	out := twoSeries().Render()
	for _, want := range []string{"Miss percent", "EDF-HP", "CCA", "x: rate", "y: miss%", "*", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered chart missing %q:\n%s", want, out)
		}
	}
	// Axis annotations for min and max.
	if !strings.Contains(out, "16") || !strings.Contains(out, "1") {
		t.Errorf("axis labels missing:\n%s", out)
	}
}

func TestRenderDimensions(t *testing.T) {
	c := twoSeries()
	c.width, c.height = 40, 10
	out := c.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + 10 rows + axis + x labels + xy label + 2 legend entries
	if len(lines) != 1+10+1+1+1+2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for _, l := range lines[1:11] {
		if !strings.Contains(l, "|") {
			t.Fatalf("plot row missing axis bar: %q", l)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	c := &Chart{Title: "t"}
	if !strings.Contains(c.Render(), "no data") {
		t.Fatal("empty chart should say so")
	}
	c2 := &Chart{Title: "t", Xs: []float64{1}, Series: []Series{{Name: "s", Ys: []float64{math.NaN()}}}}
	if !strings.Contains(c2.Render(), "no finite data") {
		t.Fatal("NaN-only chart should say so")
	}
}

func TestRenderFlatSeries(t *testing.T) {
	c := &Chart{
		Xs:     []float64{1, 2, 3},
		Series: []Series{{Name: "flat", Ys: []float64{5, 5, 5}}},
	}
	out := c.Render() // must not divide by zero
	if !strings.Contains(out, "*") {
		t.Fatalf("flat series not plotted:\n%s", out)
	}
}

func TestRenderSingleX(t *testing.T) {
	c := &Chart{
		Xs:     []float64{3},
		Series: []Series{{Name: "pt", Ys: []float64{1}}},
	}
	if !strings.Contains(c.Render(), "*") {
		t.Fatal("single point not plotted")
	}
}

func TestMarkersTopLeftBottom(t *testing.T) {
	// Rising line: first point bottom-left, last point top-right.
	c := &Chart{
		Xs:     []float64{0, 1},
		Series: []Series{{Name: "s", Ys: []float64{0, 10}}},
		width:  20, height: 5,
	}
	out := c.Render()
	lines := strings.Split(out, "\n")
	top, bottom := lines[0], lines[4]
	if !strings.HasSuffix(strings.TrimRight(top, " "), "*") {
		t.Errorf("max not at top-right: %q", top)
	}
	if !strings.Contains(bottom, "|*") {
		t.Errorf("min not at bottom-left: %q", bottom)
	}
}

func TestManySeriesCycleMarkers(t *testing.T) {
	var ss []Series
	for i := 0; i < 10; i++ {
		ss = append(ss, Series{Name: "s", Ys: []float64{float64(i)}})
	}
	c := &Chart{Xs: []float64{1}, Series: ss}
	out := c.Render()
	if !strings.Contains(out, "*") || !strings.Contains(out, "#") {
		t.Fatalf("marker cycling broken:\n%s", out)
	}
}

func TestClampAndAbs(t *testing.T) {
	if clamp(5, 0, 3) != 3 || clamp(-1, 0, 3) != 0 || clamp(2, 0, 3) != 2 {
		t.Fatal("clamp wrong")
	}
	if abs(-4) != 4 || abs(4) != 4 {
		t.Fatal("abs wrong")
	}
}
