package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func findDef(t *testing.T, id string) Definition {
	t.Helper()
	d, ok := ByID(id)
	if !ok {
		t.Fatalf("definition %q not found", id)
	}
	return d
}

func TestRegistryCoversEveryPaperFigure(t *testing.T) {
	want := []string{"4a", "4b", "4c", "4d", "4e", "4f", "5a", "5b", "5c", "5d", "5e", "5f"}
	have := map[string]bool{}
	for _, d := range All() {
		for _, f := range d.Figures {
			if have[f.ID] {
				t.Errorf("figure %s defined twice", f.ID)
			}
			have[f.ID] = true
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("paper figure %s missing from registry", id)
		}
	}
}

func TestByIDResolvesFiguresAndSweeps(t *testing.T) {
	if d := findDef(t, "mm-rate"); d.ID != "mm-rate" {
		t.Error("sweep lookup failed")
	}
	if d := findDef(t, "4c"); d.ID != "mm-rate" {
		t.Errorf("figure 4c resolved to %s", d.ID)
	}
	if d := findDef(t, "fig5b"); d.ID != "disk-rate" {
		t.Errorf("fig5b resolved to %s", d.ID)
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestDefinitionsWellFormed(t *testing.T) {
	for _, d := range All() {
		if d.ID == "" || d.Title == "" || len(d.Xs) == 0 || d.Seeds <= 0 || len(d.Variants) == 0 || len(d.Figures) == 0 {
			t.Errorf("definition %q incomplete", d.ID)
		}
		for _, v := range d.Variants {
			cfg := v.configure(d.Xs[0], 1)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s/%s: invalid config at x=%v: %v", d.ID, v.name, d.Xs[0], err)
			}
		}
	}
}

func TestRunSmallSweep(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{2, 8}
	var progressed int
	r, err := Run(context.Background(), def, Options{Seeds: 3, Count: 120, Progress: func(done, total int) { progressed = done }})
	if err != nil {
		t.Fatal(err)
	}
	if progressed != 2*2*3 {
		t.Errorf("progress reported %d, want 12", progressed)
	}
	if len(r.Agg) != 2 || len(r.Agg[0]) != 2 {
		t.Fatalf("aggregate shape wrong")
	}
	if r.Agg[0][0].N() != 3 {
		t.Fatalf("seeds aggregated = %d, want 3", r.Agg[0][0].N())
	}
	tables := r.Tables()
	if len(tables) != len(def.Figures) {
		t.Fatalf("rendered %d tables, want %d", len(tables), len(def.Figures))
	}
	// Figure 4.a table: x column plus (value, CI) per variant.
	txt := tables[0].Text()
	if !strings.Contains(txt, "EDF-HP miss%") || !strings.Contains(txt, "CCA miss%") {
		t.Errorf("figure 4.a table malformed:\n%s", txt)
	}
}

// TestRunDeterministicAggregation: a serial run and a fully parallel run
// (Workers: GOMAXPROCS) must produce identical aggregates — not just equal
// summaries but every accumulator of every (point, variant), which pins the
// collect-by-seed fold order against completion-order nondeterminism.
func TestRunDeterministicAggregation(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	a, err := Run(context.Background(), def, Options{Seeds: 3, Count: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), def, Options{Seeds: 3, Count: 100, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Agg, b.Agg) {
		t.Fatal("worker count changed aggregated results")
	}
}

// TestRunDeterministicAggregationMultiCPU repeats the worker-count
// determinism check on the multiprocessor ablation (NumCPUs 2 and 4): the
// engine's multi-slot dispatch must replay identically whether runs execute
// serially or on every available worker.
func TestRunDeterministicAggregationMultiCPU(t *testing.T) {
	def := findDef(t, "ablation-mp")
	def.Xs = []float64{2, 4}
	a, err := Run(context.Background(), def, Options{Seeds: 2, Count: 80, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), def, Options{Seeds: 2, Count: 80, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Agg, b.Agg) {
		t.Fatal("worker count changed aggregated multi-CPU results")
	}
}

// TestSummaryPreservesCommitCounts: in the soft-deadline model every
// transaction commits, so the across-seed summary of a sweep must report
// exactly the per-run transaction count — a regression test for Summary
// zeroing the count-valued fields.
func TestSummaryPreservesCommitCounts(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{8}
	const count = 90
	r, err := Run(context.Background(), def, Options{Seeds: 3, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range def.Variants {
		s := r.Summary(0, vi)
		if s.Committed != count {
			t.Errorf("%s: Summary.Committed = %d, want %d", def.Variants[vi].name, s.Committed, count)
		}
		if s.Dropped != 0 {
			t.Errorf("%s: Summary.Dropped = %d, want 0 (soft deadlines)", def.Variants[vi].name, s.Dropped)
		}
		if s.Elapsed <= 0 {
			t.Errorf("%s: Summary.Elapsed = %v, want > 0", def.Variants[vi].name, s.Elapsed)
		}
	}
}

// TestRunErrorLeaksNoGoroutines: an error partway through a large sweep must
// cancel the feeder and drain the workers before Run returns. Before the
// fix, the early return left the feeder blocked on the unbuffered job
// channel forever.
func TestRunErrorLeaksNoGoroutines(t *testing.T) {
	def := Definition{
		ID: "leak", Title: "leak", XLabel: "x", Xs: make([]float64, 40), Seeds: 5,
		Variants: []Variant{{name: "bad", configure: func(x float64, seed int64) core.Config {
			return core.Config{} // invalid: every job fails validation
		}}},
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := Run(context.Background(), def, Options{Workers: 4}); err == nil {
			t.Fatal("invalid sweep did not fail")
		}
	}
	checkNoLeak(t, before)
}

// checkNoLeak fails the test if more goroutines run than before, once
// exited ones have had a moment to be reaped.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestCancelDrainsWorkers: a sweep cancelled partway through (exactly
// what SIGINT triggers in rtexp) returns context.Canceled, but only after
// every run it started has finished and been collected, and it leaks no
// goroutines — in both fixed and adaptive mode.
func TestCancelDrainsWorkers(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"fixed", Options{Seeds: 4, Count: 100}},
		{"adaptive", Options{Count: 100, TargetCI: 0.08, MaxSeeds: 6}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started atomic.Int64
			collected, total := 0, 0
			opt := mode.opt
			opt.Workers = 2
			opt.instrument = func(int, int, int64, *core.Engine) { started.Add(1) }
			opt.Progress = func(done, n int) {
				collected, total = done, n
				if done >= 3 {
					cancel()
				}
			}
			if _, err := Run(ctx, adaptiveDef(), opt); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
			}
			if collected >= total {
				t.Fatalf("cancelled sweep finished all %d runs", total)
			}
			if n := started.Load(); int(n) != collected {
				t.Fatalf("%d runs started, %d collected: Run returned before its workers drained", n, collected)
			}
			checkNoLeak(t, before)
		})
	}
}

func TestRunPropagatesEngineErrors(t *testing.T) {
	def := Definition{
		ID: "bad", Title: "bad", XLabel: "x", Xs: []float64{1}, Seeds: 1,
		Variants: []Variant{{name: "b", configure: func(x float64, seed int64) core.Config {
			return core.Config{} // invalid: fails validation
		}}},
	}
	if _, err := Run(context.Background(), def, Options{}); err == nil {
		t.Fatal("invalid config did not propagate an error")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error lacks experiment context: %v", err)
	}
}

func TestTable1Table2(t *testing.T) {
	t1 := Table1().Text()
	for _, want := range []string{"Transaction type", "50", "(20, 10)", "Database size", "30", "12.50"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2().Text()
	for _, want := range []string{"Disk access time", "25", "1/10", "Abort cost", "5"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestSeqHelper(t *testing.T) {
	xs := seq(1, 3, 1)
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("seq = %v", xs)
	}
	xs = seq(0.2, 1.8, 0.2)
	if len(xs) != 9 {
		t.Fatalf("fractional seq length = %d, want 9", len(xs))
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(4) != "4" {
		t.Error("integer not trimmed")
	}
	if trimFloat(0.2) != "0.2" {
		t.Errorf("trimFloat(0.2) = %q", trimFloat(0.2))
	}
}

func TestChartsRendered(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{4, 8}
	r, err := Run(context.Background(), def, Options{Seeds: 2, Count: 60})
	if err != nil {
		t.Fatal(err)
	}
	charts := r.Charts()
	if len(charts) != len(def.Figures) {
		t.Fatalf("rendered %d charts, want %d (every mm-rate figure defines one)", len(charts), len(def.Figures))
	}
	out := charts[0].Render()
	for _, want := range []string{"EDF-HP", "CCA", "x: rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 4.a chart missing %q:\n%s", want, out)
		}
	}
	// The improvement chart (figure 4.b) has its own two series.
	imp := charts[1].Render()
	if !strings.Contains(imp, "miss% improvement") || !strings.Contains(imp, "lateness improvement") {
		t.Errorf("improvement chart malformed:\n%s", imp)
	}
}

func TestClassTableRendered(t *testing.T) {
	def := findDef(t, "mm-variance")
	def.Xs = []float64{1.0}
	r, err := Run(context.Background(), def, Options{Seeds: 2, Count: 80})
	if err != nil {
		t.Fatal(err)
	}
	var classTbl string
	for i, f := range def.Figures {
		if f.ID == "4class" {
			classTbl = r.Tables()[i].Text()
		}
	}
	if classTbl == "" {
		t.Fatal("4class figure missing from mm-variance")
	}
	for _, want := range []string{"EDF-HP c0 miss%", "CCA c2 miss%"} {
		if !strings.Contains(classTbl, want) {
			t.Errorf("class table missing %q:\n%s", want, classTbl)
		}
	}
}
