package experiment

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// adaptiveDef is a tiny two-variant sweep whose cells have genuinely
// different variances, so some converge early and others hit the cap.
func adaptiveDef() Definition {
	mk := func(pol core.PolicyKind) func(x float64, seed int64) core.Config {
		return func(x float64, seed int64) core.Config {
			cfg := core.MainMemoryConfig(pol, seed)
			cfg.Workload.ArrivalRate = x
			return cfg
		}
	}
	return Definition{
		ID: "adaptive-test", Title: "adaptive test", XLabel: "rate",
		Xs: []float64{4, 10}, Seeds: 2,
		Variants: []Variant{
			{name: "EDF-HP", configure: mk(core.EDFHP)},
			{name: "CCA", configure: mk(core.CCA)},
		},
	}
}

// TestAdaptiveStopsAtTargetOrCap: every cell either meets the relative CI
// target (Converged true, RelCI95 <= target) or stops exactly at the seed
// cap (Converged false, N == MaxSeeds); n always lies in [2, MaxSeeds].
func TestAdaptiveStopsAtTargetOrCap(t *testing.T) {
	def := adaptiveDef()
	const target, maxSeeds = 0.05, 7
	r, err := Run(context.Background(), def, Options{
		Count: 150, TargetCI: target, MaxSeeds: maxSeeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawCap := false
	for xi := range r.Agg {
		for vi := range r.Agg[xi] {
			acc := &r.Agg[xi][vi].MissPercent
			n := acc.N()
			if n < 2 || n > maxSeeds {
				t.Errorf("cell (%d,%d): n = %d outside [2,%d]", xi, vi, n, maxSeeds)
			}
			if r.Converged[xi][vi] {
				if rel := acc.RelCI95(); rel > target {
					t.Errorf("cell (%d,%d) marked converged with RelCI95 %.4f > %.4f", xi, vi, rel, target)
				}
			} else {
				sawCap = true
				if n != maxSeeds {
					t.Errorf("cell (%d,%d) unconverged but stopped at n = %d, not the cap %d", xi, vi, n, maxSeeds)
				}
			}
		}
	}
	_ = sawCap // both outcomes are legitimate; the invariants above are the test
}

// TestAdaptiveScheduleDeterministic: the adaptive schedule makes its
// grow/stop decisions only at deterministic barrier points, so the final
// per-cell seed counts, aggregates and convergence flags are identical
// whatever the worker count.
func TestAdaptiveScheduleDeterministic(t *testing.T) {
	def := adaptiveDef()
	opt := Options{Count: 120, TargetCI: 0.08, MaxSeeds: 6}
	o1 := opt
	o1.Workers = 1
	a, err := Run(context.Background(), def, o1)
	if err != nil {
		t.Fatal(err)
	}
	oN := opt
	oN.Workers = runtime.GOMAXPROCS(0)
	b, err := Run(context.Background(), def, oN)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Agg, b.Agg) {
		t.Fatal("worker count changed adaptive aggregates")
	}
	if !reflect.DeepEqual(a.Converged, b.Converged) {
		t.Fatal("worker count changed convergence flags")
	}
}

// TestAdaptiveCellDone: CellDone fires exactly once per cell, with the
// final seed count actually aggregated for that cell.
func TestAdaptiveCellDone(t *testing.T) {
	def := adaptiveDef()
	type final struct {
		n         int
		converged bool
	}
	var mu sync.Mutex
	got := map[[2]int]final{}
	r, err := Run(context.Background(), def, Options{
		Count: 100, TargetCI: 0.08, MaxSeeds: 5,
		CellDone: func(xi, vi, n int, converged bool) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[[2]int{xi, vi}]; dup {
				t.Errorf("CellDone fired twice for cell (%d,%d)", xi, vi)
			}
			got[[2]int{xi, vi}] = final{n: n, converged: converged}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(def.Xs)*len(def.Variants) {
		t.Fatalf("CellDone fired for %d cells, want %d", len(got), len(def.Xs)*len(def.Variants))
	}
	for key, f := range got {
		xi, vi := key[0], key[1]
		if n := r.Agg[xi][vi].MissPercent.N(); n != f.n {
			t.Errorf("cell (%d,%d): CellDone n = %d, aggregate n = %d", xi, vi, f.n, n)
		}
		if f.converged != r.Converged[xi][vi] {
			t.Errorf("cell (%d,%d): CellDone converged = %v, Result = %v", xi, vi, f.converged, r.Converged[xi][vi])
		}
	}
}

// TestAdaptiveCustomMetric: the convergence metric is pluggable; an
// always-zero accumulator converges every cell at the initial batch.
func TestAdaptiveCustomMetric(t *testing.T) {
	def := adaptiveDef()
	zero := &stats.Accumulator{}
	zero.Add(0)
	zero.Add(0)
	r, err := Run(context.Background(), def, Options{
		Count: 60, TargetCI: 0.01, MaxSeeds: 9,
		metric: func(a *metrics.Aggregate) *stats.Accumulator { return zero },
	})
	if err != nil {
		t.Fatal(err)
	}
	for xi := range r.Agg {
		for vi := range r.Agg[xi] {
			if n := r.Agg[xi][vi].MissPercent.N(); n != 2 {
				t.Errorf("cell (%d,%d): n = %d, want initial batch 2", xi, vi, n)
			}
			if !r.Converged[xi][vi] {
				t.Errorf("cell (%d,%d) not converged under constant metric", xi, vi)
			}
		}
	}
}

// TestFixedModeUnchanged: without TargetCI the runner behaves exactly as
// the fixed fan-out (n == Seeds everywhere, every cell converged).
func TestFixedModeUnchanged(t *testing.T) {
	def := adaptiveDef()
	r, err := Run(context.Background(), def, Options{Seeds: 3, Count: 80})
	if err != nil {
		t.Fatal(err)
	}
	for xi := range r.Agg {
		for vi := range r.Agg[xi] {
			if n := r.Agg[xi][vi].MissPercent.N(); n != 3 {
				t.Errorf("cell (%d,%d): n = %d, want 3", xi, vi, n)
			}
			if !r.Converged[xi][vi] {
				t.Errorf("fixed-mode cell (%d,%d) reported unconverged", xi, vi)
			}
		}
	}
}

// TestRelCI95Edge: RelCI95's edge cases drive adaptive convergence, so pin
// them: no interval below two observations, exact-zero cells converge.
func TestRelCI95Edge(t *testing.T) {
	var a stats.Accumulator
	if !math.IsInf(a.RelCI95(), 1) {
		t.Error("empty accumulator must have infinite relative CI")
	}
	a.Add(5)
	if !math.IsInf(a.RelCI95(), 1) {
		t.Error("single observation must have infinite relative CI")
	}
	var z stats.Accumulator
	z.Add(0)
	z.Add(0)
	if z.RelCI95() != 0 {
		t.Errorf("all-zero accumulator RelCI95 = %v, want 0", z.RelCI95())
	}
}
