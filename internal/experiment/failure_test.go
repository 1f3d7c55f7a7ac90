package experiment

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// crashOn returns an instrument hook that panics on one (xi, vi, seed)
// run.
func crashOn(xi, vi int, seed int64) func(int, int, int64, *core.Engine) {
	return func(cxi, cvi int, cseed int64, _ *core.Engine) {
		if cxi == xi && cvi == vi && cseed == seed {
			panic("injected crash")
		}
	}
}

// TestPanicRecordedAsFailure: a run that panics is recorded as a failure
// with the repro seed, the sweep still returns, and the cell aggregates
// the surviving seeds.
func TestPanicRecordedAsFailure(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	r, err := Run(context.Background(), def, Options{
		Seeds: 3, Count: 60,
		instrument: crashOn(0, 1, 2),
	})
	if err != nil {
		t.Fatalf("panicking seed aborted the sweep: %v", err)
	}
	if len(r.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly one", r.Failures)
	}
	f := r.Failures[0]
	if f.xi != 0 || f.vi != 1 || f.Seed != 2 {
		t.Fatalf("failure at wrong cell: %+v", f)
	}
	if !strings.Contains(f.Message, "injected crash") {
		t.Fatalf("failure message lost the panic value: %q", f.Message)
	}
	if f.Variant != def.Variants[1].name || f.X != 6 {
		t.Fatalf("failure metadata wrong: %+v", f)
	}
	// The crashed cell still aggregates its two healthy seeds; the other
	// variant keeps all three.
	if got := r.Agg[0][1].N(); got != 2 {
		t.Fatalf("failed cell aggregated %d seeds, want 2", got)
	}
	if got := r.Agg[0][0].N(); got != 3 {
		t.Fatalf("healthy cell aggregated %d seeds, want 3", got)
	}
}

// TestFailureDeterministicAcrossWorkers: failure records and the surviving
// aggregates are identical whether the sweep runs serially or in parallel.
func TestFailureDeterministicAcrossWorkers(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{4, 8}
	mk := func(workers int) *Result {
		r, err := Run(context.Background(), def, Options{
			Seeds: 3, Count: 60, Workers: workers,
			instrument: crashOn(1, 0, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(1), mk(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(a.Failures, b.Failures) {
		t.Fatalf("worker count changed failure records:\n%+v\n%+v", a.Failures, b.Failures)
	}
	if !reflect.DeepEqual(a.Agg, b.Agg) {
		t.Fatal("worker count changed surviving aggregates")
	}
}

// TestEngineErrorRecordedAsFailure: an engine runtime error (here: a
// forged oracle violation) fails its run, not the sweep — the sweep
// completes with a failure record naming the oracle.
func TestEngineErrorRecordedAsFailure(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	r, err := Run(context.Background(), def, Options{
		Seeds: 2, Count: 60, Oracle: true,
		instrument: func(xi, vi int, seed int64, e *core.Engine) {
			if xi == 0 && vi == 0 && seed == 1 {
				// A lower-priority transaction wounding a higher-priority
				// one violates Lemma 1 under both mm-rate variants.
				e.InjectEvent(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 1, OtherPriority: 5})
			}
		},
	})
	if err != nil {
		t.Fatalf("oracle violation aborted the sweep: %v", err)
	}
	if len(r.Failures) != 1 {
		t.Fatalf("failures = %+v, want one", r.Failures)
	}
	if f := r.Failures[0]; !strings.Contains(f.Message, "oracle") {
		t.Fatalf("oracle failure record wrong: %+v", f)
	}
}

// TestOptionFaultAndAdmissionApplied: Options.Fault and Options.Admission
// reach the engine — the sweep's results show fault and rejection activity.
func TestOptionFaultAndAdmissionApplied(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{16} // past saturation
	r, err := Run(context.Background(), def, Options{
		Seeds: 2, Count: 120,
		Fault:     fault.Plan{AbortProb: 0.05},
		Admission: core.AdmissionConfig{Mode: core.RejectNewest, MaxLive: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range def.Variants {
		if r.Agg[0][vi].FaultAborts.Mean() == 0 {
			t.Fatalf("%s: Options.Fault did not reach the engine", def.Variants[vi].name)
		}
		if r.Agg[0][vi].Rejected.Mean() == 0 {
			t.Fatalf("%s: Options.Admission did not reach the engine", def.Variants[vi].name)
		}
	}
}
