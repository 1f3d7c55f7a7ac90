package experiment

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// crashOn returns an instrument hook that panics on one (xi, vi, seed)
// cell, n times in a row (counting attempts), then lets it run normally.
func crashOn(xi, vi int, seed int64, times int) func(int, int, int64, *core.Engine) {
	hits := 0
	return func(cxi, cvi int, cseed int64, _ *core.Engine) {
		if cxi == xi && cvi == vi && cseed == seed && hits < times {
			hits++
			panic("injected crash")
		}
	}
}

// TestPanicRecordedAsFailure: a run that panics on every attempt is
// recorded as a failure with the repro seed, the sweep still returns, and
// the cell aggregates the surviving seeds.
func TestPanicRecordedAsFailure(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	r, err := Run(context.Background(), def, Options{
		Seeds: 3, Count: 60, MaxRetries: 1,
		instrument: crashOn(0, 1, 2, 99),
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
	if f.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (1 + MaxRetries)", f.Attempts)
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

// TestRetrySalvagesTransientPanic: a panic that clears before the retry
// budget runs out produces a normal result and no failure record.
func TestRetrySalvagesTransientPanic(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	r, err := Run(context.Background(), def, Options{
		Seeds: 2, Count: 60, MaxRetries: 2,
		instrument: crashOn(0, 0, 1, 1), // crash once, succeed on retry
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failures) != 0 {
		t.Fatalf("transient panic left failures: %+v", r.Failures)
	}
	if got := r.Agg[0][0].N(); got != 2 {
		t.Fatalf("aggregated %d seeds, want 2", got)
	}

	// Same crash without a retry budget is a failure.
	r, err = Run(context.Background(), def, Options{
		Seeds: 2, Count: 60,
		instrument: crashOn(0, 0, 1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failures) != 1 || r.Failures[0].Attempts != 1 {
		t.Fatalf("failures = %+v, want one single-attempt failure", r.Failures)
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
			instrument: crashOn(1, 0, 2, 99),
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

// TestFailureCheckpointedAndResumable: a failed run writes a "failed"
// checkpoint record; resuming skips both finished and failed seeds and
// reconstructs the same failure list without re-running anything.
func TestFailureCheckpointedAndResumable(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	opt := Options{
		Seeds: 3, Count: 60, CheckpointPath: path, MaxRetries: 1,
		instrument: crashOn(0, 0, 1, 99),
	}
	first, err := Run(context.Background(), def, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Failures) != 1 {
		t.Fatalf("failures = %+v, want one", first.Failures)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sawFailed bool
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Kind  string `json:"kind"`
			Seed  int64  `json:"seed"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad checkpoint line %q: %v", line, err)
		}
		if rec.Kind == "failed" {
			sawFailed = true
			if rec.Seed != 1 || !strings.Contains(rec.Error, "injected crash") {
				t.Fatalf("failed record wrong: %q", line)
			}
		}
	}
	if !sawFailed {
		t.Fatalf("no failed record in checkpoint:\n%s", data)
	}

	// Resume with an instrument that would crash *any* run: nothing may
	// execute, and the failure must come back from the checkpoint.
	resumeOpt := opt
	resumeOpt.Resume = true
	resumeOpt.instrument = func(int, int, int64, *core.Engine) { panic("resume re-ran a run") }
	second, err := Run(context.Background(), def, resumeOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Failures, second.Failures) {
		t.Fatalf("resume changed failures:\n%+v\n%+v", first.Failures, second.Failures)
	}
	if !reflect.DeepEqual(first.Agg, second.Agg) {
		t.Fatal("resume changed aggregates")
	}
}

// TestFailedSeedRetriedOnFreshResume: a "failed" record is replayed as
// finished — but if the run later succeeds (same path, new attempt via a
// fresh sweep after the bug is fixed), the "run" record supersedes it.
func TestRunRecordSupersedesFailed(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// First sweep: seed 1 fails and is checkpointed as such.
	opt := Options{Seeds: 2, Count: 60, CheckpointPath: path, instrument: crashOn(0, 0, 1, 99)}
	if _, err := Run(context.Background(), def, opt); err != nil {
		t.Fatal(err)
	}
	// Append a healthy "run" record for the same seed, as a later repaired
	// process would.
	healthy, err := Run(context.Background(), def, Options{Seeds: 2, Count: 60})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := openCheckpoint(path, checkpointHeader{})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute seed 1's result by running the cell directly. (The zero
	// header this writer appends has an empty Def, so replay skips it.)
	rec := outcome{job: job{xi: 0, vi: 0, seed: 1}, res: seedResult(t, def, 1)}
	if err := ck.record(def, rec); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(context.Background(), def, Options{
		Seeds: 2, Count: 60, CheckpointPath: path, Resume: true,
		instrument: func(int, int, int64, *core.Engine) { panic("resume re-ran a run") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Failures) != 0 {
		t.Fatalf("superseded failure survived resume: %+v", resumed.Failures)
	}
	if !reflect.DeepEqual(healthy.Agg, resumed.Agg) {
		t.Fatal("resumed aggregates differ from an all-healthy sweep")
	}
}

// seedResult runs one (xi=0, vi=0, seed) cell of def directly.
func seedResult(t *testing.T, def Definition, seed int64) metrics.Result {
	t.Helper()
	cfg := def.Variants[0].configure(def.Xs[0], seed)
	cfg.Workload.Count = 60
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineErrorRetriedThenRecorded: an engine runtime error (here: a
// forged oracle violation) is retryable, not fatal — the sweep completes
// with a failure record naming the oracle.
func TestEngineErrorRetriedThenRecorded(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	r, err := Run(context.Background(), def, Options{
		Seeds: 2, Count: 60, Oracle: true, MaxRetries: 1,
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
	if f := r.Failures[0]; !strings.Contains(f.Message, "oracle") || f.Attempts != 2 {
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

// TestResumeRefusesChangedRobustnessOptions: Fault, Admission, Oracle and
// MaxRetries are pinned by the checkpoint header.
func TestResumeRefusesChangedRobustnessOptions(t *testing.T) {
	def := findDef(t, "mm-rate")
	def.Xs = []float64{6}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	opt := Options{Seeds: 1, Count: 60, CheckpointPath: path,
		Fault: fault.Plan{AbortProb: 0.05}, Oracle: true}
	if _, err := Run(context.Background(), def, opt); err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Seeds: 1, Count: 60, CheckpointPath: path, Resume: true, Oracle: true},                                                    // fault dropped
		{Seeds: 1, Count: 60, CheckpointPath: path, Resume: true, Fault: fault.Plan{AbortProb: 0.05}},                              // oracle dropped
		{Seeds: 1, Count: 60, CheckpointPath: path, Resume: true, Fault: fault.Plan{AbortProb: 0.1}, Oracle: true},                 // plan changed
		{Seeds: 1, Count: 60, CheckpointPath: path, Resume: true, Fault: fault.Plan{AbortProb: 0.05}, Oracle: true, MaxRetries: 3}, // retries changed
		{Seeds: 1, Count: 60, CheckpointPath: path, Resume: true, Fault: fault.Plan{AbortProb: 0.05}, Oracle: true,
			Admission: core.AdmissionConfig{Mode: core.RejectInfeasible}}, // admission changed
	}
	for i, c := range cases {
		if _, err := Run(context.Background(), def, c); err == nil ||
			!strings.Contains(err.Error(), "different options") {
			t.Errorf("case %d: changed options accepted on resume: %v", i, err)
		}
	}
	// Unchanged options resume cleanly.
	opt.Resume = true
	if _, err := Run(context.Background(), def, opt); err != nil {
		t.Errorf("identical options refused on resume: %v", err)
	}
}
