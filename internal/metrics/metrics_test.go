package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestObserveCountsMisses(t *testing.T) {
	var r Run
	r.Observe(0, 0, 100*time.Millisecond, 200*time.Millisecond) // early
	r.Observe(0, 0, 300*time.Millisecond, 200*time.Millisecond) // late by 100ms
	r.Observe(0, 0, 200*time.Millisecond, 200*time.Millisecond) // exactly on time
	if r.Committed != 3 {
		t.Fatalf("Committed = %d", r.Committed)
	}
	if r.Missed != 1 {
		t.Fatalf("Missed = %d, want 1 (on-time is not a miss)", r.Missed)
	}
	if r.TardinessSum != 100*time.Millisecond {
		t.Fatalf("TardinessSum = %v", r.TardinessSum)
	}
	if r.LatenessSum != 0 {
		t.Fatalf("LatenessSum = %v, want 0 (-100 +100 +0)", r.LatenessSum)
	}
}

func TestResultDerivation(t *testing.T) {
	r := Run{
		Committed:    4,
		Missed:       1,
		TardinessSum: 200 * time.Millisecond,
		LatenessSum:  -100 * time.Millisecond,
		Restarts:     6,
		CPUBusy:      500 * time.Millisecond,
		DiskBusy:     250 * time.Millisecond,
		Elapsed:      time.Second,
		PListArea:    1.5 * float64(time.Second),
	}
	res := r.Result()
	if res.MissPercent != 25 {
		t.Fatalf("MissPercent = %v", res.MissPercent)
	}
	if res.MeanLatenessMs != 50 {
		t.Fatalf("MeanLatenessMs = %v", res.MeanLatenessMs)
	}
	if res.MeanSignedLatenessMs != -25 {
		t.Fatalf("MeanSignedLatenessMs = %v", res.MeanSignedLatenessMs)
	}
	if res.RestartsPerTxn != 1.5 {
		t.Fatalf("RestartsPerTxn = %v", res.RestartsPerTxn)
	}
	if res.CPUUtilization != 0.5 {
		t.Fatalf("CPUUtilization = %v", res.CPUUtilization)
	}
	if res.DiskUtilization != 0.25 {
		t.Fatalf("DiskUtilization = %v", res.DiskUtilization)
	}
	if math.Abs(res.AvgPListSize-1.5) > 1e-9 {
		t.Fatalf("AvgPListSize = %v", res.AvgPListSize)
	}
}

func TestResultMultiCPUUtilization(t *testing.T) {
	r := Run{Committed: 1, CPUBusy: time.Second, Elapsed: time.Second, CPUs: 2}
	if got := r.Result().CPUUtilization; got != 0.5 {
		t.Fatalf("2-CPU utilisation = %v, want 0.5", got)
	}
}

func TestEmptyRunResultIsZero(t *testing.T) {
	var r Run
	res := r.Result()
	if res.MissPercent != 0 || res.RestartsPerTxn != 0 || res.CPUUtilization != 0 {
		t.Fatal("empty run should derive zeros without dividing by zero")
	}
}

func TestAggregateMeans(t *testing.T) {
	var a Aggregate
	a.Add(Result{MissPercent: 10, MeanLatenessMs: 100, RestartsPerTxn: 1})
	a.Add(Result{MissPercent: 20, MeanLatenessMs: 300, RestartsPerTxn: 3})
	if a.N() != 2 {
		t.Fatalf("N = %d", a.N())
	}
	s := a.Summary()
	if s.MissPercent != 15 || s.MeanLatenessMs != 200 || s.RestartsPerTxn != 2 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestAggregateCI(t *testing.T) {
	var a Aggregate
	for _, v := range []float64{10, 12, 14, 16, 18, 20, 22, 24, 26, 28} {
		a.Add(Result{MissPercent: v})
	}
	if a.MissPercent.CI95() <= 0 {
		t.Fatal("CI should be positive with spread data")
	}
}

func TestImprovementOver(t *testing.T) {
	edf := Result{MissPercent: 20, MeanLatenessMs: 1000, RestartsPerTxn: 2}
	cca := Result{MissPercent: 16, MeanLatenessMs: 700, RestartsPerTxn: 1}
	imp := ImprovementOver(edf, cca)
	if imp.MissPercent != 20 {
		t.Fatalf("miss improvement = %v, want 20", imp.MissPercent)
	}
	if imp.MeanLateness != 30 {
		t.Fatalf("lateness improvement = %v, want 30", imp.MeanLateness)
	}
	if imp.restartsPerTxn != 50 {
		t.Fatalf("restart improvement = %v, want 50", imp.restartsPerTxn)
	}
}

func TestImprovementZeroBaseline(t *testing.T) {
	imp := ImprovementOver(Result{}, Result{MissPercent: 5})
	if imp.MissPercent != 0 {
		t.Fatal("zero baseline should yield 0 improvement, not a division by zero")
	}
}

func TestLatenessPercentiles(t *testing.T) {
	var r Run
	// 100 commits: 90 on time, 10 late by 1..10ms.
	for i := 0; i < 90; i++ {
		r.Observe(0, 0, time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond)
	}
	for i := 1; i <= 10; i++ {
		r.Observe(0, 0, time.Duration(100+i)*time.Millisecond, 100*time.Millisecond)
	}
	res := r.Result()
	if res.P50LatenessMs != 0 {
		t.Errorf("P50 = %v, want 0 (90%% on time)", res.P50LatenessMs)
	}
	if res.P90LatenessMs < 0 || res.P90LatenessMs > 1 {
		t.Errorf("P90 = %v, want ~0-1", res.P90LatenessMs)
	}
	if res.P99LatenessMs < 8 || res.P99LatenessMs > 10 {
		t.Errorf("P99 = %v, want ~9", res.P99LatenessMs)
	}
	if res.MaxLatenessMs != 10 {
		t.Errorf("Max = %v, want 10", res.MaxLatenessMs)
	}
}

func TestPercentileEdge(t *testing.T) {
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if percentile([]float64{7}, 99) != 7 {
		t.Error("single-sample percentile wrong")
	}
}

// TestPercentileKnownQuantiles pins the interpolated definition to known
// values (the R-7 quantiles of 1..5); the old truncating index returned 4
// for P90 and 2 for P30.
func TestPercentileKnownQuantiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {30, 2.2}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5},
	}
	for _, c := range cases {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..5, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("percentile({10,20}, 50) = %v, want 15 (midpoint)", got)
	}
	if got := percentile(s, -5); got != 1 {
		t.Errorf("percentile below range = %v, want first sample", got)
	}
	if got := percentile(s, 105); got != 5 {
		t.Errorf("percentile above range = %v, want last sample", got)
	}
}

// TestSummaryCarriesCounts asserts Summary does not zero the count-valued
// and duration fields: aggregating identical runs must preserve Committed,
// Dropped, Restarts, MeanResponseMs and Elapsed exactly.
func TestSummaryCarriesCounts(t *testing.T) {
	var a Aggregate
	r := Result{Committed: 100, Dropped: 3, Restarts: 17, MeanResponseMs: 42.5, Elapsed: 2 * time.Second}
	a.Add(r)
	a.Add(r)
	s := a.Summary()
	if s.Committed != 100 || s.Dropped != 3 || s.Restarts != 17 {
		t.Fatalf("Summary dropped counts: %+v", s)
	}
	if s.MeanResponseMs != 42.5 {
		t.Fatalf("Summary MeanResponseMs = %v, want 42.5", s.MeanResponseMs)
	}
	if s.Elapsed != 2*time.Second {
		t.Fatalf("Summary Elapsed = %v, want 2s", s.Elapsed)
	}
	// Non-identical runs: the rounded mean.
	a.Add(Result{Committed: 103, Restarts: 18, Elapsed: 4 * time.Second})
	s = a.Summary()
	if s.Committed != 101 { // mean 101, exact
		t.Fatalf("Summary Committed = %d, want 101", s.Committed)
	}
	if ms := s.Elapsed.Round(time.Millisecond); ms != 2667*time.Millisecond {
		t.Fatalf("Summary Elapsed = %v, want ≈2.667s (mean of 2s, 2s, 4s)", s.Elapsed)
	}
}

func TestResultString(t *testing.T) {
	s := Result{MissPercent: 12.5, MeanLatenessMs: 42, RestartsPerTxn: 0.5}.String()
	if !strings.Contains(s, "12.50%") || !strings.Contains(s, "42.00ms") {
		t.Fatalf("String() = %q", s)
	}
}

// TestResultJSONExactRoundTrip: Result (the engine block of /metrics)
// survives encode→decode bit-identically, including awkward float64
// values — Go's encoding/json uses shortest-representation encoding, which
// round-trips every finite float exactly.
func TestResultJSONExactRoundTrip(t *testing.T) {
	in := Result{
		Committed: 997, Dropped: 3,
		MissPercent:          100.0 / 3.0,
		MeanLatenessMs:       0.1 + 0.2,                // 0.30000000000000004
		MeanSignedLatenessMs: -4.9406564584124654e-324, // smallest denormal
		P50LatenessMs:        math.MaxFloat64,
		P90LatenessMs:        math.SmallestNonzeroFloat64,
		P99LatenessMs:        1e300,
		MaxLatenessMs:        math.Pi,
		MeanResponseMs:       math.E,
		RestartsPerTxn:       1.0 / 7.0,
		WastedServiceMs:      2.5e-15,
		LockWaits:            12, Deadlocks: 1, NoncontributingAborts: 7,
		CPUUtilization:  0.9999999999999999,
		DiskUtilization: 1e-17,
		AvgPListSize:    6.000000000000001,
		AvgLiveTxns:     17.3,
		Restarts:        88,
		Elapsed:         123456789 * time.Nanosecond,
		Classes: []classResult{
			{Class: 0, Committed: 500, MissPercent: 1.0 / 3.0, MeanLatenessMs: 0.7},
			{Class: 1, Committed: 497, MissPercent: 2.0 / 3.0, MeanLatenessMs: 0.07},
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip not exact:\n in: %#v\nout: %#v", in, out)
	}
}
