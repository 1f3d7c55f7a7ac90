package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistogramQuantileBounded checks the exact-to-bucket contract: every
// reported quantile is an upper bound of the true quantile and at most one
// bucket width (2^(1/histSub)) above it.
func TestHistogramQuantileBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var vals []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over ~6 decades plus a slab of exact zeros, the
		// shape of a tardiness distribution.
		var v float64
		if rng.Intn(4) == 0 {
			v = 0
		} else {
			v = math.Pow(10, rng.Float64()*6-2) // 0.01ms .. 10s
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	width := math.Pow(2, 1.0/histSub)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got := h.Quantile(q)
		rank := int(math.Ceil(q*float64(len(vals)))) - 1
		if rank < 0 {
			rank = 0
		}
		truth := vals[rank]
		if truth == 0 {
			if got != 0 {
				t.Fatalf("q=%v: got %v for a zero true quantile", q, got)
			}
			continue
		}
		if got < truth || got > truth*width {
			t.Fatalf("q=%v: got %v, true %v (want within one bucket width %v above)", q, got, truth, width)
		}
	}
	if h.Max() != vals[len(vals)-1] {
		t.Fatalf("Max() = %v, want exact %v", h.Max(), vals[len(vals)-1])
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("Count() = %d, want %d", h.Count(), len(vals))
	}
}

// TestHistogramConstantMemory proves the soak property: multi-million
// observations grow no state (the struct is a fixed array).
func TestHistogramConstantMemory(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i % 977))
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %v times per run, want 0", allocs)
	}
}

// TestHistogramMergeEqualsUnion proves the MergeRuns path: summing two
// histograms' buckets yields exactly the histogram of the union stream.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, union Histogram
	for i := 0; i < 50_000; i++ {
		v := rng.ExpFloat64() * 12
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		union.Observe(v)
	}
	m := a.clone()
	m.merge(&b)
	if m.Count() != union.Count() || m.Max() != union.Max() {
		t.Fatalf("merge: count/max %d/%v, want %d/%v", m.Count(), m.Max(), union.Count(), union.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got, want := m.Quantile(q), union.Quantile(q); got != want {
			t.Fatalf("merge q=%v: %v, union %v", q, got, want)
		}
	}
	if m.counts != union.counts {
		t.Fatal("merged bucket counts differ from the union stream's")
	}
}

// TestRunHistogramMode checks the Run integration: UseHistogram routes
// observations into the histogram, Result reads percentiles from it, no
// sample is kept, Clone deep-copies, and MergeRuns sums buckets.
func TestRunHistogramMode(t *testing.T) {
	mk := func() *Run { return &Run{UseHistogram: true} }
	r1, r2 := mk(), mk()
	for i := 1; i <= 1000; i++ {
		late := time.Duration(i) * time.Millisecond
		r1.Observe(0, 0, time.Duration(i)*time.Second+late, time.Duration(i)*time.Second)
	}
	for i := 0; i < 500; i++ {
		// On-time commits: tardiness 0.
		r2.Observe(0, 0, time.Duration(i)*time.Second, time.Duration(i)*time.Second+time.Millisecond)
	}
	if len(r1.latenessSamples) != 0 {
		t.Fatalf("histogram mode still appended %d samples", len(r1.latenessSamples))
	}
	res := r1.Result()
	if res.P99LatenessMs < 990*0.9 || res.P99LatenessMs > 990*1.2 {
		t.Fatalf("p99 = %.1f, want ≈990", res.P99LatenessMs)
	}
	if res.MaxLatenessMs != 1000 {
		t.Fatalf("max = %v, want exactly 1000", res.MaxLatenessMs)
	}

	// Clone is deep: mutating the clone leaves the original alone.
	c := r1.Clone()
	c.Observe(0, 0, 2*time.Second, time.Second)
	if c.hist.Count() != r1.hist.Count()+1 {
		t.Fatalf("clone not deep: counts %d vs %d", c.hist.Count(), r1.hist.Count())
	}

	m := MergeRuns(r1, r2)
	if !m.UseHistogram || m.hist == nil {
		t.Fatal("merged run lost the histogram")
	}
	if m.hist.Count() != r1.hist.Count()+r2.hist.Count() {
		t.Fatalf("merged count %d, want %d", m.hist.Count(), r1.hist.Count()+r2.hist.Count())
	}
	mres := m.Result()
	// 500 zeros + 1000 spread 1..1000ms: the median sits in the 250ms
	// region (rank 750 of 1500 → value 250ms ± one bucket).
	if mres.P50LatenessMs < 200 || mres.P50LatenessMs > 300 {
		t.Fatalf("merged p50 = %.1f, want ≈250", mres.P50LatenessMs)
	}
}

// TestRunRingCompat: with UseHistogram off (simulation runs) every sample is
// kept — the contract that replaced the bounded ring — and no histogram is
// allocated.
func TestRunRingCompat(t *testing.T) {
	r := &Run{}
	for i := 1; i <= 6; i++ {
		r.Observe(0, 0, time.Duration(i)*time.Second, 0)
	}
	if len(r.latenessSamples) != 6 {
		t.Fatalf("kept %d samples, want all 6", len(r.latenessSamples))
	}
	if r.hist != nil {
		t.Fatal("sample mode allocated a histogram")
	}
	if got := r.Result().MaxLatenessMs; got != 6000 {
		t.Fatalf("max lateness %v ms, want 6000 (the oldest sample is still counted)", got)
	}
}
