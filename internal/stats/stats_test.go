package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamReproducible(t *testing.T) {
	s1 := NewSource(42).Stream("arrivals")
	s2 := NewSource(42).Stream("arrivals")
	for i := 0; i < 100; i++ {
		a, b := s1.Float64(), s2.Float64()
		if a != b {
			t.Fatalf("draw %d: %v != %v (same seed+name must match)", i, a, b)
		}
	}
}

func TestStreamsIndependentByName(t *testing.T) {
	src := NewSource(42)
	a := src.Stream("a")
	b := src.Stream("b")
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'a' and 'b' matched on %d/50 draws; expected independence", same)
	}
}

func TestStreamsDifferBySeed(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	if a.Float64() == b.Float64() && a.Float64() == b.Float64() {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestSourceSeedAccessor(t *testing.T) {
	if got := NewSource(99).seed; got != 99 {
		t.Fatalf("Seed() = %d, want 99", got)
	}
}

func TestUniformRange(t *testing.T) {
	st := newStream(7)
	for i := 0; i < 1000; i++ {
		v := st.Uniform(0.2, 8.0)
		if v < 0.2 || v >= 8.0 {
			t.Fatalf("Uniform(0.2, 8.0) = %v out of range", v)
		}
	}
}

func TestUniformInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted bounds did not panic")
		}
	}()
	newStream(1).Uniform(2, 1)
}

func TestExponentialMean(t *testing.T) {
	st := newStream(11)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(st.Exponential(100))
	}
	if math.Abs(acc.Mean()-100) > 2 {
		t.Fatalf("Exponential mean = %v, want ~100", acc.Mean())
	}
}

func TestExponentialNonPositiveMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive mean did not panic")
		}
	}()
	newStream(1).Exponential(0)
}

func TestNormalMoments(t *testing.T) {
	st := newStream(13)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(st.normal(20, 10))
	}
	if math.Abs(acc.Mean()-20) > 0.3 {
		t.Fatalf("Normal mean = %v, want ~20", acc.Mean())
	}
	if math.Abs(acc.stdDev()-10) > 0.3 {
		t.Fatalf("Normal std = %v, want ~10", acc.stdDev())
	}
}

func TestNormalNegativeStdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative std did not panic")
		}
	}()
	newStream(1).normal(0, -1)
}

func TestNormalIntClamped(t *testing.T) {
	st := newStream(17)
	for i := 0; i < 5000; i++ {
		v := st.NormalIntClamped(20, 10, 1, 30)
		if v < 1 || v > 30 {
			t.Fatalf("NormalIntClamped out of [1,30]: %d", v)
		}
	}
}

func TestNormalIntClampedInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted clamp bounds did not panic")
		}
	}()
	newStream(1).NormalIntClamped(0, 1, 5, 4)
}

func TestBernoulliProbability(t *testing.T) {
	st := newStream(19)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if st.Bernoulli(0.1) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.1) > 0.01 {
		t.Fatalf("Bernoulli(0.1) hit rate = %v", p)
	}
}

func TestBernoulliEdges(t *testing.T) {
	st := newStream(23)
	for i := 0; i < 100; i++ {
		if st.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !st.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p>1 did not panic")
		}
	}()
	newStream(1).Bernoulli(1.5)
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	st := newStream(29)
	for trial := 0; trial < 200; trial++ {
		got := st.SampleWithoutReplacement(30, 20)
		if len(got) != 20 {
			t.Fatalf("len = %d, want 20", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 30 {
				t.Fatalf("value %d out of [0,30)", v)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	st := newStream(31)
	got := st.SampleWithoutReplacement(5, 5)
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("full sample not a permutation: %v", got)
	}
}

func TestSampleWithoutReplacementTooManyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k > n did not panic")
		}
	}()
	newStream(1).SampleWithoutReplacement(3, 4)
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	st := newStream(37)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range st.SampleWithoutReplacement(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("item %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	if math.Abs(a.variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", a.variance(), 32.0/7.0)
	}
	if a.min != 2 || a.max != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", a.min, a.max)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.variance() != 0 || a.CI95() != 0 || a.stdErr() != 0 {
		t.Fatal("empty accumulator not all-zero")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.variance() != 0 || a.CI95() != 0 {
		t.Fatal("single-observation accumulator wrong")
	}
}

func TestCI95SmallSample(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3} {
		a.Add(x)
	}
	// df=2 -> t=4.303; stderr = 1/sqrt(3)
	want := 4.303 / math.Sqrt(3)
	if math.Abs(a.CI95()-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", a.CI95(), want)
	}
}

func TestTCriticalMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		v := tCritical95(df)
		if v > prev {
			t.Fatalf("tCritical95 not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if tCritical95(1000) != 1.96 {
		t.Fatal("large-df critical value should be 1.96")
	}
	if tCritical95(0) != 0 {
		t.Fatal("df=0 should return 0")
	}
}

func TestMeanMedian(t *testing.T) {
	if mean(nil) != 0 || median(nil) != 0 {
		t.Fatal("empty slice should give 0")
	}
	if mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("Mean wrong")
	}
	if median([]float64{5, 1, 3}) != 3 {
		t.Fatal("odd Median wrong")
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Fatal("even Median wrong")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(10, 7); got != 30 {
		t.Fatalf("Improvement(10,7) = %v, want 30", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Fatalf("Improvement(0,5) = %v, want 0", got)
	}
	if got := Improvement(4, 6); got != -50 {
		t.Fatalf("Improvement(4,6) = %v, want -50 (regression)", got)
	}
}

// Property: accumulator mean matches direct mean; variance matches two-pass.
func TestQuickAccumulatorMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var a Accumulator
		for _, x := range clean {
			a.Add(x)
		}
		m := mean(clean)
		if math.Abs(a.Mean()-m) > 1e-6*(1+math.Abs(m)) {
			return false
		}
		var ss float64
		for _, x := range clean {
			ss += (x - m) * (x - m)
		}
		v := ss / float64(len(clean)-1)
		return math.Abs(a.variance()-v) <= 1e-6*(1+v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Improvement is antisymmetric around equality and 0 at equality.
func TestQuickImprovementProperties(t *testing.T) {
	f := func(a uint16) bool {
		b := float64(a) + 1 // strictly positive
		return Improvement(b, b) == 0 && Improvement(b, 0) == 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelCI95(t *testing.T) {
	var a Accumulator
	if !math.IsInf(a.RelCI95(), 1) {
		t.Error("n=0: want +Inf")
	}
	a.Add(10)
	if !math.IsInf(a.RelCI95(), 1) {
		t.Error("n=1: want +Inf")
	}
	a.Add(12)
	a.Add(8)
	want := a.CI95() / a.Mean()
	if got := a.RelCI95(); got != want {
		t.Errorf("RelCI95 = %v, want CI95/mean = %v", got, want)
	}
	var z Accumulator
	z.Add(0)
	z.Add(0)
	if z.RelCI95() != 0 {
		t.Errorf("all-zero: RelCI95 = %v, want 0 (estimate is exact)", z.RelCI95())
	}
	var m Accumulator
	m.Add(-1)
	m.Add(1)
	if !math.IsInf(m.RelCI95(), 1) {
		t.Error("zero mean with spread: want +Inf (no relative scale)")
	}
	var n Accumulator
	n.Add(-5)
	n.Add(-7)
	if n.RelCI95() < 0 {
		t.Error("negative mean: relative CI must use |mean|")
	}
}
