package stats

import (
	"fmt"
	"math"
)

// Accumulator computes running mean and variance (Welford's algorithm),
// min and max of a stream of observations without storing them.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// variance returns the unbiased sample variance.
func (a *Accumulator) variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// stdDev returns the sample standard deviation.
func (a *Accumulator) stdDev() float64 { return math.Sqrt(a.variance()) }

// stdErr returns the standard error of the mean.
func (a *Accumulator) stdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.stdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using Student's t critical values for small samples.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return tCritical95(a.n-1) * a.stdErr()
}

// RelCI95 returns the CI95 half-width relative to the magnitude of the
// mean — the convergence measure of adaptive-precision sweeps. With fewer
// than two observations no interval exists and the result is +Inf. A zero
// mean yields 0 when every observation was zero (the estimate is exact)
// and +Inf otherwise (no relative scale exists).
func (a *Accumulator) RelCI95() float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	ci := a.CI95()
	if a.mean == 0 {
		if ci == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return ci / math.Abs(a.mean)
}

// String formats the accumulator as "mean ± ci95 (n=..)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", a.Mean(), a.CI95(), a.N())
}

// tCritical95 returns the two-sided 95% Student's t critical value for the
// given degrees of freedom. Values above 30 degrees use the normal
// approximation 1.96; the table covers the seed counts used in the paper
// (10 and 30 runs).
func tCritical95(df int) float64 {
	table := []float64{
		0, // df = 0 unused
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Improvement returns the paper's improvement metric
// (baseline - candidate) / baseline * 100, i.e. the percentage by which the
// candidate reduces the baseline's value of a lower-is-better metric. It
// returns 0 when the baseline is 0 (both systems are already perfect).
func Improvement(baseline, candidate float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - candidate) / baseline * 100
}
