// Histogram is the constant-memory percentile store of unbounded runs (the
// wall-clock service): a fixed-bucket log-scale latency histogram. Keeping
// samples would grow without bound under a multi-million-request soak, and
// a bounded ring of them would describe an arbitrary recent window and
// re-sort it on every query. The histogram instead buckets every
// observation ever made into a fixed
// log-spaced grid: memory is constant (a few KiB) no matter how long the
// service runs, a percentile query is one cumulative scan over the grid,
// and merging shards is a bucket-wise sum instead of re-slicing samples.
//
// Percentiles are exact-to-bucket: the reported value is the upper bound
// of the bucket containing the requested rank, so the relative error is
// bounded by the bucket width — 2^(1/histSub) − 1 ≈ 9% with 8 sub-buckets
// per octave — and never depends on how many observations were made.
package metrics

import "math"

const (
	// histSub is the number of log-spaced sub-buckets per factor-of-two
	// octave; 8 bounds the relative quantile error at 2^(1/8)−1 ≈ 9%.
	histSub = 8
	// histMinMs is the smallest distinguishable value (1µs in ms); every
	// observation at or below it (including the exact zeros that dominate
	// tardiness distributions) lands in the dedicated zero bucket.
	histMinMs = 1e-3
	// histOctaves spans histMinMs × 2^40 ≈ 12.7 days in ms — far beyond
	// any latency this system can produce; larger values clip into the
	// overflow bucket.
	histOctaves = 40
	// histBuckets = zero bucket + the log grid + overflow.
	histBuckets = 2 + histSub*histOctaves
)

// invLogStep converts log2(v/histMinMs) to a bucket offset in one multiply.
var invLogStep = float64(histSub)

// Histogram is a fixed-bucket log-scale histogram of millisecond values.
// The zero value is ready to use. It is not safe for concurrent use; wrap
// with a mutex (the server does) or confine to one goroutine (the engine
// does).
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	max    float64
}

// histBucketOf maps a millisecond value to its bucket index.
func histBucketOf(ms float64) int {
	if !(ms > histMinMs) { // catches zeros, negatives and NaN
		return 0
	}
	i := 1 + int(math.Log2(ms/histMinMs)*invLogStep)
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// histUpperOf returns the upper bound of a bucket (0 for the zero bucket).
func histUpperOf(i int) float64 {
	if i <= 0 {
		return 0
	}
	return histMinMs * math.Pow(2, float64(i)/histSub)
}

// Observe records one value (milliseconds).
func (h *Histogram) Observe(ms float64) {
	h.counts[histBucketOf(ms)]++
	h.n++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest observed value exactly (not bucketed).
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the exact mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the q-th quantile (0..1) as the upper bound of the
// bucket holding that rank; the exact maximum is reported for q ≥ the last
// observation's rank so p100 is never inflated by bucketing.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the requested quantile among n ordered observations
	// (nearest-rank definition, 1-based).
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			if cum == h.n && i == histBucketOf(h.max) {
				// The rank falls in the bucket of the true maximum and no
				// later bucket is occupied: report the exact max rather
				// than the bucket bound.
				return h.max
			}
			return histUpperOf(i)
		}
	}
	return h.max
}

// Merge adds other's buckets into h (bucket-wise sum; max of maxes).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
