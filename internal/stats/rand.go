// Package stats provides the random-variate generation and statistical
// summarisation used by the simulator and the experiment harness.
//
// Random numbers are organised as named streams derived from a single run
// seed, so that (for example) the arrival process and the slack assignment
// consume independent substreams: changing how many variates one stream
// draws never perturbs another. This mirrors common practice in simulation
// packages (and is what makes cross-policy comparisons on "the same"
// workload meaningful).
package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Source derives independent, reproducible random streams from one seed.
type Source struct {
	seed int64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed}
}

// Stream returns the substream with the given name. Calling Stream twice
// with the same name yields streams that produce identical sequences.
func (s *Source) Stream(name string) *Stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", s.seed, name)
	return &Stream{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// Stream is a single random-variate stream.
type Stream struct {
	rng *rand.Rand
}

// newStream returns a stand-alone stream with the given seed; most callers
// should derive streams from a Source instead.
func newStream(seed int64) *Stream {
	return &Stream{rng: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform variate in [0, 1).
func (st *Stream) Float64() float64 { return st.rng.Float64() }

// Intn returns a uniform integer in [0, n).
func (st *Stream) Intn(n int) int { return st.rng.Intn(n) }

// Uniform returns a uniform variate in [a, b). It panics if b < a.
func (st *Stream) Uniform(a, b float64) float64 {
	if b < a {
		panic(fmt.Sprintf("stats: Uniform bounds inverted: [%v, %v)", a, b))
	}
	return a + (b-a)*st.rng.Float64()
}

// Exponential returns an exponential variate with the given mean. This is
// the inter-arrival distribution of the paper's Poisson arrival process.
func (st *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: Exponential mean %v <= 0", mean))
	}
	return st.rng.ExpFloat64() * mean
}

// normal returns a normal variate with the given mean and standard deviation.
func (st *Stream) normal(mean, std float64) float64 {
	if std < 0 {
		panic(fmt.Sprintf("stats: Normal std %v < 0", std))
	}
	return st.rng.NormFloat64()*std + mean
}

// NormalIntClamped draws a normal variate, rounds it to the nearest integer
// and clamps it into [min, max]. The paper draws the number of updates per
// transaction type from N(20, 10) and a count must be at least 1 and at most
// the database size, so clamping is the natural truncation.
func (st *Stream) NormalIntClamped(mean, std float64, min, max int) int {
	if min > max {
		panic(fmt.Sprintf("stats: NormalIntClamped bounds inverted: [%d, %d]", min, max))
	}
	v := int(math.Round(st.normal(mean, std)))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Bernoulli reports true with probability p.
func (st *Stream) Bernoulli(p float64) bool {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Bernoulli p %v outside [0,1]", p))
	}
	return st.rng.Float64() < p
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n). It panics if k > n.
func (st *Stream) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic(fmt.Sprintf("stats: cannot sample %d distinct values from %d", k, n))
	}
	// Partial Fisher-Yates over an index table.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + st.rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}
