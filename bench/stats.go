package main

import (
	"math"
	"sort"
)

// percentile is the exact nearest-rank percentile of raw samples: the
// smallest value with at least p of the samples at or below it. It
// sorts a copy. No samples give NaN.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quietest is the mean of the best eighth (at least two) of the values
// of an open phase's windows or a closed phase's rounds. The sizing
// host's interference - a vCPU taken away or slowed for seconds at a
// time - only ever makes a window worse, and it reaches most windows of
// most runs, so the best few estimate what the program does when left
// alone: on backlog_open the median over the windows of their p99 had a
// ten-seed spread of 0.27 to 0.36 where this has 0.16 to 0.17, and the
// builder's contract caps the bound at 0.25. A change in the program
// moves every window and still shows; a change that only adds occasional
// stalls does not, and is left to ok_share and the failure counts, which
// are taken over every request, and to client.p999_ms.
func quietest(values []float64, higherIsBetter bool) float64 {
	var s []float64
	for _, v := range values {
		if !math.IsNaN(v) { // a window with no samples
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	n := min(max((len(s)+7)/8, 2), len(s))
	if higherIsBetter {
		s = s[len(s)-n:]
	} else {
		s = s[:n]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
