// Package metrics collects per-run performance measures and aggregates them
// across seeds the way the paper does: every configuration is run for a set
// of random seeds (10 for main memory, 30 for disk) and the reported value
// is the mean across runs.
//
// The headline metrics are the paper's: the percentage of transactions that
// miss their deadline, the mean lateness of transactions (reported here as
// mean tardiness, max(0, finish − deadline), so that improvement percentages
// are well defined), and the number of restarts per transaction.
package metrics

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

// Run accumulates raw counters during one simulation run.
type Run struct {
	// Committed is the number of transactions that ran to commit.
	Committed int
	// Missed is the number of committed transactions that finished after
	// their deadline.
	Missed int
	// Dropped is the number of transactions discarded at their deadline
	// (firm-deadline mode; always 0 in the paper's soft model).
	Dropped int
	// Admitted is the number of arrivals that passed a configured
	// admission controller (0 when no controller is configured, keeping
	// unfaulted runs' encodings byte-identical to older ones).
	Admitted int
	// Rejected is the number of arrivals turned away by the admission
	// controller. A rejected transaction counts as a miss.
	Rejected int
	// RetriedIO is the number of transient disk-error retries served
	// (fault injection only).
	RetriedIO int
	// FaultAborts is the number of aborts forced by the fault plan
	// (spurious aborts plus permanently failed disk accesses); each is
	// also counted in Restarts.
	FaultAborts int
	// TardinessSum is the summed positive lateness of all transactions.
	TardinessSum time.Duration
	// LatenessSum is the summed signed lateness (finish − deadline).
	LatenessSum time.Duration
	// ResponseSum is the summed response time (finish − arrival).
	ResponseSum time.Duration
	// Restarts is the number of transaction aborts (every abort leads to
	// a restart; deadlines are soft and transactions are never dropped).
	Restarts int
	// NoncontributingAborts counts aborted transactions that had been
	// dispatched while a higher-priority transaction was blocked — the
	// paper's "noncontributing executions" that were in fact rolled back.
	NoncontributingAborts int
	// WastedService is the effective service time thrown away by aborts.
	WastedService time.Duration
	// RollbackTime is CPU time spent rolling back aborted transactions.
	RollbackTime time.Duration
	// LockWaits counts blocking data conflicts (zero under CCA).
	LockWaits int
	// Deadlocks counts deadlock resolutions (possible only under the
	// waiting baselines, e.g. EDF-WP).
	Deadlocks int
	// CPUBusy is total CPU busy time (including rollbacks).
	CPUBusy time.Duration
	// DiskBusy is total disk busy time.
	DiskBusy time.Duration
	// Elapsed is the simulated time at which the last transaction
	// committed.
	Elapsed time.Duration
	// PListArea is the time integral of the partially-executed
	// transaction list's size (for the paper's 1–2 average check).
	PListArea float64
	// LiveArea is the time integral of the number of live (arrived, not
	// committed) transactions, for Little's-law checks.
	LiveArea float64
	// CPUs is the number of processors (for utilisation normalisation).
	CPUs int
	// Disks is the number of disks (for utilisation normalisation).
	Disks int
	// UseHistogram routes tardiness observations into a fixed-bucket
	// log-scale Histogram instead of the sample list: constant memory over
	// any run length, percentiles exact-to-bucket, and shard merging by
	// bucket sums. The wall-clock service sets it; simulation runs keep
	// every sample for exact percentiles.
	UseHistogram bool
	hist         *Histogram
	// latenessSamples holds each commit's tardiness in ms, for the
	// percentile metrics (simulation runs, which are bounded).
	latenessSamples []float64
	// classes holds per-class commit counters (high-variance experiment).
	classes map[int]*classCounts
}

type classCounts struct {
	committed    int
	missed       int
	tardinessSum time.Duration
}

// Observe records one transaction commit. class is the transaction's
// compute-time class (0 for single-class workloads).
func (r *Run) Observe(class int, arrival, finish, deadline time.Duration) {
	r.Committed++
	r.ResponseSum += finish - arrival
	late := finish - deadline
	r.LatenessSum += late
	if r.classes == nil {
		r.classes = make(map[int]*classCounts)
	}
	cc := r.classes[class]
	if cc == nil {
		cc = &classCounts{}
		r.classes[class] = cc
	}
	cc.committed++
	tardy := 0.0
	if late > 0 {
		r.Missed++
		r.TardinessSum += late
		cc.missed++
		cc.tardinessSum += late
		tardy = float64(late) / float64(time.Millisecond)
	}
	if r.UseHistogram {
		if r.hist == nil {
			r.hist = &Histogram{}
		}
		r.hist.Observe(tardy)
		return
	}
	r.latenessSamples = append(r.latenessSamples, tardy)
}

// Clone returns a deep copy of the run counters: the samples, the histogram
// and the per-class map are fresh, so the copy can be read (or merged) off
// the engine's goroutine while the original keeps accumulating.
func (r *Run) Clone() Run {
	c := *r
	c.latenessSamples = append([]float64(nil), r.latenessSamples...)
	if r.hist != nil {
		c.hist = r.hist.clone()
	}
	if r.classes != nil {
		c.classes = make(map[int]*classCounts, len(r.classes))
		for k, v := range r.classes {
			cv := *v
			c.classes[k] = &cv
		}
	}
	return c
}

// MergeRuns folds several shards' runs into one system-wide Run, as if a
// single engine had observed every commit. Counters, busy times and areas
// are summed; Elapsed is the max; CPUs and Disks add up. Histograms merge by
// bucket sums and samples concatenate in argument order — percentiles sort
// them anyway — so no observation is lost or counted twice. (This is NOT what
// Aggregate does: Aggregate averages derived Results across independent
// seeded runs, while MergeRuns sums raw counters of concurrent shards of one
// run.)
func MergeRuns(runs ...*Run) Run {
	var m Run
	for _, r := range runs {
		m.Committed += r.Committed
		m.Missed += r.Missed
		m.Dropped += r.Dropped
		m.Admitted += r.Admitted
		m.Rejected += r.Rejected
		m.RetriedIO += r.RetriedIO
		m.FaultAborts += r.FaultAborts
		m.TardinessSum += r.TardinessSum
		m.LatenessSum += r.LatenessSum
		m.ResponseSum += r.ResponseSum
		m.Restarts += r.Restarts
		m.NoncontributingAborts += r.NoncontributingAborts
		m.WastedService += r.WastedService
		m.RollbackTime += r.RollbackTime
		m.LockWaits += r.LockWaits
		m.Deadlocks += r.Deadlocks
		m.CPUBusy += r.CPUBusy
		m.DiskBusy += r.DiskBusy
		m.CPUs += r.CPUs
		m.Disks += r.Disks
		m.PListArea += r.PListArea
		m.LiveArea += r.LiveArea
		if r.Elapsed > m.Elapsed {
			m.Elapsed = r.Elapsed
		}
		if r.UseHistogram {
			// Histogram runs merge by bucket sums: exact and order-free.
			m.UseHistogram = true
			if r.hist != nil {
				if m.hist == nil {
					m.hist = &Histogram{}
				}
				m.hist.merge(r.hist)
			}
		}
		m.latenessSamples = append(m.latenessSamples, r.latenessSamples...)
		for k, v := range r.classes {
			if m.classes == nil {
				m.classes = make(map[int]*classCounts)
			}
			mc := m.classes[k]
			if mc == nil {
				mc = &classCounts{}
				m.classes[k] = mc
			}
			mc.committed += v.committed
			mc.missed += v.missed
			mc.tardinessSum += v.tardinessSum
		}
	}
	return m
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between closest ranks (the R-7/NumPy definition).
// The previous truncating index biased every percentile toward the sample
// below the true rank; interpolating removes the systematic underestimate.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Result converts the raw counters into the derived per-run metrics.
func (r *Run) Result() Result {
	res := Result{
		Committed:             r.Committed,
		Dropped:               r.Dropped,
		Admitted:              r.Admitted,
		Rejected:              r.Rejected,
		RetriedIO:             r.RetriedIO,
		FaultAborts:           r.FaultAborts,
		Restarts:              r.Restarts,
		LockWaits:             r.LockWaits,
		Deadlocks:             r.Deadlocks,
		NoncontributingAborts: r.NoncontributingAborts,
		Elapsed:               r.Elapsed,
	}
	if r.Committed+r.Dropped+r.Rejected > 0 {
		// A rejected transaction never ran, so it missed its deadline.
		res.MissPercent = 100 * float64(r.Missed+r.Dropped+r.Rejected) / float64(r.Committed+r.Dropped+r.Rejected)
	}
	if r.Committed > 0 {
		res.MeanLatenessMs = float64(r.TardinessSum) / float64(r.Committed) / float64(time.Millisecond)
		res.MeanSignedLatenessMs = float64(r.LatenessSum) / float64(r.Committed) / float64(time.Millisecond)
		res.RestartsPerTxn = float64(r.Restarts) / float64(r.Committed)
		res.WastedServiceMs = float64(r.WastedService) / float64(r.Committed) / float64(time.Millisecond)
		res.MeanResponseMs = float64(r.ResponseSum) / float64(r.Committed) / float64(time.Millisecond)
		switch {
		case r.UseHistogram && r.hist != nil && r.hist.Count() > 0:
			res.P50LatenessMs = r.hist.Quantile(0.50)
			res.P90LatenessMs = r.hist.Quantile(0.90)
			res.P99LatenessMs = r.hist.Quantile(0.99)
			res.MaxLatenessMs = r.hist.Max()
		case len(r.latenessSamples) > 0:
			sorted := append([]float64(nil), r.latenessSamples...)
			sort.Float64s(sorted)
			res.P50LatenessMs = percentile(sorted, 50)
			res.P90LatenessMs = percentile(sorted, 90)
			res.P99LatenessMs = percentile(sorted, 99)
			res.MaxLatenessMs = sorted[len(sorted)-1]
		}
	}
	if r.Elapsed > 0 {
		cpus := r.CPUs
		if cpus == 0 {
			cpus = 1
		}
		res.CPUUtilization = float64(r.CPUBusy) / (float64(r.Elapsed) * float64(cpus))
		disks := r.Disks
		if disks == 0 {
			disks = 1
		}
		res.DiskUtilization = float64(r.DiskBusy) / (float64(r.Elapsed) * float64(disks))
		res.AvgPListSize = r.PListArea / float64(r.Elapsed)
		res.AvgLiveTxns = r.LiveArea / float64(r.Elapsed)
	}
	classes := make([]int, 0, len(r.classes))
	for c := range r.classes {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		cc := r.classes[c]
		cr := classResult{Class: c, Committed: cc.committed}
		if cc.committed > 0 {
			cr.MissPercent = 100 * float64(cc.missed) / float64(cc.committed)
			cr.MeanLatenessMs = float64(cc.tardinessSum) / float64(cc.committed) / float64(time.Millisecond)
		}
		res.Classes = append(res.Classes, cr)
	}
	return res
}

// Result holds the derived metrics of one run. The JSON tags define the
// stable summary codec used by experiment checkpoints: every field is a
// float64, an int or a time.Duration (int64 nanoseconds), all of which
// encoding/json round-trips exactly, so a decoded summary is bit-identical
// to the one computed in-process.
type Result struct {
	Committed             int           `json:"committed"`
	Dropped               int           `json:"dropped"`
	Admitted              int           `json:"admitted,omitempty"`
	Rejected              int           `json:"rejected,omitempty"`
	RetriedIO             int           `json:"retried_io,omitempty"`
	FaultAborts           int           `json:"fault_aborts,omitempty"`
	MissPercent           float64       `json:"miss_percent"`
	MeanLatenessMs        float64       `json:"mean_lateness_ms"` // mean tardiness, ms
	MeanSignedLatenessMs  float64       `json:"mean_signed_lateness_ms"`
	P50LatenessMs         float64       `json:"p50_lateness_ms"`
	P90LatenessMs         float64       `json:"p90_lateness_ms"`
	P99LatenessMs         float64       `json:"p99_lateness_ms"`
	MaxLatenessMs         float64       `json:"max_lateness_ms"`
	MeanResponseMs        float64       `json:"mean_response_ms"`
	RestartsPerTxn        float64       `json:"restarts_per_txn"`
	WastedServiceMs       float64       `json:"wasted_service_ms"`
	LockWaits             int           `json:"lock_waits"`
	Deadlocks             int           `json:"deadlocks"`
	NoncontributingAborts int           `json:"noncontributing_aborts"`
	CPUUtilization        float64       `json:"cpu_utilization"`
	DiskUtilization       float64       `json:"disk_utilization"`
	AvgPListSize          float64       `json:"avg_plist_size"`
	AvgLiveTxns           float64       `json:"avg_live_txns"`
	Restarts              int           `json:"restarts"`
	Elapsed               time.Duration `json:"elapsed_ns"`
	// Classes holds per-class results, ascending by class (empty for
	// single-class workloads that only ever observed class 0... class 0
	// is still reported so callers can treat it uniformly).
	Classes []classResult `json:"classes,omitempty"`
}

// classResult is the per-compute-class breakdown of a run.
type classResult struct {
	Class          int     `json:"class"`
	Committed      int     `json:"committed"`
	MissPercent    float64 `json:"miss_percent"`
	MeanLatenessMs float64 `json:"mean_lateness_ms"`
}

// String summarises a result on one line.
func (r Result) String() string {
	return fmt.Sprintf("miss=%.2f%% lateness=%.2fms restarts/txn=%.3f cpu=%.0f%% disk=%.0f%%",
		r.MissPercent, r.MeanLatenessMs, r.RestartsPerTxn, 100*r.CPUUtilization, 100*r.DiskUtilization)
}

// Aggregate accumulates Results across seeds: each Add is one independent
// run and Summary reports across-run means. It must NOT be used to combine
// the shards of a single sharded run — shard counters are partial counts of
// one system, not independent samples, and averaging their percentile
// fields would double-weight quiet shards. Combine shards with MergeRuns
// (which sums raw counters and pools the samples) and Add the merged run's
// Result here.
type Aggregate struct {
	committed       stats.Accumulator
	dropped         stats.Accumulator
	admitted        stats.Accumulator
	Rejected        stats.Accumulator
	retriedIO       stats.Accumulator
	FaultAborts     stats.Accumulator
	restarts        stats.Accumulator
	MissPercent     stats.Accumulator
	MeanLatenessMs  stats.Accumulator
	meanResponseMs  stats.Accumulator
	elapsedMs       stats.Accumulator
	p90LatenessMs   stats.Accumulator
	p99LatenessMs   stats.Accumulator
	signedLateness  stats.Accumulator
	RestartsPerTxn  stats.Accumulator
	cpuUtilization  stats.Accumulator
	diskUtilization stats.Accumulator
	avgPListSize    stats.Accumulator
	lockWaits       stats.Accumulator
	noncontrib      stats.Accumulator
	deadlocks       stats.Accumulator
	// ClassMiss and classLateness aggregate the per-class breakdown
	// (populated lazily; empty for single-class workloads' class 0 too —
	// every observed class gets an entry).
	ClassMiss     map[int]*stats.Accumulator
	classLateness map[int]*stats.Accumulator
}

// Add folds one run's result into the aggregate.
func (a *Aggregate) Add(r Result) {
	a.committed.Add(float64(r.Committed))
	a.dropped.Add(float64(r.Dropped))
	a.admitted.Add(float64(r.Admitted))
	a.Rejected.Add(float64(r.Rejected))
	a.retriedIO.Add(float64(r.RetriedIO))
	a.FaultAborts.Add(float64(r.FaultAborts))
	a.restarts.Add(float64(r.Restarts))
	a.MissPercent.Add(r.MissPercent)
	a.MeanLatenessMs.Add(r.MeanLatenessMs)
	a.meanResponseMs.Add(r.MeanResponseMs)
	a.elapsedMs.Add(float64(r.Elapsed) / float64(time.Millisecond))
	a.p90LatenessMs.Add(r.P90LatenessMs)
	a.p99LatenessMs.Add(r.P99LatenessMs)
	a.signedLateness.Add(r.MeanSignedLatenessMs)
	a.RestartsPerTxn.Add(r.RestartsPerTxn)
	a.cpuUtilization.Add(r.CPUUtilization)
	a.diskUtilization.Add(r.DiskUtilization)
	a.avgPListSize.Add(r.AvgPListSize)
	a.lockWaits.Add(float64(r.LockWaits))
	a.noncontrib.Add(float64(r.NoncontributingAborts))
	a.deadlocks.Add(float64(r.Deadlocks))
	for _, c := range r.Classes {
		if a.ClassMiss == nil {
			a.ClassMiss = make(map[int]*stats.Accumulator)
			a.classLateness = make(map[int]*stats.Accumulator)
		}
		if a.ClassMiss[c.Class] == nil {
			a.ClassMiss[c.Class] = &stats.Accumulator{}
			a.classLateness[c.Class] = &stats.Accumulator{}
		}
		a.ClassMiss[c.Class].Add(c.MissPercent)
		a.classLateness[c.Class].Add(c.MeanLatenessMs)
	}
}

// N returns the number of runs aggregated.
func (a *Aggregate) N() int { return a.MissPercent.N() }

// Summary returns the across-run means as a Result. Count-valued fields
// (Committed, Dropped, Restarts) are the rounded across-run means, so a
// summary of identical runs preserves their counts exactly.
func (a *Aggregate) Summary() Result {
	return Result{
		Committed:             int(a.committed.Mean() + 0.5),
		Dropped:               int(a.dropped.Mean() + 0.5),
		Admitted:              int(a.admitted.Mean() + 0.5),
		Rejected:              int(a.Rejected.Mean() + 0.5),
		RetriedIO:             int(a.retriedIO.Mean() + 0.5),
		FaultAborts:           int(a.FaultAborts.Mean() + 0.5),
		Restarts:              int(a.restarts.Mean() + 0.5),
		MissPercent:           a.MissPercent.Mean(),
		MeanLatenessMs:        a.MeanLatenessMs.Mean(),
		MeanResponseMs:        a.meanResponseMs.Mean(),
		Elapsed:               time.Duration(a.elapsedMs.Mean() * float64(time.Millisecond)),
		P90LatenessMs:         a.p90LatenessMs.Mean(),
		P99LatenessMs:         a.p99LatenessMs.Mean(),
		MeanSignedLatenessMs:  a.signedLateness.Mean(),
		RestartsPerTxn:        a.RestartsPerTxn.Mean(),
		CPUUtilization:        a.cpuUtilization.Mean(),
		DiskUtilization:       a.diskUtilization.Mean(),
		AvgPListSize:          a.avgPListSize.Mean(),
		LockWaits:             int(a.lockWaits.Mean() + 0.5),
		NoncontributingAborts: int(a.noncontrib.Mean() + 0.5),
		Deadlocks:             int(a.deadlocks.Mean() + 0.5),
	}
}

// Improvement returns the paper's improvement metrics of a candidate over a
// baseline: percentage reductions in miss percent and mean lateness
// ((EDF − CCA)/EDF × 100 in the paper's notation).
type ImprovementResult struct {
	MissPercent    float64
	MeanLateness   float64
	restartsPerTxn float64
}

// ImprovementOver computes the candidate's improvement over the baseline.
func ImprovementOver(baseline, candidate Result) ImprovementResult {
	return ImprovementResult{
		MissPercent:    stats.Improvement(baseline.MissPercent, candidate.MissPercent),
		MeanLateness:   stats.Improvement(baseline.MeanLatenessMs, candidate.MeanLatenessMs),
		restartsPerTxn: stats.Improvement(baseline.RestartsPerTxn, candidate.RestartsPerTxn),
	}
}
