// Package fault defines deterministic fault injection for the simulator:
// a declarative Plan of disk faults (latency multipliers, transient errors,
// brownout windows), CPU service-time jitter, spurious transaction aborts
// and arrival bursts, plus the seeded Injector that draws every fault
// decision from named random substreams of the run seed.
//
// Determinism is the whole point. Every draw happens at a well-defined
// simulation event (disk service start, disk completion, compute-slice
// start, update completion), and the simulation kernel is single-threaded
// with FIFO same-instant ordering, so the same (seed, Plan) pair always
// produces the same fault sequence — faulted runs are bit-reproducible.
// The fault streams are independent of the workload-generation streams
// (stats.Source names them apart), so enabling a fault never perturbs the
// generated workload, and the zero Plan injects nothing at all: engines
// skip the injector entirely and every existing run stays bit-identical.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Window is a half-open interval [Start, End) of simulated time.
type Window struct {
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// Burst is an arrival-storm window: while an arrival falls inside the
// window, the workload generator divides the mean inter-arrival time by
// RateFactor (so RateFactor 4 quadruples the arrival rate).
type Burst struct {
	Window
	RateFactor float64 `json:"rate_factor"`
}

// Plan declares the faults to inject into one run. The zero value injects
// nothing and is guaranteed to leave every run bit-identical to an
// unfaulted one. Durations encode as integer nanoseconds in JSON, matching
// the repository's metrics codec.
type Plan struct {
	// DiskSlowProb is the per-access probability that the access takes
	// DiskSlowFactor times its nominal service time (a latency spike).
	DiskSlowProb float64 `json:"disk_slow_prob,omitempty"`
	// DiskSlowFactor is the latency-spike multiplier (default 4).
	DiskSlowFactor float64 `json:"disk_slow_factor,omitempty"`

	// DiskErrorProb is the per-completion probability that the access
	// fails transiently. The disk retries with exponential backoff up to
	// RetryLimit times; a request that exhausts its retries completes
	// failed, and the engine aborts (restarts) its transaction.
	DiskErrorProb float64 `json:"disk_error_prob,omitempty"`
	// RetryLimit bounds the per-request retries (default 3).
	RetryLimit int `json:"retry_limit,omitempty"`
	// RetryBackoff is the first retry delay; attempt n waits
	// RetryBackoff << (n-1) (default 1ms).
	RetryBackoff time.Duration `json:"retry_backoff_ns,omitempty"`

	// Brownouts are whole-disk slowdown windows: every access that starts
	// service inside a window takes BrownoutFactor times its nominal time.
	Brownouts []Window `json:"brownouts,omitempty"`
	// BrownoutFactor is the brownout multiplier (default 8).
	BrownoutFactor float64 `json:"brownout_factor,omitempty"`

	// CPUJitterProb is the per-compute-slice probability that the slice's
	// service time is inflated by a uniform factor in [1, CPUJitterFactor].
	CPUJitterProb float64 `json:"cpu_jitter_prob,omitempty"`
	// CPUJitterFactor is the jitter upper bound (default 2).
	CPUJitterFactor float64 `json:"cpu_jitter_factor,omitempty"`

	// AbortProb is the per-completed-update probability that the
	// transaction spuriously aborts (and restarts), modelling software
	// faults in the transaction manager.
	AbortProb float64 `json:"abort_prob,omitempty"`

	// Bursts are arrival-storm windows applied by the workload generator.
	Bursts []Burst `json:"bursts,omitempty"`
}

// Zero reports whether the plan injects nothing. A zero plan never builds
// an injector, never draws a variate, and leaves runs bit-identical.
func (p Plan) Zero() bool {
	return p.DiskSlowProb == 0 && p.DiskErrorProb == 0 && len(p.Brownouts) == 0 &&
		p.CPUJitterProb == 0 && p.AbortProb == 0 && len(p.Bursts) == 0
}

// Validate reports the first problem with the plan.
func (p Plan) Validate() error {
	for name, prob := range map[string]float64{
		"DiskSlowProb":  p.DiskSlowProb,
		"DiskErrorProb": p.DiskErrorProb,
		"CPUJitterProb": p.CPUJitterProb,
		"AbortProb":     p.AbortProb,
	} {
		if prob < 0 || prob > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", name, prob)
		}
	}
	if p.DiskSlowFactor != 0 && p.DiskSlowFactor < 1 {
		return fmt.Errorf("fault: DiskSlowFactor %v < 1", p.DiskSlowFactor)
	}
	if p.BrownoutFactor != 0 && p.BrownoutFactor < 1 {
		return fmt.Errorf("fault: BrownoutFactor %v < 1", p.BrownoutFactor)
	}
	if p.CPUJitterFactor != 0 && p.CPUJitterFactor < 1 {
		return fmt.Errorf("fault: CPUJitterFactor %v < 1", p.CPUJitterFactor)
	}
	if p.RetryLimit < 0 {
		return fmt.Errorf("fault: RetryLimit %d < 0", p.RetryLimit)
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("fault: RetryBackoff %v < 0", p.RetryBackoff)
	}
	for i, w := range p.Brownouts {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("fault: brownout %d window [%v, %v) invalid", i, w.Start, w.End)
		}
	}
	for i, b := range p.Bursts {
		if b.Start < 0 || b.End <= b.Start {
			return fmt.Errorf("fault: burst %d window [%v, %v) invalid", i, b.Start, b.End)
		}
		if b.RateFactor <= 0 {
			return fmt.Errorf("fault: burst %d rate factor %v <= 0", i, b.RateFactor)
		}
	}
	return nil
}

// Defaulted parameter accessors.

func (p Plan) slowFactor() float64 {
	if p.DiskSlowFactor > 0 {
		return p.DiskSlowFactor
	}
	return 4
}

func (p Plan) brownoutFactor() float64 {
	if p.BrownoutFactor > 0 {
		return p.BrownoutFactor
	}
	return 8
}

func (p Plan) jitterFactor() float64 {
	if p.CPUJitterFactor > 0 {
		return p.CPUJitterFactor
	}
	return 2
}

func (p Plan) retryLimit() int {
	if p.RetryLimit > 0 {
		return p.RetryLimit
	}
	return 3
}

func (p Plan) retryBackoff() time.Duration {
	if p.RetryBackoff > 0 {
		return p.RetryBackoff
	}
	return time.Millisecond
}

// ParsePlan decodes a plan from JSON (unknown fields rejected, so a typo
// cannot silently disable a fault) and validates it.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: parsing plan: %w", err)
	}
	return p, p.Validate()
}

// Injector draws every fault decision of one run from named substreams of
// the run seed. The streams are independent of each other and of every
// workload stream, so adding a fault class never perturbs the others.
// An Injector is not safe for concurrent use; the simulation kernel is
// single-threaded, which is what makes the draw order deterministic.
type Injector struct {
	plan    Plan
	diskLat *stats.Stream
	diskErr *stats.Stream
	cpu     *stats.Stream
	abort   *stats.Stream
}

// NewInjector builds the injector for one run. Callers should skip
// construction entirely for a zero plan (engines do); a zero-plan injector
// is still harmless — every probability gate fails without drawing.
func NewInjector(seed int64, p Plan) *Injector {
	src := stats.NewSource(seed)
	return &Injector{
		plan:    p,
		diskLat: src.Stream("fault-disk-latency"),
		diskErr: src.Stream("fault-disk-error"),
		cpu:     src.Stream("fault-cpu"),
		abort:   src.Stream("fault-abort"),
	}
}

// ServiceTime returns the possibly-inflated service time of one disk
// access starting at the given simulated instant. It implements the disk
// package's Faults hook.
func (in *Injector) ServiceTime(now, base time.Duration) time.Duration {
	t := base
	if in.plan.DiskSlowProb > 0 && in.diskLat.Bernoulli(in.plan.DiskSlowProb) {
		t = time.Duration(float64(t) * in.plan.slowFactor())
	}
	for _, w := range in.plan.Brownouts {
		if w.Contains(now) {
			t = time.Duration(float64(t) * in.plan.brownoutFactor())
			break
		}
	}
	return t
}

// TransientError reports whether a completed disk access fails and must be
// retried (disk Faults hook).
func (in *Injector) TransientError() bool {
	return in.plan.DiskErrorProb > 0 && in.diskErr.Bernoulli(in.plan.DiskErrorProb)
}

// RetryPolicy returns the bounded-retry parameters (disk Faults hook).
func (in *Injector) RetryPolicy() (limit int, backoff time.Duration) {
	return in.plan.retryLimit(), in.plan.retryBackoff()
}

// ComputeTime returns the possibly-jittered service time of one compute
// slice.
func (in *Injector) ComputeTime(base time.Duration) time.Duration {
	if in.plan.CPUJitterProb > 0 && in.cpu.Bernoulli(in.plan.CPUJitterProb) {
		return time.Duration(float64(base) * in.cpu.Uniform(1, in.plan.jitterFactor()))
	}
	return base
}

// SpuriousAbort reports whether the update that just completed triggers a
// spurious transaction abort.
func (in *Injector) SpuriousAbort() bool {
	return in.plan.AbortProb > 0 && in.abort.Bernoulli(in.plan.AbortProb)
}
