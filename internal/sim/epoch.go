package sim

// Epoch support for sharded execution. Each shard owns an independent
// Simulator (its own calendar and clock); determinism across shards comes
// from agreeing on a fixed grid of simulated instants — epoch boundaries —
// at which cross-shard work is exchanged and applied in canonical order.
// Between boundaries the shards share nothing, so they may run on any
// number of OS threads in any interleaving without the outcome changing.

import (
	"fmt"
	"sync"
)

// EpochSchedule is the fixed epoch grid: boundary k is at k*Interval.
type EpochSchedule struct {
	Interval Time
}

// Boundary returns the simulated time of the k-th epoch boundary (k >= 1).
func (s EpochSchedule) Boundary(k int) Time {
	if s.Interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive epoch interval %v", s.Interval))
	}
	if k < 1 {
		panic(fmt.Sprintf("sim: epoch boundary index %d < 1", k))
	}
	return Time(k) * s.Interval
}

// epochOf returns the index of the first boundary at or after t, i.e. the
// epoch during which an event at time t is exchanged. Events exactly on a
// boundary belong to that boundary's epoch.
func (s EpochSchedule) epochOf(t Time) int {
	if s.Interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive epoch interval %v", s.Interval))
	}
	if t <= 0 {
		return 1
	}
	k := int((t + s.Interval - 1) / s.Interval)
	if k < 1 {
		k = 1
	}
	return k
}

// Lockstep runs n workers through synchronized rounds: every worker must
// finish round k before any worker starts round k+1. Workers run on their
// own goroutines inside a round, so a round's wall-clock cost is the
// slowest worker, not the sum — but the barrier guarantees that whatever
// the workers exchange between rounds is exchanged at a quiescent point.
type Lockstep struct {
	n    int
	errs []error
}

// NewLockstep returns a barrier for n workers.
func NewLockstep(n int) *Lockstep {
	if n < 1 {
		panic(fmt.Sprintf("sim: lockstep over %d workers", n))
	}
	return &Lockstep{n: n, errs: make([]error, n)}
}

// Round runs step(i) for every worker i concurrently and waits for all of
// them. If any step fails, Round returns the error of the lowest-indexed
// failing worker — a deterministic choice, so a failing sharded run
// reports the same error no matter how the goroutines interleave.
func (l *Lockstep) Round(step func(i int) error) error {
	if l.n == 1 {
		return step(0)
	}
	var wg sync.WaitGroup
	wg.Add(l.n)
	for i := 0; i < l.n; i++ {
		go func(i int) {
			defer wg.Done()
			l.errs[i] = step(i)
		}(i)
	}
	wg.Wait()
	for _, err := range l.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
