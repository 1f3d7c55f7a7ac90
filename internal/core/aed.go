package core

import (
	"math"

	"repro/internal/stats"
)

// aedPolicy implements Adaptive Earliest Deadline (Haritsa, Carey & Livny,
// "On Being Optimistic About Real-Time Constraints" — the paper's [HCL90]),
// as an extension baseline.
//
// Mechanism: every transaction draws a random key on arrival and the live
// transactions are virtually ordered by key. The first hitCapacity of them
// form the HIT group, scheduled by EDF; the rest form the MISS group,
// scheduled below every HIT transaction in random (key) order. A feedback
// loop adapts hitCapacity so that HIT transactions almost always meet their
// deadlines: the capacity is the observed HIT-group hit ratio times the
// group size, inflated by 5% (the original's HITcapacity = HitRatio(HIT) ×
// HITbatch × 1.05), re-estimated over fixed-size batches of commits.
//
// Under light load everything fits in the HIT group and AED behaves like
// EDF; past saturation the HIT group shrinks, sparing EDF its collapse.
// Conflicts are resolved High Priority (wound lower priority, wait for
// higher), like the other extension baselines.
type aedPolicy struct {
	keys    map[int]float64 // random priority key per transaction ID
	rng     *stats.Stream
	hitCap  float64
	batch   int // commits observed in the current batch
	hits    int // of which in the HIT group and on time
	inHIT   int // commits that were in the HIT group
	batchSz int
}

func newAEDPolicy(seed int64) *aedPolicy {
	return &aedPolicy{
		keys:    make(map[int]float64),
		rng:     stats.NewSource(seed).Stream("aed-keys"),
		hitCap:  1e9, // start unbounded: pure EDF until feedback kicks in
		batchSz: 20,
	}
}

func (p *aedPolicy) Kind() PolicyKind { return AED }

// key returns t's random group-assignment key, drawing it on first use.
func (p *aedPolicy) key(t *Txn) float64 {
	k, ok := p.keys[t.ID()]
	if !ok {
		k = p.rng.Float64()
		p.keys[t.ID()] = k
	}
	return k
}

// inHITGroup reports whether t currently falls inside the HIT capacity:
// its key-rank among live transactions is below hitCap.
func (p *aedPolicy) inHITGroup(e *Engine, t *Txn) bool {
	if p.hitCap >= float64(e.live.n) {
		return true
	}
	kt := p.key(t)
	rank := 0
	for o := e.live.head; o != nil; o = o.liveNext {
		if o != t && p.key(o) < kt {
			rank++
		}
	}
	return float64(rank) < p.hitCap
}

// Evaluate places HIT transactions in a high band ordered by EDF and MISS
// transactions in a low band ordered by their random key.
func (p *aedPolicy) Evaluate(e *Engine, t *Txn) float64 {
	const band = 1e12
	if p.inHITGroup(e, t) {
		return band - ms(t.Spec.Deadline)
	}
	return -band - p.key(t)*1e6
}

func (p *aedPolicy) Wounds(_ *Engine, requester, holder *Txn) bool {
	return requester.priority > holder.priority ||
		(requester.priority == holder.priority && requester.ID() < holder.ID())
}

func (p *aedPolicy) FiltersIOWait() bool { return false }
func (p *aedPolicy) Inherits() bool      { return false }

// Staticness: group membership depends on the whole live set and the
// feedback-adapted HIT capacity, both of which move between passes.
func (p *aedPolicy) Staticness() Staticness { return EvalDynamic }

// observeCommit feeds the HIT-ratio controller. The engine calls it on
// every commit (and on every firm-mode drop, which counts as a miss).
func (p *aedPolicy) observeCommit(e *Engine, t *Txn, missed bool) {
	inHIT := t.priority > 0 // HIT band is positive
	p.batch++
	if inHIT {
		p.inHIT++
		if !missed {
			p.hits++
		}
	}
	if p.batch < p.batchSz {
		return
	}
	if p.inHIT > 0 {
		// HITcapacity := HitRatio(HIT) × HITcapacity × 1.05: while the
		// HIT group meets its deadlines (ratio ≥ 0.95) the capacity
		// creeps up; when it starts missing, the capacity shrinks
		// multiplicatively until the group is small enough to be
		// schedulable — the original's feedback law.
		ratio := float64(p.hits) / float64(p.inHIT)
		cap := minFloat(p.hitCap, capCeiling)
		if ratio >= 0.95 {
			p.hitCap = math.Max(cap*1.05, cap+1)
		} else {
			p.hitCap = math.Max(1, ratio*cap*1.05)
		}
	}
	p.batch, p.hits, p.inHIT = 0, 0, 0
}

// capCeiling bounds the HIT capacity so that shrinking from the unbounded
// initial value takes one batch, not dozens.
const capCeiling = 512

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// commitObserver lets stateful policies receive commit feedback.
type commitObserver interface {
	observeCommit(e *Engine, t *Txn, missed bool)
}
