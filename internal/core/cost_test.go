package core

// Cost tests for the incremental dispatch pass: what one scheduling point
// costs as a function of the live set. The counts asserted here repeat
// exactly — they are not timings — so they ride tier-1; the timed growth
// curve (BenchmarkDispatchGrowth) feeds BENCH_core.json.

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// costDBSize leaves room for the largest parked backlog below the items the
// foreground traffic draws from, and is the same for every backlog size so
// the per-evaluation bitset width does not vary with it.
const costDBSize = 16384

// backlogEngine builds a virtual-time service-style engine holding parked
// live transactions that never finish and conflict with nobody: one item
// each on items [0, parked), a compute time no run reaches. Exactly one of
// them occupies the CPU (and the P-list) whenever nothing better is live —
// the shape of the benchmark's backlog_open workload.
func backlogEngine(tb testing.TB, policy PolicyKind, parked int) *Engine {
	tb.Helper()
	cfg := MainMemoryConfig(policy, 1)
	cfg.Workload.DBSize = costDBSize
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	e.retires = true
	e.StartRun()
	for j := 0; j < parked; j++ {
		e.SubmitSpec(&workload.Spec{
			Items:    []txn.Item{txn.Item(j)},
			Compute:  1_000_000 * time.Second,
			Deadline: 100_000_000 * time.Second,
		}, nil)
	}
	return e
}

// foreground runs one two-item transaction from arrival to commit over the
// backlog, retired on its answer the way a service engine does.
func foreground(tb testing.TB, e *Engine, parked, i int) {
	now := time.Duration(e.sim.Now())
	span := costDBSize - parked
	spec := &workload.Spec{
		Items:    []txn.Item{txn.Item(parked + (2*i)%span), txn.Item(parked + (2*i+1)%span)},
		Compute:  50 * time.Microsecond,
		Arrival:  now,
		Deadline: now + time.Minute,
	}
	tp := e.SubmitSpec(spec, func(ServiceOutcome, error) {})
	if err := e.StepTo(e.sim.Now() + sim.Time(200*time.Microsecond)); err != nil {
		tb.Fatal(err)
	}
	if tp.State() != StateCommitted {
		tb.Fatalf("foreground T%d ended %v, want committed", tp.ID(), tp.State())
	}
}

// TestDispatchCostIndependentOfBacklog pins the tentpole's complexity claim
// with counts: over N parked, non-conflicting live transactions one
// foreground arrival→commit costs the same number of Evaluate calls and the
// same number of dispatch passes for every N, and O(log N) ranked-order
// comparisons.
func TestDispatchCostIndependentOfBacklog(t *testing.T) {
	type cost struct{ evals, passes, compares int }
	var costs []cost
	sizes := []int{16, 1024, 8192}
	for _, n := range sizes {
		e := backlogEngine(t, CCA, n)
		foreground(t, e, n, 0) // settle: the first parked transaction is running
		var c cost
		for i := 1; i <= 3; i++ {
			v0, p0, c0 := e.evals, e.passes, e.rankCompares
			foreground(t, e, n, i)
			got := cost{int(e.evals - v0), int(e.passes - p0), int(e.rankCompares - c0)}
			if i > 1 && got != c {
				t.Fatalf("%d parked: cost does not repeat: %+v then %+v", n, c, got)
			}
			c = got
		}
		t.Logf("%5d parked: %d Evaluate calls, %d passes, %d comparisons per foreground transaction", n, c.evals, c.passes, c.compares)
		costs = append(costs, c)
		if e.live.n != n {
			t.Fatalf("%d parked: %d live after the foreground committed", n, e.live.n)
		}
	}
	for i, c := range costs {
		if c.evals != costs[0].evals || c.passes != costs[0].passes {
			t.Errorf("%d parked: %d Evaluate calls in %d passes, but %d in %d over %d parked — evaluation work grows with the live set",
				sizes[i], c.evals, c.passes, costs[0].evals, costs[0].passes, sizes[0])
		}
		// Each insert, removal and re-key is one binary search:
		// ⌈log₂(N+2)⌉ comparisons at most. A foreground transaction is
		// inserted once, removed once, and it and the preempted parked
		// transaction are re-keyed a bounded number of times.
		if limit := 8 * bits.Len(uint(sizes[i]+2)); c.compares > limit {
			t.Errorf("%d parked: %d ranked-order comparisons per transaction, want ≤ %d (8·log₂N)", sizes[i], c.compares, limit)
		}
	}
}

// TestDispatchPassZeroAlloc: a scheduling point over a settled backlog
// allocates nothing, whichever evaluation discipline the policy runs under.
func TestDispatchPassZeroAlloc(t *testing.T) {
	for _, pol := range []PolicyKind{CCA, EDFHP, LSFHP} {
		e := backlogEngine(t, pol, 1024)
		foreground(t, e, 1024, 0)
		if allocs := testing.AllocsPerRun(100, e.reschedule); allocs != 0 {
			t.Errorf("%s: dispatch pass allocates %.1f times per scheduling point", pol, allocs)
		}
	}
}

// dispatchGrowthSizes are the live-set sizes of the growth curve.
var dispatchGrowthSizes = []int{16, 128, 1024, 8192}

// benchDispatchGrowth times foreground arrival→commit cycles over a parked
// backlog of n and reports wall nanoseconds per scheduling point (dispatch
// pass). The figure includes building and retiring the transaction — the
// same work at every n — so the curve's slope, not its level, is the
// pass's dependence on the live set.
func benchDispatchGrowth(b *testing.B, n int) {
	e := backlogEngine(b, CCA, n)
	foreground(b, e, n, 0)
	p0 := e.passes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		foreground(b, e, n, i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.passes-p0), "ns/point")
}

func BenchmarkDispatchGrowth(b *testing.B) {
	for _, n := range dispatchGrowthSizes {
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) { benchDispatchGrowth(b, n) })
	}
}

// disjointBatchSize and disjointDBSize are the shape of one driver batch on
// the benchmark's wire_open workload: 64 two-item transactions over 8 192
// items, no two sharing an item.
const (
	disjointBatchSize = 64
	disjointDBSize    = 8192
)

func disjointEngine(tb testing.TB) *Engine {
	tb.Helper()
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.DBSize = disjointDBSize
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	e.retires = true
	e.StartRun()
	return e
}

// disjointBatch submits batch number i — disjointBatchSize item-disjoint
// transactions arriving at the current instant — and runs it to completion,
// calling probe after every arrival and at every answer.
func disjointBatch(tb testing.TB, e *Engine, i int, probe func()) {
	now := time.Duration(e.sim.Now())
	committed := e.committed
	done := func(ServiceOutcome, error) { probe() }
	for j := 0; j < disjointBatchSize; j++ {
		k := (i*disjointBatchSize + j) * 2 % disjointDBSize
		e.SubmitSpec(&workload.Spec{
			Items:    []txn.Item{txn.Item(k), txn.Item(k + 1)},
			Compute:  50 * time.Microsecond,
			Arrival:  now,
			Deadline: now + time.Minute,
		}, done)
		probe()
	}
	if err := e.StepTo(e.sim.Now() + sim.Time(disjointBatchSize*200*time.Microsecond)); err != nil {
		tb.Fatal(err)
	}
	if got := e.committed - committed; got != disjointBatchSize || e.live.n != 0 {
		tb.Fatalf("batch %d: %d committed, %d still live", i, got, e.live.n)
	}
}

// TestDisjointBatchDoesNoConflictWork pins what a scheduling point costs
// when nothing conflicts: a batch of item-disjoint transactions is
// evaluated once each, on arrival, however many passes its arrivals, lock
// acquisitions and commits cause — the running transaction holds locks but
// penalises nobody, itself included — and the hot set stays empty throughout.
func TestDisjointBatchDoesNoConflictWork(t *testing.T) {
	e := disjointEngine(t)
	e.cfg.CheckInvariants = true
	for i := 0; i < 3; i++ {
		v0, p0, maxHot := e.evals, e.passes, 0
		disjointBatch(t, e, i, func() { maxHot = max(maxHot, len(e.ci.hot)) })
		evals, passes := e.evals-v0, e.passes-p0
		t.Logf("batch %d: %d evaluations in %d passes, hot set peaked at %d", i, evals, passes, maxHot)
		if evals != disjointBatchSize {
			t.Errorf("batch %d: %d evaluations for %d disjoint transactions, want one each", i, evals, disjointBatchSize)
		}
		if passes < 2*disjointBatchSize {
			t.Errorf("batch %d: only %d passes — the batch did not exercise an arrival and a commit pass per transaction", i, passes)
		}
		if maxHot != 0 {
			t.Errorf("batch %d: hot set reached %d members with no conflict in the system", i, maxHot)
		}
	}
}

// BenchmarkBatchDisjoint times that batch shape: wall nanoseconds per
// transaction, arrival to retirement, 64 live at the start of every batch.
func BenchmarkBatchDisjoint(b *testing.B) { benchBatchDisjoint(b) }

func benchBatchDisjoint(b *testing.B) {
	e := disjointEngine(b)
	disjointBatch(b, e, 0, func() {})
	v0 := e.evals
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		disjointBatch(b, e, i, func() {})
	}
	b.StopTimer()
	txns := float64(b.N * disjointBatchSize)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/txns, "ns/txn")
	b.ReportMetric(float64(e.evals-v0)/txns, "evals/txn")
}
