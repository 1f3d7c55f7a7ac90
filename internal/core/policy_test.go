package core

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// policyFixture builds an engine with two live transactions for direct
// policy-function tests: T0 partially executed (holds item 0, 6 ms of
// service), T1 fresh and conflicting on item 0.
func policyFixture(t *testing.T, kind PolicyKind) (*Engine, *Txn, *Txn) {
	t.Helper()
	cfg := MainMemoryConfig(kind, 1)
	cfg.Workload.DBSize = 10
	wl := buildWorkload(10, []specIn{
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0, 1}},
		{arrival: 0, deadline: 90 * msec, items: []txn.Item{0, 2}},
	})
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := e.all[0], e.all[1]
	e.live.push(t0)
	e.live.push(t1)
	e.hasAcquired(t0, 0)
	t0.service = 6 * msec
	return e, t0, t1
}

func TestCCAEvaluateIncludesPenalty(t *testing.T) {
	e, _, t1 := policyFixture(t, CCA)
	// penalty(T1) = service(6) + rollback(4) = 10ms; deadline 90ms.
	if got := e.policy.evaluate(e, t1); got != -100 {
		t.Fatalf("Pr(T1) = %v, want -100", got)
	}
}

func TestCCAEvaluateNoPenaltyForDisjoint(t *testing.T) {
	e, t0, t1 := policyFixture(t, CCA)
	e.ci.deindexHas(e, t0)
	t0.has.clear()
	e.hasAcquired(t0, 1) // now holds only item 1, which T1 never accesses
	if got := e.policy.evaluate(e, t1); got != -90 {
		t.Fatalf("Pr(T1) = %v, want -90 (no unsafe P-list member)", got)
	}
}

func TestCCAEvaluateExcludesSelf(t *testing.T) {
	e, t0, _ := policyFixture(t, CCA)
	if got := e.policy.evaluate(e, t0); got != -100 {
		t.Fatalf("Pr(T0) = %v, want -100 (own service is not its own penalty)", got)
	}
}

func TestCCAPenaltyWithoutRollback(t *testing.T) {
	e, _, t1 := policyFixture(t, CCA)
	e.cfg.penaltyIncludesRollback = false
	if got := e.penaltyOfConflict(t1); got != 6*msec {
		t.Fatalf("penalty = %v, want 6ms (service only)", got)
	}
}

func TestCCAPenaltyWeightScales(t *testing.T) {
	e, _, t1 := policyFixture(t, CCA)
	e.policy = ccaPolicy{weight: 3}
	if got := e.policy.evaluate(e, t1); got != -120 {
		t.Fatalf("Pr(T1) with w=3 = %v, want -(90+3*10)", got)
	}
}

func TestEDFEvaluateIsDeadlineOnly(t *testing.T) {
	e, t0, t1 := policyFixture(t, EDFHP)
	if e.policy.evaluate(e, t0) != -100 || e.policy.evaluate(e, t1) != -90 {
		t.Fatal("EDF priority must be -deadline")
	}
}

func TestEDFHPWoundsOnlyHigherPriority(t *testing.T) {
	e, t0, t1 := policyFixture(t, EDFHP)
	t0.priority, t1.priority = -100, -90
	if !e.policy.wounds(e, t1, t0) {
		t.Error("higher-priority requester must wound")
	}
	if e.policy.wounds(e, t0, t1) {
		t.Error("lower-priority requester must wait")
	}
	// Tie broken by ID.
	t0.priority = -90
	if e.policy.wounds(e, t1, t0) {
		t.Error("equal priority: higher ID must not wound lower ID")
	}
	if !e.policy.wounds(e, t0, t1) {
		t.Error("equal priority: lower ID must wound")
	}
}

func TestCCAAlwaysWounds(t *testing.T) {
	e, t0, t1 := policyFixture(t, CCA)
	t0.priority, t1.priority = -1, -1000
	if !e.policy.wounds(e, t1, t0) || !e.policy.wounds(e, t0, t1) {
		t.Error("CCA must wound regardless of priorities (no lock wait)")
	}
}

func TestEDFWPNeverWounds(t *testing.T) {
	e, t0, t1 := policyFixture(t, EDFWP)
	t1.priority, t0.priority = 0, -1000
	if e.policy.wounds(e, t1, t0) {
		t.Error("WP must never wound")
	}
	if !e.policy.inherits() {
		t.Error("WP must inherit")
	}
}

func TestLSFEvaluateStaticSlack(t *testing.T) {
	e, t0, _ := policyFixture(t, LSFHP)
	// T0: deadline 100, resource 2x4=8 -> slack 92 at t=0.
	if got := e.policy.evaluate(e, t0); got != -92 {
		t.Fatalf("LSF priority = %v, want -92", got)
	}
}

func TestFCFSEvaluateByArrival(t *testing.T) {
	e, t0, _ := policyFixture(t, FCFS)
	if got := e.policy.evaluate(e, t0); got != 0 {
		t.Fatalf("FCFS priority = %v, want -arrival = 0", got)
	}
}

func TestEDFCRWoundDecision(t *testing.T) {
	e, t0, t1 := policyFixture(t, EDFCR)
	// Priorities: T1 (deadline 90) > T0 (deadline 100).
	t0.priority, t1.priority = -100, -90
	// T0 (holder) remaining static = 8ms - nothing executed in the
	// runtime sense (next=0, remain=0) -> 8ms. T1's slack at t=0:
	// 90 - 0 - 8 = 82ms >= 8ms: conditional restart says wait.
	if e.policy.wounds(e, t1, t0) {
		t.Error("holder fits in requester slack: must wait, not wound")
	}
	// Shrink the requester's slack below the holder's remaining time.
	t1.spec.Deadline = 15 * msec
	if !e.policy.wounds(e, t1, t0) {
		t.Error("holder cannot finish within slack: must wound")
	}
	// A holder with higher priority is never wounded.
	t0.priority = -10
	if e.policy.wounds(e, t1, t0) {
		t.Error("higher-priority holder must never be wounded")
	}
}

func TestEDFCRCompletesWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res := mustRun(t, smallMM(EDFCR, seed))
		if res.Committed != 150 {
			t.Fatalf("seed %d: committed %d", seed, res.Committed)
		}
		res = mustRun(t, smallDisk(EDFCR, seed))
		if res.Committed != 80 {
			t.Fatalf("disk seed %d: committed %d", seed, res.Committed)
		}
	}
}

func TestPolicyKindsAndFilters(t *testing.T) {
	cases := []struct {
		kind    PolicyKind
		filters bool
	}{
		{CCA, true}, {EDFHP, false}, {EDFWP, false}, {LSFHP, false}, {EDFCR, false}, {AED, false}, {PCP, false}, {FCFS, false},
	}
	for _, c := range cases {
		cfg := MainMemoryConfig(c.kind, 1)
		p := newPolicy(cfg)
		if p.kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", p.kind(), c.kind)
		}
		if p.filtersIOWait() != c.filters {
			t.Errorf("%v filtersIOWait = %v", c.kind, p.filtersIOWait())
		}
	}
}

func TestNewPolicyPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy did not panic")
		}
	}()
	newPolicy(Config{Policy: "bogus"})
}

func TestServiceNowIncludesRunningSlice(t *testing.T) {
	e, t0, _ := policyFixture(t, CCA)
	t0.state = StateRunning
	t0.sliceStart = e.sim.Now()
	t0.cpuEvent = e.sim.After(10*msec, func() {})
	e.sim.RunUntil(4 * msec)
	if got := e.serviceNow(t0); got != 10*msec {
		t.Fatalf("serviceNow = %v, want 6ms accrued + 4ms in flight", got)
	}
}

func TestRollbackCostProportional(t *testing.T) {
	e, t0, _ := policyFixture(t, CCA)
	e.cfg.RecoveryProportionalFactor = 0.5
	// 4ms fixed + 0.5 * 6ms service = 7ms.
	if got := e.rollbackCost(t0); got != 7*msec {
		t.Fatalf("rollbackCost = %v, want 7ms", got)
	}
}

func TestLessOrdering(t *testing.T) {
	mk := func(id int, arrival uint64, crit int, pri float64) *Txn {
		return &Txn{spec: &workload.Spec{ID: id, Criticality: crit}, priority: pri, arrival: arrival}
	}
	if !less(mk(1, 2, 1, -100), mk(0, 1, 0, -1)) {
		t.Error("criticality must dominate priority")
	}
	if !less(mk(1, 2, 0, -1), mk(0, 1, 0, -2)) {
		t.Error("priority must dominate arrival")
	}
	// A recycled served object can give a later arrival the lower ID.
	if !less(mk(1, 1, 0, -1), mk(0, 2, 0, -1)) || less(mk(0, 2, 0, -1), mk(1, 1, 0, -1)) {
		t.Error("earlier arrival must win ties, whatever the IDs")
	}
}

// TestLemma1NoPriorityReversal: under CCA (main memory), whenever a wound
// occurs the wounding (running) transaction's priority is at least the
// victim's — verified on full runs via the structured event trace.
func TestLemma1NoPriorityReversal(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 3)
	cfg.Workload.Count = 200
	cfg.Workload.ArrivalRate = 9
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{Filter: func(ev trace.Event) bool { return ev.Kind == trace.Wound }}
	e.SetRecorder(buf)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wounds := buf.Events()
	if len(wounds) == 0 {
		t.Skip("no wounds occurred at this seed; Lemma 1 vacuous here")
	}
	for _, ev := range wounds {
		if ev.Priority < ev.OtherPriority {
			t.Errorf("priority reversal: T%d (%.2f) wounded T%d (%.2f)",
				ev.Txn, ev.Priority, ev.Other, ev.OtherPriority)
		}
	}
}

// TestEDFHPWoundsRespectPriority: EDF-HP wounds are always from strictly
// higher (or tie-broken) priority to lower, in both configurations.
func TestEDFHPWoundsRespectPriority(t *testing.T) {
	for _, disk := range []bool{false, true} {
		var cfg Config
		if disk {
			cfg = DiskConfig(EDFHP, 2)
			cfg.Workload.Count = 100
			cfg.Workload.ArrivalRate = 6
		} else {
			cfg = MainMemoryConfig(EDFHP, 2)
			cfg.Workload.Count = 200
			cfg.Workload.ArrivalRate = 9
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := &trace.Buffer{Filter: func(ev trace.Event) bool { return ev.Kind == trace.Wound }}
		e.SetRecorder(buf)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range buf.Events() {
			if ev.Priority < ev.OtherPriority {
				t.Errorf("disk=%v: EDF-HP wound from lower priority: %+v", disk, ev)
			}
		}
	}
}

// TestTraceLifecycleConsistency: per transaction, the structured trace
// shows exactly one arrival, exactly one commit, and dispatches >= commits.
func TestTraceLifecycleConsistency(t *testing.T) {
	cfg := DiskConfig(CCA, 4)
	cfg.Workload.Count = 80
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	e.SetRecorder(&buf)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	arrivals := map[int]int{}
	commits := map[int]int{}
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case trace.Arrival:
			arrivals[ev.Txn]++
		case trace.Commit:
			commits[ev.Txn]++
		}
	}
	for id := 0; id < 80; id++ {
		if arrivals[id] != 1 {
			t.Fatalf("T%d arrived %d times", id, arrivals[id])
		}
		if commits[id] != 1 {
			t.Fatalf("T%d committed %d times", id, commits[id])
		}
	}
	if buf.Count(trace.Dispatch) < 80 {
		t.Fatal("fewer dispatches than transactions")
	}
	// Every IO start eventually has a matching IO done or the txn was
	// wounded mid-service; starts >= dones always.
	if buf.Count(trace.IODone) > buf.Count(trace.IOStart) {
		t.Fatal("more IO completions than starts")
	}
}

// TestSecondaryDispatchMarking: under CCA every secondary dispatch is of a
// transaction compatible with the P-list, so no secondary is ever wounded;
// under EDF-HP on disk, wounds of secondaries are the noncontributing
// aborts the metrics report.
func TestSecondaryDispatchMarking(t *testing.T) {
	cfg := DiskConfig(EDFHP, 3)
	cfg.Workload.Count = 120
	cfg.Workload.ArrivalRate = 6
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	e.SetRecorder(&buf)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	secondaries := 0
	for _, ev := range buf.OfKind(trace.Dispatch) {
		if ev.Secondary {
			secondaries++
		}
	}
	if res.NoncontributingAborts > 0 && secondaries == 0 {
		t.Fatal("noncontributing aborts recorded but no secondary dispatches traced")
	}
}

// TestZeroSlackWorkload: deadlines equal to static time are missed whenever
// any queueing occurs, but everything still commits.
func TestZeroSlackWorkload(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 2)
	cfg.Workload.Count = 100
	cfg.Workload.MinSlack = 0
	cfg.Workload.MaxSlack = 0
	cfg.Workload.ArrivalRate = 10
	cfg.CheckInvariants = true
	res := mustRun(t, cfg)
	if res.Committed != 100 {
		t.Fatalf("committed %d", res.Committed)
	}
	if res.MissPercent < 50 {
		t.Errorf("zero slack at high load should miss most deadlines, got %.1f%%", res.MissPercent)
	}
}

// TestSingleItemDatabase: total serialisation; every pair conflicts.
func TestSingleItemDatabase(t *testing.T) {
	for _, p := range Policies() {
		cfg := MainMemoryConfig(p, 2)
		cfg.Workload.Count = 60
		cfg.Workload.DBSize = 1
		cfg.Workload.UpdatesMean = 1
		cfg.Workload.UpdatesStd = 0
		cfg.CheckInvariants = true
		res := mustRun(t, cfg)
		if res.Committed != 60 {
			t.Fatalf("%s: committed %d on 1-item DB", p, res.Committed)
		}
	}
}

// TestBurstArrivals: many transactions arriving in a tight burst drain
// correctly under every policy.
func TestBurstArrivals(t *testing.T) {
	for _, p := range Policies() {
		cfg := MainMemoryConfig(p, 5)
		cfg.Workload.Count = 80
		cfg.Workload.ArrivalRate = 500 // effectively simultaneous
		cfg.CheckInvariants = true
		res := mustRun(t, cfg)
		if res.Committed != 80 {
			t.Fatalf("%s: committed %d under burst", p, res.Committed)
		}
	}
}

// TestWholeDatabaseTransactions: every transaction touches every item.
func TestWholeDatabaseTransactions(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 6)
	cfg.Workload.Count = 40
	cfg.Workload.DBSize = 10
	cfg.Workload.UpdatesMean = 10
	cfg.Workload.UpdatesStd = 0
	cfg.CheckInvariants = true
	res := mustRun(t, cfg)
	if res.Committed != 40 {
		t.Fatalf("committed %d", res.Committed)
	}
}
