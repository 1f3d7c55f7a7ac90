package core

// Robustness-extension suite: deterministic fault injection (zero-plan
// bit-identity, seeded reproducibility, fast-path equivalence under
// faults), overload admission control, the runtime safety oracle and the
// calendar watchdog.

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testPlan is a non-trivial plan exercising every fault class at once.
func testPlan() fault.Plan {
	return fault.Plan{
		DiskSlowProb: 0.2, DiskSlowFactor: 3,
		DiskErrorProb: 0.1, RetryLimit: 2, RetryBackoff: time.Millisecond,
		Brownouts:      []fault.Window{{Start: 2 * time.Second, End: 4 * time.Second}},
		BrownoutFactor: 4,
		CPUJitterProb:  0.2, CPUJitterFactor: 2,
		AbortProb: 0.01,
		Bursts:    []fault.Burst{{Window: fault.Window{Start: 0, End: 3 * time.Second}, RateFactor: 2}},
	}
}

// TestZeroPlanBitIdentical: an explicitly-zero fault plan must leave every
// run bit-identical to an unfaulted one — schedule, metrics, and even the
// JSON encoding of the result (the fault counters are omitempty precisely so
// an unfaulted result encodes as it did before they existed).
func TestZeroPlanBitIdentical(t *testing.T) {
	for _, mk := range []struct {
		name string
		cfg  Config
	}{
		{"mm-cca", MainMemoryConfig(CCA, 3)},
		{"disk-edfhp", DiskConfig(EDFHP, 3)},
	} {
		cfg := mk.cfg
		cfg.Workload.Count = 150
		plainSched, plainRes := runForEquivalence(t, cfg, nil)

		faulted := cfg
		faulted.Fault = fault.Plan{}
		fSched, fRes := runForEquivalence(t, faulted, nil)
		if !reflect.DeepEqual(plainSched, fSched) {
			t.Fatalf("%s: zero plan changed the schedule", mk.name)
		}
		if !reflect.DeepEqual(plainRes, fRes) {
			t.Fatalf("%s: zero plan changed the metrics", mk.name)
		}
		a, err := json.Marshal(plainRes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(fRes)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: zero plan changed the result encoding:\n%s\n%s", mk.name, a, b)
		}

		// White box: a zero plan must not even build the injector.
		e, err := New(faulted)
		if err != nil {
			t.Fatal(err)
		}
		if e.fault != nil {
			t.Fatalf("%s: zero plan built an injector", mk.name)
		}
	}
}

// TestFaultedRunDeterministic: the same (seed, plan) pair reproduces the
// faulted run bit-identically.
func TestFaultedRunDeterministic(t *testing.T) {
	cfg := DiskConfig(CCA, 5)
	cfg.Workload.Count = 150
	cfg.Fault = testPlan()
	aSched, aRes := runForEquivalence(t, cfg, nil)
	bSched, bRes := runForEquivalence(t, cfg, nil)
	if !reflect.DeepEqual(aSched, bSched) {
		t.Fatal("faulted schedule differs between identical runs")
	}
	if !reflect.DeepEqual(aRes, bRes) {
		t.Fatalf("faulted metrics differ between identical runs:\n%+v\n%+v", aRes, bRes)
	}
	// A different seed must actually produce different faults (otherwise
	// the test above proves nothing).
	cfg2 := cfg
	cfg2.Seed = 6
	_, cRes := runForEquivalence(t, cfg2, nil)
	if reflect.DeepEqual(aRes, cRes) {
		t.Fatal("different seeds produced identical faulted metrics")
	}
}

// TestFaultedEquivalenceMatrix: the scheduling fast paths must stay
// bit-identical to the recorded reference under active fault injection too —
// fault draws happen at simulation events, which the fast paths must not
// reorder.
func TestFaultedEquivalenceMatrix(t *testing.T) {
	mm := MainMemoryConfig(CCA, 7)
	mm.Workload.Count = 120
	mm.Fault = testPlan()
	assertEquivalent(t, "faulted-mm-cca", mm, nil)

	dk := DiskConfig(EDFHP, 7)
	dk.Workload.Count = 100
	dk.Fault = testPlan()
	assertEquivalent(t, "faulted-disk-edfhp", dk, nil)
}

// TestFaultCountersPropagate: injected faults surface in the run metrics.
func TestFaultCountersPropagate(t *testing.T) {
	cfg := DiskConfig(CCA, 2)
	cfg.Workload.Count = 200
	cfg.Fault = fault.Plan{DiskErrorProb: 0.3, RetryLimit: 2, RetryBackoff: time.Millisecond, AbortProb: 0.02}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RetriedIO == 0 {
		t.Fatal("30% disk error rate produced no IO retries")
	}
	if res.FaultAborts == 0 {
		t.Fatal("spurious-abort probability produced no fault aborts")
	}
	if res.Restarts < res.FaultAborts {
		t.Fatalf("Restarts %d < FaultAborts %d (every fault abort restarts)", res.Restarts, res.FaultAborts)
	}
}

// TestFaultPlanValidatedByConfig: Config.Validate surfaces plan errors.
func TestFaultPlanValidatedByConfig(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Fault.AbortProb = 2
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "AbortProb") {
		t.Fatalf("invalid plan not rejected: %v", err)
	}
}

// --- admission control ------------------------------------------------

func TestAdmissionValidate(t *testing.T) {
	if err := (AdmissionConfig{}).validate(); err != nil {
		t.Fatalf("zero admission config rejected: %v", err)
	}
	if err := (AdmissionConfig{Mode: RejectNewest}).validate(); err == nil {
		t.Fatal("reject-newest without MaxLive accepted")
	}
	if err := (AdmissionConfig{Mode: "bogus"}).validate(); err == nil {
		t.Fatal("unknown admission mode accepted")
	}
	if err := (AdmissionConfig{Mode: RejectInfeasible, MaxLive: -1}).validate(); err == nil {
		t.Fatal("negative MaxLive accepted")
	}
	if err := (AdmissionConfig{Mode: RejectInfeasible}).validate(); err != nil {
		t.Fatalf("reject-infeasible without cap rejected: %v", err)
	}
}

// TestRejectNewestShedsLoad: past saturation with a tiny live-set cap, the
// controller sheds arrivals and the books still balance.
func TestRejectNewestShedsLoad(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 300
	cfg.Workload.ArrivalRate = 40 // ~3x the 12.5 tr/s capacity
	cfg.Admission = AdmissionConfig{Mode: RejectNewest, MaxLive: 4}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("overloaded run rejected nothing")
	}
	if res.Admitted == 0 {
		t.Fatal("overloaded run admitted nothing")
	}
	if res.Admitted+res.Rejected != cfg.Workload.Count {
		t.Fatalf("admitted %d + rejected %d != %d arrivals", res.Admitted, res.Rejected, cfg.Workload.Count)
	}
	if res.Committed+res.Rejected != cfg.Workload.Count {
		t.Fatalf("committed %d + rejected %d != %d (soft deadlines: every admitted txn commits)",
			res.Committed, res.Rejected, cfg.Workload.Count)
	}
	if res.MissPercent <= 0 {
		t.Fatal("rejections must count as misses")
	}
}

// TestRejectInfeasibleShedsOnlyUnderOverload: at a trivial load nothing is
// infeasible; past saturation the feasibility test sheds.
func TestRejectInfeasibleShedsOnlyUnderOverload(t *testing.T) {
	light := MainMemoryConfig(CCA, 1)
	light.Workload.Count = 100
	light.Workload.ArrivalRate = 1
	light.Admission = AdmissionConfig{Mode: RejectInfeasible}
	e, err := New(light)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("light load rejected %d transactions", res.Rejected)
	}
	if res.Admitted != 100 {
		t.Fatalf("light load admitted %d, want all 100", res.Admitted)
	}

	heavy := light
	heavy.Workload.ArrivalRate = 50
	heavy.Workload.Count = 300
	e, err = New(heavy)
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("4x-overload run shed nothing under reject-infeasible")
	}
}

// TestAdmissionDeterministic: the controller's decisions replay exactly.
func TestAdmissionDeterministic(t *testing.T) {
	cfg := MainMemoryConfig(EDFHP, 9)
	cfg.Workload.Count = 200
	cfg.Workload.ArrivalRate = 30
	cfg.Admission = AdmissionConfig{Mode: RejectInfeasible, MaxLive: 32}
	aSched, aRes := runForEquivalence(t, cfg, nil)
	bSched, bRes := runForEquivalence(t, cfg, nil)
	if !reflect.DeepEqual(aSched, bSched) || !reflect.DeepEqual(aRes, bRes) {
		t.Fatal("admission-controlled run not deterministic")
	}
	assertEquivalent(t, "admission-edfhp", cfg, nil)
}

// --- watchdog ---------------------------------------------------------

// TestWatchdogDetectsStalledCalendar: a pathological event that reschedules
// itself at the same instant must trip the watchdog with a diagnostic dump
// instead of spinning until the global event guard.
func TestWatchdogDetectsStalledCalendar(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 20
	cfg.WatchdogBudget = 64
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spin func()
	spin = func() { e.sim.At(e.sim.Now(), spin) }
	e.sim.At(0, spin)
	_, err = e.Run()
	if err == nil {
		t.Fatal("stalled calendar did not fail")
	}
	if !strings.Contains(err.Error(), "watchdog") || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("watchdog error lacks diagnostics: %v", err)
	}
	if !strings.Contains(err.Error(), "budget 64") {
		t.Fatalf("watchdog error lacks the budget: %v", err)
	}
}

// TestWatchdogDisabled: a negative budget turns the watchdog off — the
// stall then runs into the global event guard instead.
func TestWatchdogDisabled(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 5
	cfg.WatchdogBudget = -1
	cfg.maxEvents = 3000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spin func()
	spin = func() { e.sim.At(e.sim.Now(), spin) }
	e.sim.At(0, spin)
	_, err = e.Run()
	if err == nil {
		t.Fatal("stall with disabled watchdog did not hit the event guard")
	}
	if strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("disabled watchdog still fired: %v", err)
	}
}

// TestStepToWatchdogPastEventGuard: the event guard bounds an unbounded Run
// only. A bounded step that meets a same-instant livelock keeps firing
// through the one loop until the watchdog stops it, instead of handing the
// rest of the calendar to an unguarded RunUntil.
func TestStepToWatchdogPastEventGuard(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.maxEvents = 10
	cfg.WatchdogBudget = 64
	e, err := NewShardEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.StartRun()
	var spin func()
	spin = func() { e.sim.At(e.sim.Now(), spin) }
	e.sim.At(0, spin)
	done := make(chan error, 1)
	go func() { done <- e.StepTo(sim.Time(time.Second)) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "core: watchdog") || !strings.Contains(err.Error(), "budget 64") {
			t.Fatalf("StepTo returned %v, want the watchdog error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StepTo spun past the event guard without the watchdog")
	}
}

// TestWatchdogQuietOnHealthyRuns: the default budget never trips on
// legitimate workloads (which do have same-instant bursts).
func TestWatchdogQuietOnHealthyRuns(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 4)
	cfg.Workload.Count = 300
	cfg.Workload.ArrivalRate = 12 // near saturation: big same-instant cascades
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

// --- oracle -----------------------------------------------------------

func TestEnableOracleIdempotent(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := e.EnableOracle()
	if o == nil || e.EnableOracle() != o {
		t.Fatal("EnableOracle not idempotent")
	}
}

// TestOracleCleanRuns: the oracle stays silent on correct runs of every
// policy family it checks, with every fault class active.
func TestOracleCleanRuns(t *testing.T) {
	for _, p := range []PolicyKind{CCA, EDFHP, LSFHP, EDFWP, EDFCR, AED, PCP, FCFS} {
		cfg := MainMemoryConfig(p, 3)
		cfg.Workload.Count = 150
		cfg.Workload.ArrivalRate = 10
		cfg.Fault = fault.Plan{CPUJitterProb: 0.2, AbortProb: 0.01}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.EnableOracle()
		if _, err := e.Run(); err != nil {
			t.Fatalf("%v: oracle failed a correct run: %v", p, err)
		}
	}
	// Disk-resident too (IO interleavings are where Theorem 1 bites).
	cfg := DiskConfig(CCA, 3)
	cfg.Workload.Count = 120
	cfg.Fault = testPlan()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableOracle()
	if _, err := e.Run(); err != nil {
		t.Fatalf("disk CCA: oracle failed a correct run: %v", err)
	}
}

// TestOracleTheorem1: a lock wait under CCA is a violation; under a waiting
// policy it is business as usual.
func TestOracleTheorem1(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := e.EnableOracle()
	o.observe(trace.Event{Kind: trace.Block, Txn: 1, Other: 2, Item: 3})
	if o.err == nil || !strings.Contains(o.err.Error(), "Theorem 1") {
		t.Fatalf("CCA block not flagged: %v", o.err)
	}

	wp := MainMemoryConfig(EDFWP, 1)
	wp.Workload.Count = 10
	e, err = New(wp)
	if err != nil {
		t.Fatal(err)
	}
	o = e.EnableOracle()
	o.observe(trace.Event{Kind: trace.Block, Txn: 1, Other: 2, Item: 3})
	if o.err != nil {
		t.Fatalf("EDF-WP block wrongly flagged: %v", o.err)
	}
}

// TestOracleLemma1: a wound from a lower priority onto a higher one is a
// reversal for the High Priority family.
func TestOracleLemma1(t *testing.T) {
	cfg := MainMemoryConfig(EDFHP, 1)
	cfg.Workload.Count = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := e.EnableOracle()
	o.observe(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 1, OtherPriority: 5})
	if o.err == nil || !strings.Contains(o.err.Error(), "Lemma 1") {
		t.Fatalf("priority reversal not flagged: %v", o.err)
	}

	// EDF-CR may legitimately wound upward; the oracle must not check it.
	cr := MainMemoryConfig(EDFCR, 1)
	cr.Workload.Count = 10
	e, err = New(cr)
	if err != nil {
		t.Fatal(err)
	}
	o = e.EnableOracle()
	o.observe(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 1, OtherPriority: 5})
	if o.err != nil {
		t.Fatalf("EDF-CR upward wound wrongly flagged: %v", o.err)
	}
}

// TestOracleTheorem2: same-instant wound edges that form a cycle are a
// circular abort; an acyclic chain is fine.
func TestOracleTheorem2(t *testing.T) {
	mk := func() *Oracle {
		cfg := MainMemoryConfig(EDFHP, 1)
		cfg.Workload.Count = 10
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.EnableOracle()
	}
	o := mk()
	o.observe(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 5, OtherPriority: 1})
	o.observe(trace.Event{Kind: trace.Wound, Txn: 2, Other: 1, Priority: 5, OtherPriority: 1})
	o.flushInstant()
	if o.err == nil || !strings.Contains(o.err.Error(), "Theorem 2") {
		t.Fatalf("wound cycle not flagged: %v", o.err)
	}

	o = mk()
	o.observe(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 5, OtherPriority: 1})
	o.observe(trace.Event{Kind: trace.Wound, Txn: 2, Other: 3, Priority: 5, OtherPriority: 1})
	o.flushInstant()
	if o.err != nil {
		t.Fatalf("acyclic wound chain wrongly flagged: %v", o.err)
	}
}

// TestOracleFailsRunFast: a violation observed mid-run aborts Run with the
// oracle's diagnosis instead of completing with corrupt results.
func TestOracleFailsRunFast(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 50
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableOracle()
	// Forge a violating event before the run starts; the run loop must
	// fail on its first step.
	e.emit(trace.Event{Kind: trace.Block, Txn: 0, Other: -1, Item: 0})
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("run did not fail on oracle violation: %v", err)
	}
}

// TestOracleZeroPlanUnperturbed: enabling the oracle must not change the
// schedule or metrics of a run (it only observes).
func TestOracleZeroPlanUnperturbed(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 2)
	cfg.Workload.Count = 150
	_, plain := runForEquivalence(t, cfg, nil)

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableOracle()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, interface{}(res)) {
		t.Fatalf("oracle observation changed the metrics:\n%+v\n%+v", plain, res)
	}
}
