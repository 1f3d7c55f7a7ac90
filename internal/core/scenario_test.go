package core

// Scenario tests: tiny hand-built workloads with exact expected timelines,
// exercising each scheduling mechanism in isolation. Times are in ms.

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/workload"
)

const msec = time.Millisecond

// spec builds a transaction Spec with 4 ms compute per update.
type specIn struct {
	arrival  time.Duration
	deadline time.Duration
	items    []txn.Item
	needsIO  []bool
	compute  time.Duration
}

func buildWorkload(dbSize int, ins []specIn) *workload.Workload {
	p := workload.BaseMainMemory()
	p.DBSize = dbSize
	p.Count = len(ins)
	wl := &workload.Workload{Params: p}
	for i, in := range ins {
		c := in.compute
		if c == 0 {
			c = 4 * msec
		}
		wl.Txns = append(wl.Txns, workload.Spec{
			ID:       i,
			Arrival:  in.arrival,
			Deadline: in.deadline,
			Items:    in.items,
			Compute:  c,
			NeedsIO:  in.needsIO,
		})
	}
	return wl
}

func scenarioConfig(policy PolicyKind, dbSize int, hasIO bool) Config {
	cfg := MainMemoryConfig(policy, 1)
	cfg.Workload.DBSize = dbSize
	cfg.CheckInvariants = true
	if hasIO {
		cfg.Workload.DiskAccessProb = 0.1 // enables the disk model
		cfg.Workload.DiskAccessTime = 25 * msec
		cfg.AbortCost = 5 * msec
	}
	return cfg
}

func runScenario(t *testing.T, cfg Config, wl *workload.Workload) (*Engine, metrics.Result) {
	t.Helper()
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func commitTime(e *Engine, id int) time.Duration {
	return time.Duration(e.all[id].finish)
}

func wantCommit(t *testing.T, e *Engine, id int, want time.Duration) {
	t.Helper()
	if got := commitTime(e, id); got != want {
		t.Errorf("T%d committed at %v, want %v", id, got, want)
	}
}

// --- main memory --------------------------------------------------------

// TestScenarioSingleTxn: one transaction, two updates of 4 ms: commit at 8 ms.
func TestScenarioSingleTxn(t *testing.T) {
	wl := buildWorkload(10, []specIn{
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0, 1}},
	})
	e, res := runScenario(t, scenarioConfig(EDFHP, 10, false), wl)
	wantCommit(t, e, 0, 8*msec)
	if res.MissPercent != 0 || res.Restarts != 0 {
		t.Errorf("result = %+v", res)
	}
	if res.CPUUtilization != 1.0 {
		t.Errorf("CPU utilisation = %v, want 1.0", res.CPUUtilization)
	}
}

// TestScenarioMissedDeadline: the deadline is before the static execution
// time; soft real-time still commits and records the lateness.
func TestScenarioMissedDeadline(t *testing.T) {
	wl := buildWorkload(10, []specIn{
		{arrival: 0, deadline: 5 * msec, items: []txn.Item{0, 1}},
	})
	e, res := runScenario(t, scenarioConfig(EDFHP, 10, false), wl)
	wantCommit(t, e, 0, 8*msec)
	if res.MissPercent != 100 {
		t.Errorf("MissPercent = %v, want 100", res.MissPercent)
	}
	if res.MeanLatenessMs != 3 {
		t.Errorf("MeanLatenessMs = %v, want 3", res.MeanLatenessMs)
	}
}

// TestScenarioPreemptionDisjoint: an urgent disjoint transaction preempts;
// the preempted one resumes where it stopped. Identical under EDF-HP and
// CCA (penalty is zero for disjoint transactions).
func TestScenarioPreemptionDisjoint(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 1000 * msec, items: []txn.Item{0, 1, 2}},
		{arrival: 2 * msec, deadline: 20 * msec, items: []txn.Item{3, 4}},
	}
	for _, pol := range []PolicyKind{EDFHP, CCA} {
		e, res := runScenario(t, scenarioConfig(pol, 10, false), buildWorkload(10, ins))
		// T1 runs 2-10; T0 resumes its interrupted update (2 of 4 ms
		// remaining) and finishes 3 updates at 20.
		wantCommit(t, e, 1, 10*msec)
		wantCommit(t, e, 0, 20*msec)
		if res.Restarts != 0 {
			t.Errorf("%s: restarts = %d, want 0", pol, res.Restarts)
		}
		if res.MissPercent != 0 {
			t.Errorf("%s: miss%% = %v", pol, res.MissPercent)
		}
	}
}

// TestScenarioWoundMM: under EDF-HP an urgent conflicting arrival wounds
// the running transaction; the 4 ms rollback precedes its first update.
func TestScenarioWoundMM(t *testing.T) {
	wl := buildWorkload(10, []specIn{
		{arrival: 0, deadline: 1000 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 20 * msec, items: []txn.Item{0}},
	})
	e, res := runScenario(t, scenarioConfig(EDFHP, 10, false), wl)
	// T1 preempts at 2, wounds T0 (rollback 2→6), computes 6→10.
	wantCommit(t, e, 1, 10*msec)
	// T0 restarts from scratch: 10→18.
	wantCommit(t, e, 0, 18*msec)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	if e.all[0].restarts != 1 || e.all[1].restarts != 0 {
		t.Error("per-transaction restart counts wrong")
	}
	if res.CPUUtilization != 1.0 {
		t.Errorf("CPU utilisation = %v, want 1.0 (2+4+4+8 of 18ms)", res.CPUUtilization)
	}
}

// TestScenarioCCAAvoidsWound is the cost-conscious decision in miniature:
// deadlines nearly equal, so the penalty of wounding the partially executed
// holder outweighs the newcomer's slightly earlier deadline. EDF-HP wounds;
// CCA lets the holder finish and both meet their deadlines with no restart.
func TestScenarioCCAAvoidsWound(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 30 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 28 * msec, items: []txn.Item{0}},
	}

	eEDF, rEDF := runScenario(t, scenarioConfig(EDFHP, 10, false), buildWorkload(10, ins))
	// EDF-HP: T1 (deadline 28 < 30) preempts and wounds T0 at 2 ms.
	wantCommit(t, eEDF, 1, 10*msec)
	wantCommit(t, eEDF, 0, 18*msec)
	if rEDF.Restarts != 1 {
		t.Fatalf("EDF-HP restarts = %d, want 1", rEDF.Restarts)
	}

	eCCA, rCCA := runScenario(t, scenarioConfig(CCA, 10, false), buildWorkload(10, ins))
	// CCA at 2 ms: penalty(T1) = service(2) + rollback(4) = 6, so
	// Pr(T1) = -(28+6) < Pr(T0) = -30: T0 keeps the CPU.
	wantCommit(t, eCCA, 0, 8*msec)
	wantCommit(t, eCCA, 1, 12*msec)
	if rCCA.Restarts != 0 {
		t.Fatalf("CCA restarts = %d, want 0", rCCA.Restarts)
	}
	if rCCA.MissPercent != 0 || rEDF.MissPercent != 0 {
		t.Error("both schedules should meet all deadlines here")
	}
}

// TestScenarioCCAWoundsWhenWorthIt: with a much more urgent newcomer the
// penalty does not outweigh the deadline and CCA wounds exactly like EDF-HP.
func TestScenarioCCAWoundsWhenWorthIt(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 1000 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 20 * msec, items: []txn.Item{0}},
	}
	e, res := runScenario(t, scenarioConfig(CCA, 10, false), buildWorkload(10, ins))
	wantCommit(t, e, 1, 10*msec)
	wantCommit(t, e, 0, 18*msec)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
}

// TestScenarioPenaltyWeightZeroIsEDF: w=0 makes CCA take EDF-HP's decision
// in the avoid-wound scenario.
func TestScenarioPenaltyWeightZero(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 30 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 28 * msec, items: []txn.Item{0}},
	}
	cfg := scenarioConfig(CCA, 10, false)
	cfg.PenaltyWeight = 0
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	wantCommit(t, e, 1, 10*msec)
	wantCommit(t, e, 0, 18*msec)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (w=0 must behave like EDF-HP)", res.Restarts)
	}
}

// TestScenarioPenaltyPseudocodeVariant: with penaltyIncludesRollback=false
// the penalty is only the victim's effective service time (the paper's
// pseudocode); penalty 2 < deadline gap... still large enough here to block
// the wound (28+2 > 30 is false: -(30) > -(30)? exactly equal deadline+2).
func TestScenarioPenaltyPseudocodeVariant(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 31 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 28 * msec, items: []txn.Item{0}},
	}
	cfg := scenarioConfig(CCA, 10, false)
	cfg.penaltyIncludesRollback = false
	// penalty(T1) = service(T0) = 2ms -> Pr(T1) = -30 > Pr(T0) = -31:
	// T1 wounds despite the penalty.
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	wantCommit(t, e, 1, 10*msec)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
	// With rollback included the penalty is 6ms and the wound is avoided.
	cfg.penaltyIncludesRollback = true
	e2, res2 := runScenario(t, cfg, buildWorkload(10, ins))
	wantCommit(t, e2, 0, 8*msec)
	if res2.Restarts != 0 {
		t.Errorf("restarts = %d, want 0", res2.Restarts)
	}
}

// TestScenarioLSF: least slack first picks the transaction with less slack
// even when its deadline is later.
func TestScenarioLSF(t *testing.T) {
	ins := []specIn{
		// T0: deadline 100, work 8 -> slack 92 at t=0.
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0, 1}},
		// T1: deadline 120 (later!), work 10x4=40 -> slack at 2: 120-2-40=78.
		{arrival: 2 * msec, deadline: 120 * msec, items: []txn.Item{2, 3, 4, 5, 6, 7, 8, 9, 2, 3}[:10:10], compute: 4 * msec},
	}
	// Make T1's items valid and distinct.
	ins[1].items = []txn.Item{2, 3, 4, 5, 6, 7, 8, 9}
	e, res := runScenario(t, scenarioConfig(LSFHP, 10, false), buildWorkload(10, ins))
	// T1 has less slack at its arrival: 120-2-32=86 vs T0's 100-2-6=92,
	// so T1 preempts, runs 2..34; T0 resumes and finishes at 40.
	wantCommit(t, e, 1, 34*msec)
	wantCommit(t, e, 0, 40*msec)
	if res.Restarts != 0 {
		t.Errorf("restarts = %d", res.Restarts)
	}
}

// TestScenarioFCFSNoPreemption: FCFS never preempts the earliest arrival.
func TestScenarioFCFSNoPreemption(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 1000 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 10 * msec, items: []txn.Item{0}},
	}
	e, res := runScenario(t, scenarioConfig(FCFS, 10, false), buildWorkload(10, ins))
	wantCommit(t, e, 0, 8*msec)
	wantCommit(t, e, 1, 12*msec)
	if res.Restarts != 0 || res.MissPercent != 50 {
		t.Errorf("result = %+v, want no restarts and a 50%% miss (T1 late)", res)
	}
}

// TestScenarioWPDeadlock: EDF-WP never aborts on conflict, so opposite-order
// access deadlocks; the engine detects the cycle and aborts the
// lower-priority member.
func TestScenarioWPDeadlock(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 1000 * msec, items: []txn.Item{0, 1}},
		{arrival: 2 * msec, deadline: 100 * msec, items: []txn.Item{1, 0}},
	}
	_, res := runScenario(t, scenarioConfig(EDFWP, 10, false), buildWorkload(10, ins))
	if res.Deadlocks != 1 {
		t.Fatalf("deadlocks = %d, want 1", res.Deadlocks)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (the deadlock victim)", res.Restarts)
	}
	if res.Committed != 2 {
		t.Fatal("both transactions must still commit")
	}
}

// --- disk resident ------------------------------------------------------

// TestScenarioDiskSingle: lock, 25 ms IO, 4 ms compute, second update
// without IO: commit at 33 ms.
func TestScenarioDiskSingle(t *testing.T) {
	wl := buildWorkload(10, []specIn{
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0, 1}, needsIO: []bool{true, false}},
	})
	e, res := runScenario(t, scenarioConfig(EDFHP, 10, true), wl)
	wantCommit(t, e, 0, 33*msec)
	if res.DiskUtilization <= 0.7 || res.DiskUtilization >= 0.8 {
		t.Errorf("disk utilisation = %v, want 25/33", res.DiskUtilization)
	}
}

// TestScenarioNoncontributingExecution is the paper's §3.3.2 IO scenario.
// T0 (urgent) blocks on IO; T1 conflicts with T0's data set.
//
// EDF-HP runs T1 during the wait — a noncontributing execution that is
// wounded when T0 resumes. CCA's IOwait-schedule leaves the CPU idle, T0
// finishes earlier, and nobody restarts.
func TestScenarioNoncontributingExecution(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 60 * msec, items: []txn.Item{0, 1}, needsIO: []bool{true, false}},
		{arrival: 1 * msec, deadline: 500 * msec, items: []txn.Item{1, 2}, needsIO: []bool{false, false}, compute: 20 * msec},
	}

	eEDF, rEDF := runScenario(t, scenarioConfig(EDFHP, 10, true), buildWorkload(10, ins))
	// EDF-HP: T1 runs 1..25 (locks 1, then 2 at 21); T0 resumes at 25,
	// computes item0 25..29, then wounds T1 on item 1 (rollback 29..34),
	// computes 34..38.
	wantCommit(t, eEDF, 0, 38*msec)
	// T1 restarts from scratch at 38: two 20 ms updates -> 78.
	wantCommit(t, eEDF, 1, 78*msec)
	if rEDF.Restarts != 1 || rEDF.NoncontributingAborts != 1 {
		t.Fatalf("EDF-HP: restarts=%d noncontrib=%d, want 1/1", rEDF.Restarts, rEDF.NoncontributingAborts)
	}

	eCCA, rCCA := runScenario(t, scenarioConfig(CCA, 10, true), buildWorkload(10, ins))
	// CCA: T1 conflicts with the partially executed T0 (might-sets
	// intersect on item 1), so the CPU idles 1..25; T0 finishes at 33;
	// T1 runs 33..73.
	wantCommit(t, eCCA, 0, 33*msec)
	wantCommit(t, eCCA, 1, 73*msec)
	if rCCA.Restarts != 0 || rCCA.NoncontributingAborts != 0 {
		t.Fatalf("CCA: restarts=%d noncontrib=%d, want 0/0", rCCA.Restarts, rCCA.NoncontributingAborts)
	}
}

// TestScenarioSecondaryRunsWhenCompatible: CCA does use the IO wait when a
// ready transaction is compatible with every partially executed one.
func TestScenarioSecondaryRunsWhenCompatible(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 60 * msec, items: []txn.Item{0, 1}, needsIO: []bool{true, false}},
		{arrival: 1 * msec, deadline: 500 * msec, items: []txn.Item{5, 6}, needsIO: []bool{false, false}},
	}
	e, res := runScenario(t, scenarioConfig(CCA, 10, true), buildWorkload(10, ins))
	// T1 (disjoint) runs 1..9 during T0's IO.
	wantCommit(t, e, 1, 9*msec)
	wantCommit(t, e, 0, 33*msec)
	if res.Restarts != 0 {
		t.Errorf("restarts = %d", res.Restarts)
	}
	if res.CPUUtilization <= 0.3 {
		t.Errorf("CPU should overlap with IO; utilisation = %v", res.CPUUtilization)
	}
}

// TestScenarioLockWaitEDFHP: under EDF-HP a requester blocks when the
// conflicting holder has higher priority (here: the holder is IO-waiting
// with an earlier deadline), and is granted the lock when the holder
// commits.
func TestScenarioLockWaitEDFHP(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0}, needsIO: []bool{true}},
		{arrival: 1 * msec, deadline: 200 * msec, items: []txn.Item{0}, needsIO: []bool{false}},
	}
	e, res := runScenario(t, scenarioConfig(EDFHP, 10, true), buildWorkload(10, ins))
	// T0: IO 0..25, compute 25..29, commit 29. T1 dispatched at 1,
	// blocks on item 0 (holder has higher priority), granted at 29,
	// computes 29..33.
	wantCommit(t, e, 0, 29*msec)
	wantCommit(t, e, 1, 33*msec)
	if res.LockWaits != 1 {
		t.Errorf("LockWaits = %d, want 1", res.LockWaits)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0 (wait, not wound)", res.Restarts)
	}
}

// TestScenarioAbortDuringIOService: a transaction wounded while its disk
// access is in service keeps the disk busy and restarts only when the disk
// releases (paper §5).
func TestScenarioAbortDuringIOService(t *testing.T) {
	ins := []specIn{
		// T1 will be mid-IO when the urgent conflicting T0... order by
		// arrival: T0 arrives first and starts IO; T1 wounds it.
		{arrival: 0, deadline: 1000 * msec, items: []txn.Item{0}, needsIO: []bool{true}},
		{arrival: 5 * msec, deadline: 40 * msec, items: []txn.Item{0}, needsIO: []bool{false}},
	}
	e, res := runScenario(t, scenarioConfig(EDFHP, 10, true), buildWorkload(10, ins))
	// T0 starts IO at 0 (in service until 25). T1 arrives at 5; T0 is
	// the globally top transaction? No: deadline 40 < 1000, so T1 is
	// top, is dispatched, requests item 0, wounds T0 (rollback 5..10),
	// computes 10..14 and commits. T0's restart waits for the disk
	// release at 25, then runs IO 25..50, computes 50..54.
	wantCommit(t, e, 1, 14*msec)
	wantCommit(t, e, 0, 54*msec)
	if res.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Restarts)
	}
}

// TestScenarioReadLocksShare (extension): two readers of the same item do
// not conflict; a writer behind them waits or wounds per policy.
func TestScenarioReadLocksShare(t *testing.T) {
	p := workload.BaseMainMemory()
	p.DBSize = 10
	p.Count = 2
	wl := &workload.Workload{Params: p}
	wl.Txns = []workload.Spec{
		{ID: 0, Arrival: 0, Deadline: 1000 * msec, Items: []txn.Item{0, 1}, Compute: 4 * msec, Reads: []bool{true, false}},
		{ID: 1, Arrival: 2 * msec, Deadline: 50 * msec, Items: []txn.Item{0}, Compute: 4 * msec, Reads: []bool{true}},
	}
	cfg := scenarioConfig(EDFHP, 10, false)
	e, res := runScenario(t, cfg, wl)
	// T1 preempts at 2 and read-locks item 0 alongside T0's read lock:
	// no conflict, no wound.
	wantCommit(t, e, 1, 6*msec)
	wantCommit(t, e, 0, 12*msec)
	if res.Restarts != 0 || res.LockWaits != 0 {
		t.Errorf("shared read should not conflict: %+v", res)
	}
}

// TestScenarioProportionalRecovery (extension): recovery cost proportional
// to executed work raises CCA's penalty and blocks a wound that the fixed
// cost would allow.
func TestScenarioProportionalRecovery(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 34 * msec, items: []txn.Item{0, 1}},
		{arrival: 6 * msec, deadline: 28 * msec, items: []txn.Item{0}},
	}
	// Fixed cost: penalty = 6 (service) + 4 = 10; Pr(T1) = -38 < -34:
	// avoided even with fixed cost. Shrink: use weight to discriminate.
	cfg := scenarioConfig(CCA, 10, false)
	cfg.PenaltyWeight = 0.3
	// penalty*w = 3 -> Pr(T1) = -31 > Pr(T0) = -34: wound happens.
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	if res.Restarts != 1 {
		t.Fatalf("fixed-cost restarts = %d, want 1", res.Restarts)
	}
	_ = e

	cfg.RecoveryProportionalFactor = 2 // rollback = 4ms + 2*service(6ms) = 16ms
	// penalty*w = (6+16)*0.3 = 6.6 -> Pr(T1) = -34.6 < -34: avoided.
	e2, res2 := runScenario(t, cfg, buildWorkload(10, ins))
	wantCommit(t, e2, 0, 8*msec)
	if res2.Restarts != 0 {
		t.Fatalf("proportional-cost restarts = %d, want 0", res2.Restarts)
	}
}

// TestScenarioMultiprocessor (extension): two CPUs run disjoint
// transactions in parallel.
func TestScenarioMultiprocessor(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0, 1}},
		{arrival: 0, deadline: 200 * msec, items: []txn.Item{2, 3}},
	}
	cfg := scenarioConfig(EDFHP, 10, false)
	cfg.NumCPUs = 2
	e, res := runScenario(t, cfg, buildWorkload(10, ins))
	wantCommit(t, e, 0, 8*msec)
	wantCommit(t, e, 1, 8*msec)
	if res.CPUUtilization != 1.0 {
		t.Errorf("2-CPU utilisation = %v, want 1.0", res.CPUUtilization)
	}
}

// TestScenarioMultiDisk (extension): items stripe across disks, so two
// disjoint transactions' accesses proceed in parallel on two disks while a
// single disk serialises them.
func TestScenarioMultiDisk(t *testing.T) {
	ins := []specIn{
		{arrival: 0, deadline: 100 * msec, items: []txn.Item{0}, needsIO: []bool{true}},
		{arrival: 0, deadline: 200 * msec, items: []txn.Item{1}, needsIO: []bool{true}},
	}
	// One disk: T1's access queues behind T0's (0..25, 25..50).
	cfg1 := scenarioConfig(CCA, 10, true)
	e1, _ := runScenario(t, cfg1, buildWorkload(10, ins))
	wantCommit(t, e1, 0, 29*msec)
	wantCommit(t, e1, 1, 54*msec)

	// Two disks: items 0 and 1 live on different disks; both accesses run
	// 0..25 in parallel; CPU then serves T0 25..29 and T1 29..33.
	cfg2 := scenarioConfig(CCA, 10, true)
	cfg2.NumDisks = 2
	e2, res2 := runScenario(t, cfg2, buildWorkload(10, ins))
	wantCommit(t, e2, 0, 29*msec)
	wantCommit(t, e2, 1, 33*msec)
	if res2.DiskUtilization <= 0 {
		t.Error("disk utilisation not recorded for multi-disk")
	}
}

// TestScenarioCriticality (extension): a higher-criticality transaction
// outranks an earlier deadline.
func TestScenarioCriticality(t *testing.T) {
	p := workload.BaseMainMemory()
	p.DBSize = 10
	p.Count = 2
	wl := &workload.Workload{Params: p}
	wl.Txns = []workload.Spec{
		{ID: 0, Arrival: 0, Deadline: 1000 * msec, Items: []txn.Item{0}, Compute: 4 * msec, Criticality: 1},
		{ID: 1, Arrival: 1 * msec, Deadline: 10 * msec, Items: []txn.Item{1}, Compute: 4 * msec, Criticality: 0},
	}
	e, _ := runScenario(t, scenarioConfig(EDFHP, 10, false), wl)
	// T1's deadline is far earlier but its criticality class is lower:
	// T0 is not preempted.
	wantCommit(t, e, 0, 4*msec)
	wantCommit(t, e, 1, 8*msec)
}
