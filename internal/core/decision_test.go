package core

// Decision-point tests: the paper's §6 notes its simulator omitted the
// effects of conditionally-unsafe/conditionally-conflicting transactions;
// this extension simulates them — a transaction's might-access set starts
// as the union of both branches and narrows when its decision point
// executes — and these tests pin the semantics down.

import (
	"testing"

	"repro/internal/txn"
	"repro/internal/workload"
)

// decisionWorkload hand-builds one branching transaction and one flat
// transaction that conflicts only with the NOT-taken branch.
func decisionWorkload() *workload.Workload {
	p := workload.BaseMainMemory()
	p.DBSize = 10
	p.Count = 2
	wl := &workload.Workload{Params: p}
	wl.Txns = []workload.Spec{
		{
			// T0 executes prefix {0,1} then branch A {2,3}; branch B
			// would have been {4,5}. Needs IO on the last prefix update
			// so there is an IO window right at the decision point.
			ID: 0, Arrival: 0, Deadline: 500 * msec,
			Items:         []txn.Item{0, 1, 2, 3},
			MightFull:     []txn.Item{0, 1, 2, 3, 4, 5},
			DecisionIndex: 1,
			Compute:       4 * msec,
			NeedsIO:       []bool{false, true, false, false},
		},
		{
			// T1 touches only item 4 — on T0's untaken branch B: it
			// conditionally conflicts with T0 before the decision and
			// does not conflict after it.
			ID: 1, Arrival: 1 * msec, Deadline: 1000 * msec,
			Items:   []txn.Item{4},
			Compute: 4 * msec,
		},
	}
	return wl
}

func decisionConfig(pol PolicyKind) Config {
	cfg := MainMemoryConfig(pol, 1)
	cfg.Workload.DBSize = 10
	cfg.Workload.DiskAccessProb = 0.1 // enable the disk model
	cfg.Workload.DiskAccessTime = 25 * msec
	cfg.CheckInvariants = true
	return cfg
}

// TestScenarioConditionalConflictBlocksSecondary: while T0 is before its
// decision point, CCA's IOwait-schedule must not admit T1 (conditional
// conflict counts as conflict, per the paper's IOwait-schedule pseudocode).
func TestScenarioConditionalConflictBlocksSecondary(t *testing.T) {
	e, res := runScenario(t, decisionConfig(CCA), decisionWorkload())
	// T0: item0 compute 0..4; item1 lock + IO 4..29 (T1 arrives at 1 but
	// might-sets overlap on {4}: CPU idles); item1 compute 29..33 —
	// decision point passes, might narrows to {0,1,2,3}; items 2,3 at
	// 33..41; commit 41. T1 runs 41..45.
	wantCommit(t, e, 0, 41*msec)
	wantCommit(t, e, 1, 45*msec)
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
}

// TestScenarioNarrowingAdmitsSecondary: with a later IO window (after the
// decision point), T1 becomes compatible and is admitted. Same pair of
// transactions, IO moved to the first post-decision update.
func TestScenarioNarrowingAdmitsSecondary(t *testing.T) {
	wl := decisionWorkload()
	wl.Txns[0].NeedsIO = []bool{false, false, true, false}
	e, res := runScenario(t, decisionConfig(CCA), wl)
	// T0: items 0,1 at 0..8 (decision passes at 8, might narrows);
	// item2 lock + IO 8..33 — during which T1 (now non-conflicting) runs
	// 8..12; T0 computes item2 33..37, item3 37..41.
	wantCommit(t, e, 1, 12*msec)
	wantCommit(t, e, 0, 41*msec)
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
}

// TestScenarioPessimisticAnalysisNeverAdmits: with PessimisticAnalysis the
// might-set never narrows, so even the post-decision IO window stays
// closed to T1 — the "too pessimistic" behaviour the paper criticises.
func TestScenarioPessimisticAnalysisNeverAdmits(t *testing.T) {
	wl := decisionWorkload()
	wl.Txns[0].NeedsIO = []bool{false, false, true, false}
	cfg := decisionConfig(CCA)
	cfg.PessimisticAnalysis = true
	e, res := runScenario(t, cfg, wl)
	// CPU idles during T0's IO (8..33); T1 only runs after T0 commits.
	wantCommit(t, e, 0, 41*msec)
	wantCommit(t, e, 1, 45*msec)
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
}

// TestDecisionRestartRestoresPessimism: a wounded branching transaction is
// back before its decision point, so its might-set must be the full union
// again.
func TestDecisionRestartRestoresPessimism(t *testing.T) {
	p := workload.BaseMainMemory()
	p.DBSize = 10
	p.Count = 2
	wl := &workload.Workload{Params: p}
	wl.Txns = []workload.Spec{
		{
			ID: 0, Arrival: 0, Deadline: 500 * msec,
			Items:         []txn.Item{0, 1, 2},
			MightFull:     []txn.Item{0, 1, 2, 4},
			DecisionIndex: 0,
			Compute:       4 * msec,
		},
		// Urgent conflicting transaction wounds T0 after its decision.
		{
			ID: 1, Arrival: 6 * msec, Deadline: 30 * msec,
			Items:   []txn.Item{1},
			Compute: 4 * msec,
		},
	}
	cfg := MainMemoryConfig(EDFHP, 1)
	cfg.Workload.DBSize = 10
	cfg.CheckInvariants = true
	e, err := NewWithWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	t0 := e.txns()[0]
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t0.restarts != 1 {
		t.Fatalf("T0 restarts = %d, want 1", t0.restarts)
	}
	// After the rerun T0 passed its decision again; its final might is
	// the narrowed set. The important part was mid-run and is enforced
	// by resetForRestart; spot-check the wiring end state:
	if !t0.might.contains(2) || t0.might.contains(4) {
		t.Fatalf("final might-set not narrowed: %v", t0.might)
	}
}

// TestDecisionWorkloadGeneration: generated branching types are well
// formed and instances pick both branches.
func TestDecisionWorkloadGeneration(t *testing.T) {
	p := workload.BaseMainMemory()
	p.DBSize = 300
	p.Count = 400
	p.DecisionPoints = true
	w := workload.MustGenerate(p, 3)
	branchy := 0
	sawDiffPaths := false
	paths := map[int]string{}
	for i := range w.Txns {
		s := &w.Txns[i]
		if len(s.MightFull) == 0 {
			continue
		}
		branchy++
		full := txn.NewSet(s.MightFull...)
		for _, it := range s.Items {
			if !full.Contains(it) {
				t.Fatalf("txn %d executes outside its might-set", i)
			}
		}
		if s.DecisionIndex < 0 || s.DecisionIndex >= len(s.Items) {
			t.Fatalf("txn %d decision index %d", i, s.DecisionIndex)
		}
		if len(s.MightFull) <= len(s.Items) {
			t.Fatalf("txn %d might-set no larger than its path", i)
		}
		key := ""
		for _, it := range s.Items {
			key += string(rune(it)) // cheap path fingerprint
		}
		if prev, ok := paths[s.Type]; ok && prev != key {
			sawDiffPaths = true
		}
		paths[s.Type] = key
	}
	if branchy < 300 {
		t.Fatalf("only %d branching instances of 400", branchy)
	}
	if !sawDiffPaths {
		t.Fatal("no type ever took two different branches")
	}
	// Type programs round-trip through the pre-analysis formalism.
	ty := w.Types[0]
	if len(ty.BranchA) > 0 {
		a, err := txn.Analyze(ty.Program("T0"))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Leaves("T0")) != 2 {
			t.Fatal("type program should have two leaves")
		}
	}
}

// TestDecisionWorkloadsDrainAllPolicies: generated branching workloads
// complete under every policy, with serializable histories.
func TestDecisionWorkloadsDrainAllPolicies(t *testing.T) {
	for _, pol := range Policies() {
		cfg := MainMemoryConfig(pol, 2)
		cfg.Workload.Count = 120
		cfg.Workload.ArrivalRate = 8
		cfg.Workload.DecisionPoints = true
		cfg.CheckInvariants = true
		cfg.RecordHistory = true
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Committed != 120 {
			t.Fatalf("%s: committed %d", pol, res.Committed)
		}
		if ok, cycle := e.History().Serializable(); !ok {
			t.Fatalf("%s: not serializable: %v", pol, cycle)
		}
	}
}

// TestDecisionDiskCCAvsPessimistic: on a disk-resident branching workload,
// pre-analysis narrowing must not be worse than lifetime pessimism (it
// opens IO windows to more transactions).
func TestDecisionDiskCCAvsPessimistic(t *testing.T) {
	run := func(pessimistic bool) float64 {
		var total float64
		for seed := int64(1); seed <= 5; seed++ {
			cfg := DiskConfig(CCA, seed)
			cfg.Workload.Count = 150
			cfg.Workload.ArrivalRate = 5
			cfg.Workload.DBSize = 120
			cfg.Workload.DecisionPoints = true
			cfg.PessimisticAnalysis = pessimistic
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			total += res.MeanLatenessMs
		}
		return total / 5
	}
	refined, pessimistic := run(false), run(true)
	t.Logf("mean lateness: refined=%.2fms pessimistic=%.2fms", refined, pessimistic)
	if refined > pessimistic*1.05+0.5 {
		t.Fatalf("pre-analysis narrowing hurt: %.2f vs %.2f", refined, pessimistic)
	}
}
