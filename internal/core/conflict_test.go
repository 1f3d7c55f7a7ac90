package core

// Equivalence suite for the scheduling fast paths: every cell runs the one
// engine with CheckInvariants on — which cross-checks the conflict index
// against a brute-force recomputation, every stored priority against a fresh
// evaluation and every index penalty against the full scan at every
// scheduling point (verifyPriorities) — and must reproduce the schedule
// (commit times, restarts, secondary dispatches) and metrics digest recorded
// when a naive second engine still existed to agree with (digest_test.go).

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// txnOutcome is the schedule-visible fate of one transaction.
type txnOutcome struct {
	State     State
	Finish    time.Duration
	Restarts  int
	Secondary bool
}

// equivOpts widens an equivalence run beyond the plain Run-to-completion.
type equivOpts struct {
	// oracle attaches the runtime safety oracle.
	oracle bool
	// until, when non-zero, steps the run to that instant instead of to
	// completion and compares the raw run counters there — for workloads
	// holding transactions that never finish.
	until time.Duration
}

func runForEquivalence(t *testing.T, cfg Config, wl *workload.Workload) ([]txnOutcome, interface{}) {
	t.Helper()
	return runEquivalence(t, cfg, wl, equivOpts{})
}

func runEquivalence(t *testing.T, cfg Config, wl *workload.Workload, opts equivOpts) ([]txnOutcome, interface{}) {
	t.Helper()
	var (
		e   *Engine
		err error
	)
	if wl != nil {
		e, err = NewWithWorkload(cfg, wl)
	} else {
		e, err = New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if opts.oracle {
		e.EnableOracle()
	}
	var res interface{}
	if opts.until > 0 {
		e.StartRun()
		if err := e.StepTo(sim.Time(opts.until)); err != nil {
			t.Fatal(err)
		}
		res = e.RunSnapshot()
	} else if res, err = e.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]txnOutcome, len(e.all))
	for i, tx := range e.all {
		out[i] = txnOutcome{
			State:     tx.state,
			Finish:    time.Duration(tx.finish),
			Restarts:  tx.restarts,
			Secondary: tx.ranAsSecondary,
		}
	}
	return out, res
}

// assertEquivalent runs cfg with invariant checking on and requires the
// recorded digest of its schedule and metrics.
func assertEquivalent(t *testing.T, name string, cfg Config, wl *workload.Workload) {
	t.Helper()
	assertEquivalentOpts(t, name, cfg, wl, equivOpts{})
}

func assertEquivalentOpts(t *testing.T, name string, cfg Config, wl *workload.Workload, opts equivOpts) {
	t.Helper()
	cfg.CheckInvariants = true
	sched, res := runEquivalence(t, cfg, wl, opts)
	checkDigest(t, name, sched, res)
}

// TestConflictIndexEquivalenceGenerated covers the paper's generated
// workloads: main-memory and disk base configurations under CCA at several
// arrival rates and seeds (the paths that exercise penaltyOfConflict and
// the IOwait-schedule filter continuously).
func TestConflictIndexEquivalenceGenerated(t *testing.T) {
	for _, rate := range []float64{5, 10, 15} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := MainMemoryConfig(CCA, seed)
			cfg.Workload.Count = 250
			cfg.Workload.ArrivalRate = rate
			assertEquivalent(t, "mm-cca", cfg, nil)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := DiskConfig(CCA, seed)
		cfg.Workload.Count = 120
		assertEquivalent(t, "disk-cca", cfg, nil)
	}
}

// TestConflictIndexEquivalenceAllPolicies runs every policy on the base
// workload: the index is maintained engine-wide (the P-list statistic uses
// it for every policy), so every policy must stay bit-identical too.
func TestConflictIndexEquivalenceAllPolicies(t *testing.T) {
	for _, pol := range Policies() {
		cfg := MainMemoryConfig(pol, 2)
		cfg.Workload.Count = 150
		cfg.Workload.ArrivalRate = 10
		assertEquivalent(t, "policy-"+string(pol), cfg, nil)
	}
}

// TestConflictIndexEquivalenceDecisionPoints covers might-set narrowing at
// decision points and re-widening on restart, in both the narrowing and
// the pessimistic-analysis modes.
func TestConflictIndexEquivalenceDecisionPoints(t *testing.T) {
	for _, pessimistic := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := MainMemoryConfig(CCA, seed)
			cfg.Workload.Count = 200
			cfg.Workload.ArrivalRate = 12
			cfg.Workload.DecisionPoints = true
			cfg.PessimisticAnalysis = pessimistic
			assertEquivalent(t, "decision-points", cfg, nil)
		}
	}
}

// TestConflictIndexEquivalenceFirmAndMP covers departure paths beyond
// commit: firm-deadline drops, and the multiprocessor + multi-disk
// configuration where the IOwait filter also constrains chosen peers.
func TestConflictIndexEquivalenceFirmAndMP(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 3)
	cfg.Workload.Count = 200
	cfg.Workload.ArrivalRate = 14
	cfg.FirmDeadlines = true
	assertEquivalent(t, "firm", cfg, nil)

	cfg = DiskConfig(CCA, 4)
	cfg.Workload.Count = 120
	cfg.NumCPUs = 2
	cfg.NumDisks = 2
	assertEquivalent(t, "mp", cfg, nil)
}

// TestConflictIndexEquivalenceRandomWorkloads replays the adversarial
// random-workload generator (clustered items, reads, criticalities, bursty
// arrivals, near-zero slack) for a spread of policies. The seed-to-policy
// pairs are those of the recorded digests; even seeds add disk IO, which PCP
// does not run with.
func TestConflictIndexEquivalenceRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		seed int64
		pol  PolicyKind
	}{
		{1, EDFHP}, {2, EDFWP}, {3, LSFHP}, {4, EDFCR}, {5, AED}, {6, CCA},
		{7, FCFS}, {10, CCA}, {11, EDFHP}, {12, EDFWP},
	} {
		rng := rand.New(rand.NewSource(c.seed))
		wl := genRandomWorkload(rng, 40, 60, c.seed%2 == 0)
		cfg := MainMemoryConfig(c.pol, c.seed)
		cfg.Workload = wl.Params
		assertEquivalent(t, "random-"+string(c.pol), cfg, wl)
	}
}
