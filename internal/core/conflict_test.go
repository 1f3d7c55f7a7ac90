package core

// Equivalence suite for the scheduling fast paths: every run must be
// bit-identical — same per-transaction schedule (commit times, restarts,
// secondary dispatches) and same metrics — across the full 2×2 matrix of
// Config.NaiveConflictScan (incremental conflict index vs original full
// scans) × Config.NaiveDispatch (incremental memoised dispatch pass and
// pooled event calendar vs original re-evaluate-and-re-sort pass with
// allocate-per-event calendar). Every variant executes with CheckInvariants
// on, which additionally cross-checks the index against a brute-force
// recomputation and the ranked order against the stored priorities at every
// scheduling point.

import (
	"math/rand"
	"reflect"
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
	// oracle attaches the runtime safety oracle to every variant.
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

// assertEquivalent runs cfg through the full fast-path matrix — the fully
// incremental engine (reference), naive conflict scans, naive dispatch, and
// both naive — and requires bit-identical schedules and metrics everywhere.
// All four variants run with invariant checking on.
func assertEquivalent(t *testing.T, name string, cfg Config, wl *workload.Workload) {
	t.Helper()
	assertEquivalentOpts(t, name, cfg, wl, equivOpts{})
}

func assertEquivalentOpts(t *testing.T, name string, cfg Config, wl *workload.Workload, opts equivOpts) {
	t.Helper()
	ref := cfg
	ref.NaiveConflictScan = false
	ref.NaiveDispatch = false
	ref.CheckInvariants = true
	refSched, refRes := runEquivalence(t, ref, wl, opts)

	variants := []struct {
		label          string
		scan, dispatch bool
	}{
		{"naive-scan", true, false},
		{"naive-dispatch", false, true},
		{"naive-both", true, true},
	}
	for _, v := range variants {
		c := cfg
		c.NaiveConflictScan = v.scan
		c.NaiveDispatch = v.dispatch
		c.CheckInvariants = true
		sched, res := runEquivalence(t, c, wl, opts)
		if !reflect.DeepEqual(refSched, sched) {
			for i := range refSched {
				if refSched[i] != sched[i] {
					t.Errorf("%s: T%d diverges: incremental %+v, %s %+v", name, i, refSched[i], v.label, sched[i])
				}
			}
			t.Fatalf("%s: schedules diverge between incremental and %s engines", name, v.label)
		}
		if !reflect.DeepEqual(refRes, res) {
			t.Fatalf("%s: metrics diverge:\nincremental: %+v\n%s: %+v", name, refRes, v.label, res)
		}
	}
}

// TestConflictIndexEquivalenceGenerated covers the paper's generated
// workloads: main-memory and disk base configurations under CCA at several
// arrival rates and seeds (the paths that exercise PenaltyOfConflict and
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
// arrivals, near-zero slack) through both engines for a spread of policies.
func TestConflictIndexEquivalenceRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pols := Policies()
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		withIO := seed%2 == 0
		pol := pols[int(seed)%len(pols)]
		if pol == PCP && withIO {
			pol = CCA
		}
		wl := genRandomWorkload(rng, 40, 60, withIO)
		cfg := MainMemoryConfig(pol, seed)
		cfg.Workload = wl.Params
		assertEquivalent(t, "random-"+string(pol), cfg, wl)
	}
}
