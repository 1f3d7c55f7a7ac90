package core

// Tests for the conflict-prediction policies (CCA-P, CCA-T): the anchor
// degenerate-equivalence theorem against stock CCA, the fast-path
// equivalence matrix for the non-degenerate configurations, the runtime
// oracle + serializability checker on random faulted runs, the decision
// tap's contract, and the tuner-convergence statistical regression.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
)

// predictOn returns the standard non-degenerate prediction knobs for tests.
func predictOn() PredictConfig {
	return PredictConfig{RateScale: 1, Decay: 0.5}
}

// TestPredictDegenerateEquivalence is the anchor theorem: with any
// degenerate knob — RateScale 0 (prediction term off) or Decay 0 (stats
// retain nothing), plus tunerOff for CCA-T — the prediction policies must
// be bit-identical to stock CCA: same schedule, same metrics, with the
// per-scheduling-point reference checks on.
func TestPredictDegenerateEquivalence(t *testing.T) {
	degenerate := []struct {
		name   string
		policy PolicyKind
		pc     PredictConfig
	}{
		{"ccap-ratescale0", CCAP, PredictConfig{RateScale: 0, Decay: 0.5}},
		{"ccap-decay0", CCAP, PredictConfig{RateScale: 1, Decay: 0}},
		{"ccat-tuneroff-ratescale0", CCAT, PredictConfig{RateScale: 0, Decay: 0.5, tunerOff: true}},
		{"ccat-tuneroff-decay0", CCAT, PredictConfig{RateScale: 1, Decay: 0, tunerOff: true}},
	}
	bases := []struct {
		name string
		cfg  Config
	}{}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := MainMemoryConfig(CCA, seed)
		cfg.Workload.Count = 200
		cfg.Workload.ArrivalRate = 12
		bases = append(bases, struct {
			name string
			cfg  Config
		}{"mm", cfg})
	}
	disk := DiskConfig(CCA, 2)
	disk.Workload.Count = 100
	bases = append(bases, struct {
		name string
		cfg  Config
	}{"disk", disk})
	firm := MainMemoryConfig(CCA, 4)
	firm.Workload.Count = 200
	firm.Workload.ArrivalRate = 14
	firm.FirmDeadlines = true
	bases = append(bases, struct {
		name string
		cfg  Config
	}{"firm", firm})

	for _, base := range bases {
		ref := base.cfg
		ref.Policy = CCA
		ref.CheckInvariants = true
		refSched, refRes := runForEquivalence(t, ref, nil)
		for _, d := range degenerate {
			c := ref
			c.Policy = d.policy
			c.Predict = d.pc
			sched, res := runForEquivalence(t, c, nil)
			if !reflect.DeepEqual(refSched, sched) {
				t.Fatalf("%s/%s: schedule diverges from stock CCA", base.name, d.name)
			}
			if !reflect.DeepEqual(refRes, res) {
				t.Fatalf("%s/%s: metrics diverge from stock CCA", base.name, d.name)
			}
		}
	}
}

// TestPredictEquivalenceMatrix holds the non-degenerate prediction
// policies to the equivalence contract: live statistics, the per-term rate
// scaling, and the tuner must all reproduce the digests recorded when the
// naive scan/dispatch grid still ran beside them.
func TestPredictEquivalenceMatrix(t *testing.T) {
	for _, pol := range []PolicyKind{CCAP, CCAT} {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := MainMemoryConfig(pol, seed)
			cfg.Workload.Count = 250
			cfg.Workload.ArrivalRate = 14
			cfg.Predict = predictOn()
			cfg.Predict.FeedbackWindow = 20
			assertEquivalent(t, "predict-"+string(pol), cfg, nil)
		}
		cfg := DiskConfig(pol, 1)
		cfg.Workload.Count = 100
		cfg.Predict = predictOn()
		assertEquivalent(t, "predict-disk-"+string(pol), cfg, nil)

		firm := MainMemoryConfig(pol, 3)
		firm.Workload.Count = 200
		firm.Workload.ArrivalRate = 16
		firm.FirmDeadlines = true
		firm.Predict = predictOn()
		assertEquivalent(t, "predict-firm-"+string(pol), cfg, nil)

		mp := MainMemoryConfig(pol, 4)
		mp.Workload.Count = 200
		mp.Workload.ArrivalRate = 16
		mp.NumCPUs = 2
		mp.Predict = predictOn()
		assertEquivalent(t, "predict-mp-"+string(pol), mp, nil)
	}
}

// TestPredictOracleFaultedRuns: the runtime oracle (Theorem 1, Lemma 1,
// Theorem 2) and the conflict-serializability checker must pass on random
// faulted runs under both prediction policies — the priority assignment
// changed, the correctness results must not.
func TestPredictOracleFaultedRuns(t *testing.T) {
	for _, pol := range []PolicyKind{CCAP, CCAT} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := MainMemoryConfig(pol, seed)
			cfg.Workload.Count = 150
			cfg.Workload.ArrivalRate = 10
			cfg.Predict = predictOn()
			cfg.Predict.FeedbackWindow = 15
			cfg.Fault = fault.Plan{CPUJitterProb: 0.2, CPUJitterFactor: 2, AbortProb: 0.02}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.EnableOracle()
			if _, err := e.Run(); err != nil {
				t.Fatalf("%v seed %d: oracle failed a faulted run: %v", pol, seed, err)
			}
		}
		// Disk-resident with the full fault plan: IO interleavings are
		// where Theorem 1 bites.
		cfg := DiskConfig(pol, 5)
		cfg.Workload.Count = 100
		cfg.Predict = predictOn()
		cfg.Fault = testPlan()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.EnableOracle()
		if _, err := e.Run(); err != nil {
			t.Fatalf("%v disk: oracle failed a faulted run: %v", pol, err)
		}
	}
}

// TestPredictRandomFaultedSerializable replays adversarial random
// workloads (clustered items, shared locks, near-zero slack) under both
// prediction policies with history recording and checks conflict
// serializability of every run.
func TestPredictRandomFaultedSerializable(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		pol := CCAP
		if seed%2 == 0 {
			pol = CCAT
		}
		rng := rand.New(rand.NewSource(seed))
		wl := genRandomWorkload(rng, 40, 60, seed%3 == 0)
		cfg := MainMemoryConfig(pol, seed)
		cfg.Workload = wl.Params
		cfg.Predict = predictOn()
		cfg.Fault = fault.Plan{CPUJitterProb: 0.3, CPUJitterFactor: 2, AbortProb: 0.05}
		cfg.RecordHistory = true
		cfg.CheckInvariants = true
		e, err := NewWithWorkload(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("%v seed %d: %v", pol, seed, err)
		}
		if ok, cycle := e.History().Serializable(); !ok {
			t.Fatalf("%v seed %d: history not conflict serializable: cycle %v", pol, seed, cycle)
		}
	}
}

// TestPredictStatsFeed sanity-checks the tap→table plumbing: a contended
// CCA-P run must accumulate live pair statistics, and its snapshot must
// expose them. The config needs two properties: parallel CPUs so commits
// actually see partially-executed peers (a single-CPU main-memory CCA run
// is near-serial and records almost nothing), and a stats ring wide enough
// that the records from the busy phase are still inside the window span
// when the post-drain snapshot is taken.
func TestPredictStatsFeed(t *testing.T) {
	cfg := MainMemoryConfig(CCAP, 1)
	cfg.Workload.Count = 400
	cfg.Workload.ArrivalRate = 12
	cfg.NumCPUs = 2
	cfg.AbortCost = 40 * time.Millisecond
	cfg.RecoveryProportionalFactor = 2
	cfg.Predict = PredictConfig{
		RateScale: 1,
		Decay:     0.9,
		window:    5 * time.Second,
		windows:   32,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	snap, ok := e.PredictSnapshot()
	if !ok {
		t.Fatal("CCAP engine reports no predict snapshot")
	}
	if snap.Policy != CCAP || snap.W != 1 || snap.TunerSteps != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.ActivePairs == 0 || len(snap.TopPairs) == 0 {
		t.Fatalf("contended run accumulated no pair statistics: %+v", snap)
	}
	if snap.Table == nil {
		t.Fatal("snapshot carries no table clone")
	}
	// Non-predictive policies expose nothing.
	cca, err := New(MainMemoryConfig(CCA, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cca.PredictSnapshot(); ok {
		t.Fatal("stock CCA reports a predict snapshot")
	}
	if cca.PredictTable() != nil {
		t.Fatal("stock CCA reports a predict table")
	}
}

// recordingObserver counts decision-tap deliveries.
type recordingObserver struct {
	wounds, blocks, restarts, terminals, commits int
}

func (o *recordingObserver) observeWound(*Engine, *Txn, *Txn) { o.wounds++ }
func (o *recordingObserver) observeBlock(*Engine, *Txn, *Txn) { o.blocks++ }
func (o *recordingObserver) observeRestart(*Engine, *Txn)     { o.restarts++ }
func (o *recordingObserver) observeTerminal(_ *Engine, _ *Txn, committed, _ bool) {
	o.terminals++
	if committed {
		o.commits++
	}
}

// TestDecisionObserverDelivery: an explicitly attached observer sees every
// decision class, consistent with the run's own counters, and under a
// waiting policy it sees blocks.
func TestDecisionObserverDelivery(t *testing.T) {
	cfg := MainMemoryConfig(CCA, 1)
	cfg.Workload.Count = 250
	cfg.Workload.ArrivalRate = 14
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	e.setDecisionObserver(obs)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if obs.restarts != res.Restarts {
		t.Fatalf("observer saw %d restarts, run counted %d", obs.restarts, res.Restarts)
	}
	if obs.commits != res.Committed {
		t.Fatalf("observer saw %d commits, run counted %d", obs.commits, res.Committed)
	}
	if obs.wounds == 0 || obs.wounds != obs.restarts {
		t.Fatalf("CCA: %d wounds vs %d restarts (every restart is a wound here)", obs.wounds, obs.restarts)
	}
	if obs.blocks != 0 {
		t.Fatalf("CCA observed %d blocks (Theorem 1)", obs.blocks)
	}

	cfg.Policy = EDFWP
	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs = &recordingObserver{}
	e.setDecisionObserver(obs)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.blocks == 0 {
		t.Fatal("EDF-WP observed no blocks")
	}
}

// TestObserverAttachmentNeutral: attaching an inert observer must not
// change the schedule — notifications re-clock evaluation, and the
// staticness contract says a re-evaluation recomputes identical values.
func TestObserverAttachmentNeutral(t *testing.T) {
	for _, pol := range []PolicyKind{CCA, EDFHP, LSFHP} {
		cfg := MainMemoryConfig(pol, 2)
		cfg.Workload.Count = 200
		cfg.Workload.ArrivalRate = 12
		cfg.CheckInvariants = true
		refSched, refRes := runForEquivalence(t, cfg, nil)

		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.setDecisionObserver(&recordingObserver{})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		sched := make([]txnOutcome, len(e.all))
		for i, tx := range e.all {
			sched[i] = txnOutcome{State: tx.state, Finish: time.Duration(tx.finish), Restarts: tx.restarts, Secondary: tx.ranAsSecondary}
		}
		if !reflect.DeepEqual(refSched, sched) || !reflect.DeepEqual(refRes, res) {
			t.Fatalf("%v: attaching an inert observer changed the run", pol)
		}
	}
}

// tunerTrajectory runs the CCA-T convergence workload and returns the w
// trajectory and the result.
func tunerTrajectory(t *testing.T, seed int64) ([]float64, interface{}) {
	t.Helper()
	cfg := tunerConvergenceConfig(seed)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := e.PredictSnapshot()
	if !ok {
		t.Fatal("no predict snapshot")
	}
	return snap.WTrajectory, res
}

// tunerConvergenceConfig is a fixed-seed high-contention workload with a
// known-better penalty weight: two CPUs (parallel partially-executed
// holders), an expensive recovery regime (large abort cost plus
// recovery-proportional rollback — §6's "very attractive" case for CCA),
// and overload. Sweeping w by hand gives a steep monotone gradient (seed
// average: 83% missed at w=0 down to 37% at w=4), so w*≈4 and the w=0
// starting point is known-bad. The tuner must climb out of it and hold a
// band around the known-better region.
func tunerConvergenceConfig(seed int64) Config {
	cfg := MainMemoryConfig(CCAT, seed)
	cfg.Workload.Count = 6000
	cfg.Workload.ArrivalRate = 12
	cfg.NumCPUs = 2
	cfg.PenaltyWeight = 0 // deliberately bad starting point
	cfg.AbortCost = 40 * time.Millisecond
	cfg.RecoveryProportionalFactor = 2
	cfg.Predict = PredictConfig{
		RateScale:      1,
		Decay:          0.5,
		FeedbackWindow: 100,
		TunerStep:      0.5,
		TunerMax:       8,
	}
	return cfg
}

// TestTunerConvergenceRegression is the statistical regression harness for
// the self-tuning weight: from the known-bad w=0 the tuned weight must (a)
// leave the degenerate starting point within a bounded number of feedback
// windows, (b) spend the tail of the run inside the tolerance band around
// the known-better region, and (c) produce an identical trajectory on a
// re-run with the same seed regardless of GOMAXPROCS.
func TestTunerConvergenceRegression(t *testing.T) {
	traj, _ := tunerTrajectory(t, 11)
	if len(traj) < 40 {
		t.Fatalf("only %d feedback windows; workload too small for a regression", len(traj))
	}
	// (a) Bounded escape: within the first 20 windows the weight must have
	// moved off the degenerate w=0.
	escaped := false
	for _, w := range traj[:20] {
		if w >= 0.25 {
			escaped = true
			break
		}
	}
	if !escaped {
		t.Fatalf("tuner never left w=0 in the first 20 windows: %v", traj[:20])
	}
	// (b) Tail band: over the last third of the run the tuned weight stays
	// in the tolerance band around the known-better region (positive,
	// bounded — i.e. it neither collapses back to EDF nor pegs the clamp).
	tail := traj[len(traj)-len(traj)/3:]
	const bandLo, bandHi = 1.0, 6.0
	for i, w := range tail {
		if w < bandLo || w > bandHi {
			t.Fatalf("tail window %d: w=%v outside tolerance band [%v, %v]\ntail: %v", i, w, bandLo, bandHi, tail)
		}
	}
	// The tail must average clearly above the starting point, in the
	// neighbourhood of the hand-swept optimum w*≈4.
	var sum float64
	for _, w := range tail {
		sum += w
	}
	if mean := sum / float64(len(tail)); mean < 2.0 {
		t.Fatalf("tail mean w=%v has not converged toward the known-better region\ntail: %v", mean, tail)
	}

	// (c) Determinism: identical seed → identical trajectory, on 1 and
	// many procs.
	prev := runtime.GOMAXPROCS(1)
	traj1, res1 := tunerTrajectory(t, 11)
	runtime.GOMAXPROCS(4)
	traj4, res4 := tunerTrajectory(t, 11)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(traj, traj1) || !reflect.DeepEqual(traj, traj4) {
		t.Fatal("w trajectory is not deterministic across re-runs / GOMAXPROCS")
	}
	if !reflect.DeepEqual(res1, res4) {
		t.Fatal("results differ across GOMAXPROCS")
	}
}

// TestTunerEpsilonDeterministic: the ε-greedy variant draws from the run
// seed's named stream, so it is just as reproducible.
func TestTunerEpsilonDeterministic(t *testing.T) {
	run := func() []float64 {
		cfg := tunerConvergenceConfig(7)
		cfg.Workload.Count = 1500
		cfg.Predict.Epsilon = 0.2
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		snap, _ := e.PredictSnapshot()
		return snap.WTrajectory
	}
	a, b := run(), run()
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("ε-greedy trajectories differ (len %d vs %d)", len(a), len(b))
	}
}

// setDecisionObserver installs the decision tap (nil detaches it). A
// policy that itself implements decisionObserver is attached automatically
// at engine construction; installing an explicit observer replaces that.
func (e *Engine) setDecisionObserver(o decisionObserver) {
	e.obs = o
	e.reclockEval()
}
