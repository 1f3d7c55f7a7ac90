package core

// The conflict-prediction policies: CCA-P and CCA-T.
//
// CCA keeps the paper's cost term w·penaltyOfConflict(T) static: every
// conflicting holder contributes its full effective service time, however
// rarely that type pair actually conflicts. CCA-P scales each holder's
// contribution by the observed conflict rate for the live (type, type)
// pair, read from an online predict.Table fed through the engine's
// DecisionObserver tap. CCA-T additionally tunes w itself with a
// deterministic seeded hill-climb (optionally ε-greedy) over commit-rate
// feedback windows.
//
// Determinism and equivalence:
//
//   - every extra penalty term is rounded to an integer time.Duration
//     before summation, so the sum is permutation-invariant: the order the
//     conflict index visits holders in cannot change a priority;
//   - with RateScale 0 the evaluation expression is literally CCA's, and
//     with Decay 0 the table retains nothing so every rate term is 0 —
//     either degenerate knob reduces CCA-P bit-identically to stock CCA
//     (the anchor theorem, pinned by the policy-cross equivalence suite);
//   - stats updates re-clock evaluation through the observer tap's
//     generation bump, so Staticness stays EvalConflictClocked: a priority
//     is provably unchanged while the clock and the generation stand still.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/predict"
	"repro/internal/stats"
)

// PredictConfig tunes the conflict-prediction layer of CCA-P and CCA-T.
// The zero value is valid: defaults are applied at policy construction
// (RateScale defaults to 1 and Decay to 0.5 only via DefaultPredictConfig —
// a literal zero RateScale/Decay is meaningful and means "off", which is
// what makes the degenerate-equivalence knobs expressible).
type PredictConfig struct {
	// RateScale scales the observed-conflict penalty term: each
	// conflicting holder contributes RateScale · rate(pair) · its base
	// penalty contribution, on top of the base penalty. 0 disables the
	// term (CCA-P then evaluates exactly like CCA).
	RateScale float64
	// Decay is the per-window statistics decay in [0, 1]
	// (predict.Config.Decay). 0 retains nothing — the other degenerate
	// knob.
	Decay float64
	// Window is the statistics bucket width in simulated time
	// (0 = predict.DefaultWindow).
	Window time.Duration
	// Windows is the statistics ring length (0 = predict.DefaultWindows).
	Windows int
	// FeedbackWindow is the number of terminal transactions per tuner
	// feedback window (CCA-T; 0 = 50).
	FeedbackWindow int
	// TunerOff freezes w at Config.PenaltyWeight (CCA-T then evaluates
	// exactly like CCA-P).
	TunerOff bool
	// TunerStep is the initial hill-climb step (0 = 0.25).
	TunerStep float64
	// TunerMin and TunerMax clamp the tuned w (both 0 = [0, 8]).
	TunerMin, TunerMax float64
	// Epsilon is the ε-greedy probability of re-randomising the climb
	// direction at a feedback window boundary, drawn from the run seed's
	// "cca-t" stream (0 = pure hill-climb, fully deterministic without
	// consuming randomness).
	Epsilon float64
}

// DefaultPredictConfig returns the standard prediction knobs: rate term on
// at scale 1, half-life-per-window decay, tuner bounds [0, 8].
func DefaultPredictConfig() PredictConfig {
	return PredictConfig{RateScale: 1, Decay: 0.5}
}

// Validate reports the first problem with the prediction configuration.
func (p PredictConfig) Validate() error {
	if p.RateScale < 0 || math.IsNaN(p.RateScale) || math.IsInf(p.RateScale, 0) {
		return fmt.Errorf("core: Predict.RateScale %v invalid", p.RateScale)
	}
	if p.Decay < 0 || p.Decay > 1 || math.IsNaN(p.Decay) {
		return fmt.Errorf("core: Predict.Decay %v outside [0, 1]", p.Decay)
	}
	if p.Window < 0 {
		return fmt.Errorf("core: Predict.Window %v < 0", p.Window)
	}
	if p.Windows < 0 || p.Windows > predict.MaxWindows {
		return fmt.Errorf("core: Predict.Windows %d outside [0, %d]", p.Windows, predict.MaxWindows)
	}
	if p.FeedbackWindow < 0 {
		return fmt.Errorf("core: Predict.FeedbackWindow %d < 0", p.FeedbackWindow)
	}
	if p.TunerStep < 0 || math.IsNaN(p.TunerStep) {
		return fmt.Errorf("core: Predict.TunerStep %v invalid", p.TunerStep)
	}
	if math.IsNaN(p.TunerMin) || math.IsNaN(p.TunerMax) || p.TunerMin > p.TunerMax {
		return fmt.Errorf("core: Predict tuner bounds [%v, %v] inverted", p.TunerMin, p.TunerMax)
	}
	if p.Epsilon < 0 || p.Epsilon > 1 || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("core: Predict.Epsilon %v outside [0, 1]", p.Epsilon)
	}
	return nil
}

// tableConfig derives the statistics-table geometry for a run config.
func (p PredictConfig) tableConfig(c *Config) predict.Config {
	return predict.Config{
		Types:   c.Workload.TxnTypes,
		Window:  p.Window,
		Windows: p.Windows,
		Decay:   p.Decay,
	}
}

// predictivePolicy is the engine-internal face of a stats-driven policy:
// the shard runner and the observability surface reach the table and the
// tuner through it.
type predictivePolicy interface {
	predictTable() *predict.Table
	setPredictView(*predict.Table)
	predictState() (w float64, steps int, traj []float64)
}

// ccapPolicy is CCA-P; with a tuner attached (ccatPolicy) it is CCA-T.
type ccapPolicy struct {
	kind   PolicyKind
	weight float64
	pc     PredictConfig
	// table receives this engine's own decisions (via the observer tap).
	table *predict.Table
	// view, when non-nil, is the read side used by Evaluate instead of
	// table — the shard runner installs the canonical cross-shard merge at
	// epoch boundaries. nil (single-kernel runs) reads the live table.
	view *predict.Table
}

func newCCAPPolicy(c Config) *ccapPolicy {
	return &ccapPolicy{
		kind:   CCAP,
		weight: c.PenaltyWeight,
		pc:     c.Predict,
		table:  predict.New(c.Predict.tableConfig(&c)),
	}
}

func (p *ccapPolicy) Kind() PolicyKind { return p.kind }

func (p *ccapPolicy) readView() *predict.Table {
	if p.view != nil {
		return p.view
	}
	return p.table
}

// Evaluate is CCA's priority with the prediction term folded into the
// penalty: -(deadline + w·(penalty + predictPenalty)). With RateScale 0
// the expression reduces to CCA's, float-for-float.
func (p *ccapPolicy) Evaluate(e *Engine, t *Txn) float64 {
	pen := e.PenaltyOfConflict(t)
	if p.pc.RateScale != 0 {
		pen += e.predictPenalty(t, p.readView(), p.pc.RateScale)
	}
	return -(ms(t.Spec.Deadline) + p.weight*ms(pen))
}

// Wounds is unconditionally true — the CCA family never lock-waits
// (Theorem 1 applies to CCA-P/CCA-T verbatim: the conflict-resolution rule
// is untouched, only the priority assignment changes).
func (p *ccapPolicy) Wounds(*Engine, *Txn, *Txn) bool { return true }

func (p *ccapPolicy) FiltersIOWait() bool { return true }
func (p *ccapPolicy) Inherits() bool      { return false }

// Staticness: the priority moves only with (clock, generation) — the base
// penalty by CCA's argument, the prediction term because every stats
// update and view install re-clocks the generation through the observer
// tap. Both terms sum over the conflicting P-list members only, so with
// none the value is the constant -deadline whatever w the tuner has reached,
// and predict.Table's decayed reads are pure.
func (p *ccapPolicy) Staticness() Staticness { return EvalConflictClocked }

// --- observer feed ------------------------------------------------------

func (p *ccapPolicy) ObserveWound(e *Engine, wounder, victim *Txn) {
	p.table.Record(predict.Wound, wounder.Spec.Type, victim.Spec.Type, e.Now())
}

func (p *ccapPolicy) ObserveBlock(e *Engine, requester, holder *Txn) {
	p.table.Record(predict.Block, requester.Spec.Type, holder.Spec.Type, e.Now())
}

// ObserveRestart files system-caused aborts (faults, IO failures,
// deadline drops re-running) on the victim's diagonal — they carry no pair
// information but still mark the type as churn-prone. Wound restarts were
// already counted pairwise by ObserveWound.
func (p *ccapPolicy) ObserveRestart(e *Engine, victim *Txn) {
	p.table.Record(predict.Restart, victim.Spec.Type, victim.Spec.Type, e.Now())
}

// ObserveTerminal credits a commit against every partially executed peer
// the committer coexisted with — the conflict-rate denominator: "this pair
// was live together and did not conflict". Peers are read from the P-list,
// which the committer has already left.
func (p *ccapPolicy) ObserveTerminal(e *Engine, t *Txn, committed, missed bool) {
	if !committed {
		return
	}
	now := e.Now()
	for _, peer := range e.ci.plist {
		p.table.Record(predict.Commit, t.Spec.Type, peer.Spec.Type, now)
	}
}

// --- predictive plumbing ------------------------------------------------

func (p *ccapPolicy) predictTable() *predict.Table    { return p.table }
func (p *ccapPolicy) setPredictView(v *predict.Table) { p.view = v }
func (p *ccapPolicy) predictState() (float64, int, []float64) {
	return p.weight, 0, nil
}

// ccatPolicy is CCA-T: CCA-P plus the self-tuning w. At every
// FeedbackWindow terminal transactions it scores the window's on-time
// commit rate and hill-climbs w: keep direction while the score does not
// degrade (growing the step), reverse and halve it when it does, with an
// optional ε-greedy random re-direction drawn from the run seed's "cca-t"
// stream. All state advances only on terminal events, so the w trajectory
// is a deterministic function of (seed, workload, config).
type ccatPolicy struct {
	ccapPolicy
	rng  *stats.Stream
	step float64
	dir  float64

	count, hits int
	lastScore   float64
	haveScore   bool

	steps int
	traj  []float64
}

// trajCap bounds the retained trajectory on unbounded (wall-clock) runs;
// steps keeps counting past it.
const trajCap = 1 << 16

func newCCATPolicy(c Config) *ccatPolicy {
	p := &ccatPolicy{
		ccapPolicy: *newCCAPPolicy(c),
		rng:        stats.NewSource(c.Seed).Stream("cca-t"),
		dir:        1,
		step:       c.Predict.TunerStep,
	}
	p.kind = CCAT
	if p.step == 0 {
		p.step = 0.25
	}
	return p
}

// tunerBounds returns the effective clamp on w.
func (p *ccatPolicy) tunerBounds() (float64, float64) {
	lo, hi := p.pc.TunerMin, p.pc.TunerMax
	if lo == 0 && hi == 0 {
		hi = 8
	}
	return lo, hi
}

func (p *ccatPolicy) feedbackWindow() int {
	if p.pc.FeedbackWindow > 0 {
		return p.pc.FeedbackWindow
	}
	return 50
}

func (p *ccatPolicy) ObserveTerminal(e *Engine, t *Txn, committed, missed bool) {
	p.ccapPolicy.ObserveTerminal(e, t, committed, missed)
	if p.pc.TunerOff {
		return
	}
	p.count++
	if committed && !missed {
		p.hits++
	}
	if p.count < p.feedbackWindow() {
		return
	}
	score := float64(p.hits) / float64(p.count)
	p.count, p.hits = 0, 0

	move := true
	if p.haveScore {
		switch {
		case score < p.lastScore:
			// The last move hurt: back off and probe finer.
			p.dir = -p.dir
			p.step = math.Max(p.step*0.5, p.initialStep()/4)
		case score > p.lastScore:
			// The last move helped: press on a little harder.
			p.step = math.Min(p.step*1.5, p.initialStep()*4)
		default:
			// An exact tie carries no gradient information; moving anyway
			// would drift w on pure noise (a perfect-commit plateau would
			// walk it to the clamp). Hold, unless ε-greedy exploration is
			// on.
			move = false
		}
	}
	p.lastScore, p.haveScore = score, true
	if p.pc.Epsilon > 0 && p.rng.Float64() < p.pc.Epsilon {
		if p.rng.Float64() < 0.5 {
			p.dir = 1
		} else {
			p.dir = -1
		}
		move = true
	}
	if !move {
		return
	}
	lo, hi := p.tunerBounds()
	p.weight = math.Min(hi, math.Max(lo, p.weight+p.dir*p.step))
	p.steps++
	if len(p.traj) < trajCap {
		p.traj = append(p.traj, p.weight)
	}
}

func (p *ccatPolicy) initialStep() float64 {
	if p.pc.TunerStep > 0 {
		return p.pc.TunerStep
	}
	return 0.25
}

func (p *ccatPolicy) predictState() (float64, int, []float64) {
	return p.weight, p.steps, p.traj
}

// --- engine-side prediction term ---------------------------------------

// predictPenalty is the observed-conflict extension of PenaltyOfConflict:
// for every partially executed holder conflicting with t it adds
// scale · rate(t.Type, holder.Type) · (the holder's base penalty
// contribution), each term rounded to an integer Duration so the sum does
// not depend on the order the index walk visits holders in.
func (e *Engine) predictPenalty(t *Txn, tab *predict.Table, scale float64) time.Duration {
	ci := e.ci
	ci.stamp++
	var sum time.Duration
	visit := func(p *Txn) {
		if p == t || p.seenStamp == ci.stamp {
			return
		}
		p.seenStamp = ci.stamp
		sum += e.predictTerm(t, p, tab, scale)
	}
	for _, it := range t.mightItems {
		ci.items[int(it)].has.each(visit)
	}
	return sum
}

// predictTerm is one holder's contribution to the prediction penalty.
func (e *Engine) predictTerm(t, p *Txn, tab *predict.Table, scale float64) time.Duration {
	r := tab.Rate(t.Spec.Type, p.Spec.Type, time.Duration(e.sim.Now()))
	if r == 0 {
		return 0
	}
	contrib := e.serviceNow(p)
	if e.cfg.PenaltyIncludesRollback {
		contrib += e.rollbackCost(p)
	}
	return time.Duration(scale * r * float64(contrib))
}

// --- observability ------------------------------------------------------

// PredictSnapshot is the observability view of a prediction policy's
// state, surfaced through /metrics.
type PredictSnapshot struct {
	// Policy is the owning policy kind (CCAP or CCAT).
	Policy PolicyKind `json:"policy"`
	// W is the current penalty weight (fixed for CCA-P; tuned for CCA-T).
	W float64 `json:"w"`
	// TunerSteps counts tuner adjustments so far (0 for CCA-P).
	TunerSteps int `json:"tuner_steps"`
	// ActivePairs is the number of type pairs with live statistics.
	ActivePairs int `json:"active_pairs"`
	// TopPairs are the highest-conflict-rate pairs (bounded).
	TopPairs []predict.PairRate `json:"top_pairs,omitempty"`
	// WTrajectory is the tuned-w history (CCA-T; bounded, test/debug use).
	WTrajectory []float64 `json:"-"`
	// Table is a deep copy of the local statistics table, so sharded
	// surfaces can merge snapshots exactly. Not serialized.
	Table *predict.Table `json:"-"`
}

// predictTopPairs bounds the per-snapshot pair list.
const predictTopPairs = 8

// PredictTable returns the policy's local statistics table, or nil when
// the policy keeps none. The shard runner reads it between lockstep rounds
// (the engine is quiescent then); no other cross-goroutine access is safe.
func (e *Engine) PredictTable() *predict.Table {
	if p, ok := e.policy.(predictivePolicy); ok {
		return p.predictTable()
	}
	return nil
}

// SetPredictView installs the read-side statistics table used by Evaluate
// (nil reverts to the policy's own table). The shard runner installs the
// canonical cross-shard merge at every epoch boundary; the view must not
// be mutated after installation. Installing a view re-clocks evaluation.
func (e *Engine) SetPredictView(v *predict.Table) {
	if p, ok := e.policy.(predictivePolicy); ok {
		p.setPredictView(v)
		e.reclockEval()
	}
}

// PredictSnapshot returns the prediction layer's observability snapshot,
// or ok=false when the policy keeps no statistics. Must run on the
// engine's goroutine (the service wraps it in a driver call).
func (e *Engine) PredictSnapshot() (PredictSnapshot, bool) {
	p, ok := e.policy.(predictivePolicy)
	if !ok {
		return PredictSnapshot{}, false
	}
	w, steps, traj := p.predictState()
	now := e.Now()
	tab := p.predictTable()
	s := PredictSnapshot{
		Policy:      e.policy.Kind(),
		W:           w,
		TunerSteps:  steps,
		ActivePairs: tab.ActivePairs(now),
		TopPairs:    tab.TopPairs(now, predictTopPairs),
		Table:       tab.Clone(),
	}
	if len(traj) > 0 {
		s.WTrajectory = append([]float64(nil), traj...)
	}
	return s, true
}
