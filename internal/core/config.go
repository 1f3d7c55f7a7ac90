package core

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/workload"
)

// PolicyKind names a scheduling algorithm.
type PolicyKind string

const (
	// CCA is the paper's cost conscious approach: priority
	// -(deadline + w·penaltyOfConflict), High Priority (wound) conflict
	// resolution, and conflict-aware IO-wait scheduling.
	CCA PolicyKind = "cca"
	// EDFHP is the Abbott/Garcia-Molina baseline: earliest deadline
	// first with High Priority conflict resolution.
	EDFHP PolicyKind = "edf-hp"
	// EDFWP is earliest deadline first with the Wait Promote
	// (priority-inheritance, non-abortive) conflict resolution; it can
	// deadlock, which the engine resolves by detection (extension).
	EDFWP PolicyKind = "edf-wp"
	// LSFHP is least slack first with High Priority conflict resolution
	// (extension baseline).
	LSFHP PolicyKind = "lsf-hp"
	// EDFCR is earliest deadline first with the Conditional Restart
	// conflict resolution of Abbott/Garcia-Molina, which the paper
	// discusses as a compromise between abort and wait: the requester
	// blocks if the holder can finish within the requester's slack and
	// wounds it otherwise. As the paper notes, it can deadlock; the
	// engine resolves detected cycles by abort.
	EDFCR PolicyKind = "edf-cr"
	// AED is Adaptive Earliest Deadline (Haritsa, Carey & Livny — the
	// paper's [HCL90]): a feedback mechanism partitions transactions
	// into a HIT group scheduled by EDF and a MISS group scheduled by
	// random priority, shrinking the HIT group under overload so that
	// EDF's past-saturation collapse is avoided (extension baseline;
	// conflicts resolved High Priority).
	AED PolicyKind = "aed"
	// PCP is the Priority Ceiling Protocol ([Sha88], [SRSC91]) — the
	// pure-wait extreme the paper contrasts with EDF-HP's pure abort
	// (§6). EDF priorities, ceiling-based admission with priority
	// inheritance; never aborts, never deadlocks (extension baseline).
	PCP PolicyKind = "pcp"
	// FCFS is first-come-first-served with High Priority conflict
	// resolution (non-real-time control).
	FCFS PolicyKind = "fcfs"
	// CCAP is CCA with a predicted-conflict penalty: each conflicting
	// holder's contribution is additionally scaled by the observed
	// conflict rate for the live type pair, from an online statistics
	// table fed by the engine's decision tap (extension; see
	// predict_policy.go). With Predict.RateScale 0 or Predict.Decay 0 it
	// is bit-identical to CCA.
	CCAP PolicyKind = "cca-p"
	// CCAT is CCAP with a self-tuning penalty weight: a deterministic
	// seeded hill-climb (optionally ε-greedy) adjusts w over commit-rate
	// feedback windows (extension). With Predict.tunerOff and a degenerate
	// statistics knob it is bit-identical to CCA.
	CCAT PolicyKind = "cca-t"
)

// Policies lists every implemented policy kind.
func Policies() []PolicyKind {
	return []PolicyKind{CCA, EDFHP, EDFWP, LSFHP, EDFCR, AED, PCP, FCFS, CCAP, CCAT}
}

// isCCAFamily reports whether k schedules with CCA's conflict-resolution
// rule (always wound, never lock-wait) — the policies Theorem 1 covers.
func isCCAFamily(k PolicyKind) bool { return k == CCA || k == CCAP || k == CCAT }

// Config fully describes one simulation run.
type Config struct {
	// Workload holds the workload generation parameters.
	Workload workload.Params
	// Policy selects the scheduling algorithm.
	Policy PolicyKind
	// PenaltyWeight is the paper's w: the weight of the penalty of
	// conflict in CCA's priority (Table 1/2: 1). 0 reduces CCA to EDF-HP
	// on a main-memory database.
	PenaltyWeight float64
	// penaltyIncludesRollback adds each victim's rollback time to the
	// penalty of conflict, matching §3.3.1's TL = Σ (rollback + exec);
	// disable to match the pseudocode, which adds only effective service.
	penaltyIncludesRollback bool
	// AbortCost is the fixed CPU time to roll back one transaction
	// (Table 1: 4 ms; Table 2: 5 ms).
	AbortCost time.Duration
	// RecoveryProportionalFactor, when > 0, makes rollback cost
	// AbortCost + factor × victim's effective service time (extension;
	// the paper's §6 notes CCA is "very attractive" in this regime).
	RecoveryProportionalFactor float64
	// NumCPUs is the number of processors (paper: 1; >1 is the paper's
	// §6 multiprocessor extension).
	NumCPUs int
	// DiskDiscipline selects the disk queue order (paper: FCFS).
	DiskDiscipline disk.Discipline
	// NumDisks is the number of disks; items are striped across them by
	// item number (paper: 1; >1 is an extension in the spirit of §6's
	// "more resources" multiprocessor discussion).
	NumDisks int
	// Seed selects the workload and is the run's only source of
	// randomness; identical configs with identical seeds replay exactly.
	Seed int64
	// FirmDeadlines switches from the paper's soft model (late
	// transactions still run to commit) to the firm model of Haritsa et
	// al., which the paper contrasts with (§1, §2): a transaction whose
	// deadline expires before commit is aborted and discarded, since a
	// late result has no value. Dropped transactions count as misses.
	FirmDeadlines bool
	// CheckInvariants enables expensive internal consistency checks at
	// every scheduling point (used by the test suite), among them the
	// reference check of every stored priority against a fresh evaluation.
	CheckInvariants bool
	// PessimisticAnalysis disables might-set narrowing at decision
	// points: the scheduler then treats every conditionally-conflicting
	// transaction as conflicting for its whole lifetime, which is the
	// "standard transaction pre-analysis" the paper calls "too
	// pessimistic to use in real-time systems" (§3). Only meaningful for
	// workloads generated with DecisionPoints.
	PessimisticAnalysis bool
	// RecordHistory records every data operation for post-run conflict
	// serializability checking (Engine.History).
	RecordHistory bool
	// maxEvents bounds an unbounded Run as a runaway guard; 0 picks a
	// generous default derived from the workload size. A bounded step
	// (StepTo, the wall-clock service) never consults it: it cannot run
	// past its bound, and same-instant churn is the watchdog's job.
	maxEvents uint64
	// Fault declares the deterministic fault plan of the run: disk latency
	// spikes, transient IO errors with bounded retry, brownout windows,
	// CPU jitter, spurious aborts and arrival bursts, all drawn from named
	// substreams of Seed. The zero value injects nothing and leaves the
	// run bit-identical to an unfaulted one.
	Fault fault.Plan
	// Admission configures the overload controller consulted at every
	// arrival; the zero value admits everything (the paper's model).
	Admission AdmissionConfig
	// WatchdogBudget bounds how many consecutive events the engine may
	// execute without the simulated clock advancing before the run fails
	// fast with a stall diagnostic, in every run mode: Run, StepTo and the
	// wall-clock service. 0 picks a generous default scaled to the number
	// of transactions (16 per transaction plus 1024; for a service, the
	// peak live set); < 0 disables the watchdog.
	WatchdogBudget int
	// Predict configures the conflict-prediction layer of the CCAP and
	// CCAT policies; ignored by every other policy. The zero value is
	// valid (and degenerate: RateScale 0 evaluates exactly like CCA).
	Predict PredictConfig
}

// MainMemoryConfig returns the paper's §4 base configuration (Table 1) for
// the given policy and seed.
func MainMemoryConfig(p PolicyKind, seed int64) Config {
	return Config{
		Workload:                workload.BaseMainMemory(),
		Policy:                  p,
		PenaltyWeight:           1,
		penaltyIncludesRollback: true,
		AbortCost:               4 * time.Millisecond,
		NumCPUs:                 1,
		Seed:                    seed,
	}
}

// DiskConfig returns the paper's §5 base configuration (Table 2).
func DiskConfig(p PolicyKind, seed int64) Config {
	c := MainMemoryConfig(p, seed)
	c.Workload = workload.BaseDisk()
	c.AbortCost = 5 * time.Millisecond
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	switch c.Policy {
	case CCA, EDFHP, EDFWP, LSFHP, EDFCR, AED, PCP, FCFS, CCAP, CCAT:
	default:
		return fmt.Errorf("core: unknown policy %q", c.Policy)
	}
	if err := c.Predict.validate(); err != nil {
		return err
	}
	if c.PenaltyWeight < 0 {
		return fmt.Errorf("core: PenaltyWeight %v < 0", c.PenaltyWeight)
	}
	if c.AbortCost < 0 {
		return fmt.Errorf("core: AbortCost %v < 0", c.AbortCost)
	}
	if c.RecoveryProportionalFactor < 0 {
		return fmt.Errorf("core: RecoveryProportionalFactor %v < 0", c.RecoveryProportionalFactor)
	}
	if c.NumCPUs <= 0 {
		return fmt.Errorf("core: NumCPUs %d <= 0", c.NumCPUs)
	}
	if c.NumDisks < 0 {
		return fmt.Errorf("core: NumDisks %d < 0", c.NumDisks)
	}
	if c.Policy == PCP && c.Workload.DiskAccessProb > 0 {
		// Classic priority-ceiling guarantees (single blocking, no
		// deadlock) assume critical sections do not self-suspend; disk
		// IO suspends lock holders mid-region, which lets two entered
		// holders ceiling-block each other. The published RTDB ceiling
		// protocols ([Sha88], [SRSC91]) are defined for main-memory
		// databases, and so is this implementation.
		return fmt.Errorf("core: PCP requires a main-memory-resident database (ceiling guarantees assume no self-suspension)")
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	return nil
}

// eventGuard returns the runaway guard for a run over count transactions.
func (c Config) eventGuard(count int) uint64 {
	if c.maxEvents > 0 {
		return c.maxEvents
	}
	// Generous: every transaction could restart many times; each attempt
	// touches every item with a lock, an IO and a compute event.
	per := uint64(c.Workload.UpdatesMean*8+16) * 64
	return uint64(count)*per + 4096
}
