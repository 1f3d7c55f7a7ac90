// Package rtdbs is a Go implementation of the real-time transaction
// scheduling system of Hong, Johnson and Chakravarthy, "Real-Time
// Transaction Scheduling: A Cost Conscious Approach" (UF-CIS-TR-92-043,
// 1992 / SIGMOD 1993).
//
// The paper's contribution — the Cost Conscious Approach (CCA) — assigns
// each soft-deadline transaction the dynamic priority
//
//	Pr(T) = -(deadline + w · penaltyOfConflict(T))
//
// where the penalty of conflict is the work that would be thrown away
// (effective service plus rollback time of every partially executed
// transaction that is unsafe with respect to T) if T ran to commit right
// now. Conflicts are resolved by wounding (the running transaction aborts
// conflicting lock holders, so CCA never waits on data and cannot
// deadlock), and during the IO wait of the highest-priority transaction the
// CPU is given only to transactions that cannot conflict with partially
// executed ones, eliminating "noncontributing executions".
//
// This package is the stable facade over the implementation:
//
//   - Run / RunSeeds execute single-configuration simulations
//     (Config, MainMemoryConfig, DiskConfig, the policy constants);
//   - Experiments / RunExperiment / ExperimentByID regenerate every table
//     and figure of the paper's evaluation;
//   - the pre-analysis types (Program, Analyze, ConflictBetween, SafetyOf)
//     expose the transaction-tree formalism of paper §3.2.2.
//
// A minimal example:
//
//	cfg := rtdbs.MainMemoryConfig(rtdbs.CCA, 1)
//	cfg.Workload.ArrivalRate = 8
//	res, err := rtdbs.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("miss%%=%.1f restarts/txn=%.2f\n", res.MissPercent, res.RestartsPerTxn)
package rtdbs

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Scheduling policies.
const (
	// CCA is the paper's cost conscious approach.
	CCA = core.CCA
	// EDFHP is earliest-deadline-first with High Priority (wound)
	// conflict resolution — the paper's baseline.
	EDFHP = core.EDFHP
	// EDFWP is earliest-deadline-first with Wait Promote (priority
	// inheritance, non-abortive) conflict resolution.
	EDFWP = core.EDFWP
	// LSFHP is least-slack-first with High Priority conflict resolution.
	LSFHP = core.LSFHP
	// EDFCR is earliest-deadline-first with Conditional Restart conflict
	// resolution (block if the holder fits in the requester's slack).
	EDFCR = core.EDFCR
	// AED is Adaptive Earliest Deadline (HIT/MISS feedback groups).
	AED = core.AED
	// PCP is the Priority Ceiling Protocol (pure wait + inheritance;
	// main-memory configurations only).
	PCP = core.PCP
	// FCFS is the non-real-time first-come-first-served control.
	FCFS = core.FCFS
)

// Core simulation types.
type (
	// PolicyKind names a scheduling algorithm.
	PolicyKind = core.PolicyKind
	// Config fully describes one simulation run.
	Config = core.Config
	// Engine is a single simulation run (use New for trace access;
	// plain Run covers most uses).
	Engine = core.Engine
	// Result holds the derived metrics of one run.
	Result = metrics.Result
	// Aggregate accumulates results across seeds.
	Aggregate = metrics.Aggregate
	// WorkloadParams describes workload generation (paper Tables 1-2).
	WorkloadParams = workload.Params
	// Workload is a fully generated run's transactions.
	Workload = workload.Workload
	// TxnSpec is one generated transaction instance.
	TxnSpec = workload.Spec
)

// Pre-analysis types (paper §3.2.2).
type (
	// Item identifies a database object.
	Item = txn.Item
	// ItemSet is a set of database items.
	ItemSet = txn.Set
	// Node is a vertex of a transaction tree.
	Node = txn.Node
	// Program is a transaction program: a tree of decision points.
	Program = txn.Program
	// Analysis holds a program's derived hasaccessed/mightaccess sets.
	Analysis = txn.Analysis
	// TxnState is a transaction's position within its program.
	TxnState = txn.State
	// ConflictClass classifies pairwise conflicts
	// (conflict / conditionally conflict / no conflict).
	ConflictClass = txn.ConflictClass
	// SafetyClass classifies rollback safety
	// (safe / conditionally unsafe / unsafe).
	SafetyClass = txn.SafetyClass
)

// Structured tracing (Engine.SetRecorder).
type (
	// TraceEvent is one engine transition (arrival, dispatch, wound, ...).
	TraceEvent = trace.Event
	// TraceKind is a trace event type.
	TraceKind = trace.Kind
	// TraceBuffer records trace events in memory, with optional filter
	// and capacity bound.
	TraceBuffer = trace.Buffer
)

// Trace event kinds.
const (
	TraceArrival  = trace.Arrival
	TraceDispatch = trace.Dispatch
	TracePreempt  = trace.Preempt
	TraceWound    = trace.Wound
	TraceBlock    = trace.Block
	TraceWake     = trace.Wake
	TraceIOStart  = trace.IOStart
	TraceIODone   = trace.IODone
	TraceDeadlock = trace.Deadlock
	TraceCommit   = trace.Commit
	TraceReject   = trace.Reject
)

// Robustness extensions: deterministic fault injection, overload control
// and the runtime safety oracle.
type (
	// FaultPlan is a deterministic fault-injection plan (Config.Fault);
	// the zero value injects nothing and leaves runs bit-identical.
	FaultPlan = fault.Plan
	// FaultWindow is a half-open simulated-time window of a plan.
	FaultWindow = fault.Window
	// FaultBurst is an arrival-burst window (rate multiplier).
	FaultBurst = fault.Burst
	// AdmissionConfig configures the engine's overload controller
	// (Config.Admission).
	AdmissionConfig = core.AdmissionConfig
	// AdmissionMode selects the admission rejection rule.
	AdmissionMode = core.AdmissionMode
	// Oracle is the opt-in runtime safety monitor
	// (Engine.EnableOracle); it fails a run at the first violation of
	// the paper's correctness results.
	Oracle = core.Oracle
	// RunFailure describes one experiment seed run that failed even
	// after retries (ExperimentResult.Failures).
	RunFailure = experiment.RunFailure
)

// Admission modes.
const (
	// AdmitAll disables admission control (the default).
	AdmitAll = core.AdmitAll
	// RejectNewest sheds arrivals once MaxLive transactions are live.
	RejectNewest = core.RejectNewest
	// RejectInfeasible sheds arrivals whose deadline is already
	// infeasible given the live backlog.
	RejectInfeasible = core.RejectInfeasible
)

// ParseFaultPlan decodes and validates a JSON fault plan (durations are
// nanoseconds; unknown fields are rejected).
func ParseFaultPlan(data []byte) (FaultPlan, error) { return fault.ParsePlan(data) }

// Pre-analysis classifications.
const (
	NoConflict            = txn.NoConflict
	ConditionallyConflict = txn.ConditionallyConflict
	Conflict              = txn.Conflict
	Safe                  = txn.Safe
	ConditionallyUnsafe   = txn.ConditionallyUnsafe
	Unsafe                = txn.Unsafe
)

// Experiment harness types.
type (
	// Experiment is one parameter sweep reproducing paper figures.
	Experiment = experiment.Definition
	// ExperimentResult holds a sweep's aggregated metrics.
	ExperimentResult = experiment.Result
	// ExperimentOptions tunes a sweep run (seed/count overrides,
	// worker pool size, progress callback).
	ExperimentOptions = experiment.Options
	// Table is a rendered result table (text / markdown / CSV).
	Table = report.Table
)

// MainMemoryConfig returns the paper's §4 base configuration (Table 1).
func MainMemoryConfig(p PolicyKind, seed int64) Config {
	return core.MainMemoryConfig(p, seed)
}

// DiskConfig returns the paper's §5 base configuration (Table 2).
func DiskConfig(p PolicyKind, seed int64) Config { return core.DiskConfig(p, seed) }

// Policies lists every implemented scheduling policy.
func Policies() []PolicyKind { return core.Policies() }

// New builds an Engine for one run; most callers can use Run directly.
func New(cfg Config) (*Engine, error) { return core.New(cfg) }

// NewWithWorkload builds an Engine over a caller-supplied workload (custom
// scenarios, trace replay).
func NewWithWorkload(cfg Config, wl *Workload) (*Engine, error) {
	return core.NewWithWorkload(cfg, wl)
}

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (Result, error) {
	e, err := core.New(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}

// RunSeeds executes the configuration once per seed and aggregates the
// results, the way the paper averages each configuration over 10 (main
// memory) or 30 (disk) random runs.
func RunSeeds(cfg Config, seeds []int64) (*Aggregate, error) {
	agg := &Aggregate{}
	for _, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		agg.Add(res)
	}
	return agg, nil
}

// Seeds returns 1..n, the seed sets used throughout the reproduction.
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// GenerateWorkload draws a workload without running it (inspection, custom
// engines).
func GenerateWorkload(p WorkloadParams, seed int64) (*Workload, error) {
	return workload.Generate(p, seed)
}

// Experiments returns every defined experiment (paper figures and
// extension ablations).
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID resolves a sweep ID ("mm-rate") or figure ID ("4a",
// "fig5c") to its experiment definition.
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// RunExperiment executes a sweep and returns its aggregated results;
// call Tables on the result to render its figures.
func RunExperiment(def Experiment, opt ExperimentOptions) (*ExperimentResult, error) {
	return experiment.Run(context.Background(), def, opt)
}

// RunExperimentContext is RunExperiment under a context: cancellation stops
// scheduling further runs, drains in-flight ones and returns the context's
// error.
func RunExperimentContext(ctx context.Context, def Experiment, opt ExperimentOptions) (*ExperimentResult, error) {
	return experiment.Run(ctx, def, opt)
}

// Table1 and Table2 render the paper's base-parameter tables.
func Table1() *Table { return experiment.Table1() }

// Table2 renders the paper's disk-resident base parameters.
func Table2() *Table { return experiment.Table2() }

// Pre-analysis functions (paper §3.2.2).

// AnalyzeProgram validates a transaction program and computes its
// hasaccessed/mightaccess tables.
func AnalyzeProgram(p *Program) (*Analysis, error) { return txn.Analyze(p) }

// StateAt positions a transaction at a node of its analysed program.
func StateAt(a *Analysis, label string) TxnState { return txn.At(a, label) }

// ConflictBetween classifies the conflict relation between two transaction
// states.
func ConflictBetween(a, b TxnState) ConflictClass { return txn.ConflictBetween(a, b) }

// SafetyOf classifies whether the partially executed transaction `part`
// would have to be rolled back to schedule `sched`.
func SafetyOf(part, sched TxnState) SafetyClass { return txn.SafetyOf(part, sched) }

// FlatProgram builds a straight-line transaction program (no decision
// points) accessing the given items.
func FlatProgram(name string, items ...Item) *Program { return txn.Flat(name, items...) }

// NewItemSet builds an item set.
func NewItemSet(items ...Item) ItemSet { return txn.NewSet(items...) }

// ParseProgram reads a transaction program from the indentation-based text
// format ("program A\nnode A accesses 0\n  node Aa accesses 1 2 3\n...").
func ParseProgram(r io.Reader) (*Program, error) { return txn.ParseProgram(r) }

// WriteProgram renders a program in ParseProgram's text format.
func WriteProgram(w io.Writer, p *Program) error { return txn.WriteProgram(w, p) }
