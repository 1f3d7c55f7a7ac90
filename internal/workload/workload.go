// Package workload generates the transaction workloads of the paper's two
// simulation studies (§4 Table 1 and §5 Table 2):
//
//   - transactions arrive by a Poisson process with rate λ;
//   - every transaction is an instance of one of TxnTypes transaction types,
//     chosen uniformly; a type's item set is drawn once per run — its size
//     from N(UpdatesMean, UpdatesStd) clamped to [1, DBSize], the items
//     uniformly without replacement from the database;
//   - the deadline is arrival + resourceTime × (1 + slack), slack uniform in
//     [MinSlack, MaxSlack];
//   - in the disk-resident configuration each update independently requires
//     a disk access with probability DiskAccessProb.
//
// The high-variance experiment (§4.2) partitions the types into classes with
// different per-update computation times (0.4 ms / 4 ms / 40 ms).
package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/txn"
)

// Class describes one transaction-type class of the high-variance
// experiment: a fraction of the types and their per-update CPU time.
type Class struct {
	// Fraction of transaction types in this class; the fractions of all
	// classes must sum to 1.
	Fraction float64
	// ComputePerUpdate is the CPU time per item update for this class.
	ComputePerUpdate time.Duration
}

// Params describes a workload. The zero value is not valid; start from
// BaseMainMemory or BaseDisk.
type Params struct {
	// TxnTypes is the number of transaction types (paper: 50).
	TxnTypes int
	// UpdatesMean and UpdatesStd parameterise the per-type update count
	// (paper: 20, 10).
	UpdatesMean, UpdatesStd float64
	// DBSize is the number of objects in the database (paper: 30).
	DBSize int
	// ComputePerUpdate is the CPU time per item update (paper: 4 ms).
	// Ignored when Classes is non-empty.
	ComputePerUpdate time.Duration
	// Classes optionally partitions types into compute-time classes
	// (the §4.2 high-variance experiment).
	Classes []Class
	// MinSlack and MaxSlack bound the slack fraction of the deadline
	// (paper: 0.2 and 8.0, i.e. 20% and 800% of the resource time).
	MinSlack, MaxSlack float64
	// ArrivalRate is λ, in transactions per second.
	ArrivalRate float64
	// Count is the number of transactions per run (paper: 1000 for main
	// memory, 300 for disk).
	Count int
	// DiskAccessProb is the probability an update needs a disk access
	// (paper: 0 for main memory, 1/10 for disk resident).
	DiskAccessProb float64
	// DiskAccessTime is the disk service time (paper: 25 ms).
	DiskAccessTime time.Duration
	// ReadFraction is the probability an access takes a shared rather
	// than exclusive lock (extension; the paper uses write locks only).
	ReadFraction float64
	// CriticalityLevels, when > 1, assigns each transaction a uniform
	// criticality in [0, CriticalityLevels) (extension; the paper assumes
	// "same criticalness").
	CriticalityLevels int
	// DecisionPoints, when true, builds each transaction type as a two-way
	// decision tree (paper §3.2.2): a common prefix of updates followed
	// by one of two alternative branches. Until an instance executes its
	// decision point, its might-access set pessimistically covers both
	// branches; afterwards it narrows to the taken branch. This simulates
	// the conditionally-conflicting behaviour the paper's own simulator
	// omitted ("we didn't simulate the effects of conditionally unsafe
	// and conditionally conflict", §6).
	DecisionPoints bool
}

// BaseMainMemory returns Table 1's base parameters.
func BaseMainMemory() Params {
	return Params{
		TxnTypes:         50,
		UpdatesMean:      20,
		UpdatesStd:       10,
		DBSize:           30,
		ComputePerUpdate: 4 * time.Millisecond,
		MinSlack:         0.2,
		MaxSlack:         8.0,
		ArrivalRate:      5,
		Count:            1000,
	}
}

// BaseDisk returns Table 2's base parameters.
func BaseDisk() Params {
	p := BaseMainMemory()
	p.ArrivalRate = 4
	p.Count = 300
	p.DiskAccessProb = 0.1
	p.DiskAccessTime = 25 * time.Millisecond
	return p
}

// HighVariance returns the §4.2 configuration: three equal classes with
// 0.4 ms, 4 ms and 40 ms per update.
func HighVariance() Params {
	p := BaseMainMemory()
	p.Classes = []Class{
		{Fraction: 1.0 / 3.0, ComputePerUpdate: 400 * time.Microsecond},
		{Fraction: 1.0 / 3.0, ComputePerUpdate: 4 * time.Millisecond},
		{Fraction: 1.0 / 3.0, ComputePerUpdate: 40 * time.Millisecond},
	}
	p.ArrivalRate = 1
	return p
}

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	switch {
	case p.TxnTypes <= 0:
		return fmt.Errorf("workload: TxnTypes %d <= 0", p.TxnTypes)
	case p.DBSize <= 0:
		return fmt.Errorf("workload: DBSize %d <= 0", p.DBSize)
	case !finite(p.UpdatesMean) || p.UpdatesMean <= 0:
		return fmt.Errorf("workload: UpdatesMean %v is not finite and > 0", p.UpdatesMean)
	case !finite(p.UpdatesStd) || p.UpdatesStd < 0:
		return fmt.Errorf("workload: UpdatesStd %v is not finite and >= 0", p.UpdatesStd)
	case len(p.Classes) == 0 && p.ComputePerUpdate <= 0:
		return fmt.Errorf("workload: ComputePerUpdate %v <= 0", p.ComputePerUpdate)
	case !finite(p.MinSlack) || !finite(p.MaxSlack) || p.MinSlack < 0 || p.MaxSlack < p.MinSlack:
		return fmt.Errorf("workload: slack range [%v, %v] invalid", p.MinSlack, p.MaxSlack)
	case !finite(p.ArrivalRate) || p.ArrivalRate <= 0:
		return fmt.Errorf("workload: ArrivalRate %v is not finite and > 0", p.ArrivalRate)
	case p.Count <= 0:
		return fmt.Errorf("workload: Count %d <= 0", p.Count)
	case !(p.DiskAccessProb >= 0 && p.DiskAccessProb <= 1):
		return fmt.Errorf("workload: DiskAccessProb %v outside [0,1]", p.DiskAccessProb)
	case p.DiskAccessProb > 0 && p.DiskAccessTime <= 0:
		return fmt.Errorf("workload: DiskAccessTime %v <= 0 with DiskAccessProb %v", p.DiskAccessTime, p.DiskAccessProb)
	case !(p.ReadFraction >= 0 && p.ReadFraction <= 1):
		return fmt.Errorf("workload: ReadFraction %v outside [0,1]", p.ReadFraction)
	}
	if len(p.Classes) > 0 {
		var sum float64
		for i, c := range p.Classes {
			if !finite(c.Fraction) || c.Fraction < 0 || c.ComputePerUpdate <= 0 {
				return fmt.Errorf("workload: class %d invalid", i)
			}
			sum += c.Fraction
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("workload: class fractions sum to %v, want 1", sum)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite: a NaN fails every
// comparison, so a bound check alone lets it through.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Type is one pre-analysed transaction type: a fixed item set and per-update
// compute time shared by all its instances in a run. When the workload uses
// decision points, the item set splits into a common prefix and two branch
// alternatives (a two-leaf transaction tree, paper Figure 2).
type Type struct {
	id      int
	Items   []txn.Item
	compute time.Duration
	class   int
	// prefix/BranchA/branchB hold the tree decomposition when
	// DecisionPoints is on; Items then equals Prefix (the shared part).
	prefix  []txn.Item
	BranchA []txn.Item
	branchB []txn.Item
}

// Program returns the transaction tree of the type (paper §3.2.2): a flat
// single-node program, or a one-decision tree when the workload uses
// decision points.
func (t *Type) Program(name string) *txn.Program {
	if len(t.BranchA) == 0 {
		return txn.Flat(name, t.Items...)
	}
	return &txn.Program{
		Name: name,
		Root: &txn.Node{
			Label:    name,
			Accesses: txn.NewSet(t.prefix...),
			Children: []*txn.Node{
				{Label: name + "/a", Accesses: txn.NewSet(t.BranchA...)},
				{Label: name + "/b", Accesses: txn.NewSet(t.branchB...)},
			},
		},
	}
}

// Spec is one generated transaction instance.
type Spec struct {
	// ID is the instance's index in arrival order.
	ID int
	// Type indexes the transaction type.
	Type int
	// Arrival is the release time (release = arrival in the paper).
	Arrival time.Duration
	// Deadline is the absolute soft deadline.
	Deadline time.Duration
	// Items is the access list (shared with the type; do not mutate).
	Items []txn.Item
	// Compute is the CPU time per update.
	Compute time.Duration
	// NeedsIO flags, per update, whether a disk access precedes the
	// computation (empty means none, i.e. main-memory resident).
	NeedsIO []bool
	// Reads flags, per update, whether the access takes a shared lock
	// (extension; empty means all writes).
	Reads []bool
	// Criticality is the transaction's criticality level (extension;
	// 0 when the workload has a single level).
	Criticality int
	// Class is the compute-time class of the transaction's type (0 when
	// the workload has a single class).
	Class int
	// MightFull, when non-empty, is the pessimistic pre-decision
	// might-access set (prefix plus every branch alternative); Items
	// holds the actually-executed path. Empty means the transaction is
	// flat: might = Items throughout.
	MightFull []txn.Item
	// DecisionIndex is the update index whose completion narrows the
	// might-access set from MightFull to Items (the decision point).
	// Meaningful only when MightFull is non-empty.
	DecisionIndex int
}

// ResourceTime returns the transaction's isolated static execution time:
// compute per update plus disk time for each update that needs IO. This is
// the "resource time" of the paper's deadline formula.
func (s *Spec) ResourceTime(diskAccess time.Duration) time.Duration {
	t := time.Duration(len(s.Items)) * s.Compute
	for _, io := range s.NeedsIO {
		if io {
			t += diskAccess
		}
	}
	return t
}

// Workload is a fully generated run: the types and the arrival-ordered
// transaction instances.
type Workload struct {
	Params Params
	Types  []Type
	Txns   []Spec
}

// Generate draws a complete workload for one run. The same (params, seed)
// always yields the same workload, and independent random streams are used
// for each aspect so that, e.g., enabling disk accesses does not perturb
// arrival times.
func Generate(p Params, seed int64) (*Workload, error) {
	return GenerateFaulted(p, seed, nil)
}

// GenerateFaulted is Generate with arrival-burst injection: while the
// running arrival clock is inside a burst window, the mean inter-arrival
// time is divided by the burst's rate factor, compressing arrivals into a
// storm. Every random draw of Generate happens identically and in the same
// order — one scaled multiplication aside — so a nil or empty burst list
// yields a workload bit-identical to Generate's.
func GenerateFaulted(p Params, seed int64, bursts []fault.Burst) (*Workload, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i, b := range bursts {
		if b.Start < 0 || b.End <= b.Start || b.RateFactor <= 0 {
			return nil, fmt.Errorf("workload: burst %d invalid", i)
		}
	}
	src := stats.NewSource(seed)
	typeSize := src.Stream("type-size")
	typeItems := src.Stream("type-items")
	arrivals := src.Stream("arrivals")
	typePick := src.Stream("type-pick")
	slack := src.Stream("slack")
	io := src.Stream("io")
	reads := src.Stream("reads")
	crit := src.Stream("criticality")

	w := &Workload{Params: p}

	// Types: item count from clamped normal, items without replacement.
	branchPick := src.Stream("branch")
	for i := 0; i < p.TxnTypes; i++ {
		n := typeSize.NormalIntClamped(p.UpdatesMean, p.UpdatesStd, 1, p.DBSize)
		t := Type{id: i, compute: p.ComputePerUpdate}
		if p.DecisionPoints && n >= 2 {
			// Two-leaf tree: a prefix of about half the updates, then
			// two alternative branches of the remaining length each
			// (so an executed path still has n updates, matching the
			// flat workload's resource time).
			prefixLen := (n + 1) / 2
			branchLen := n - prefixLen
			need := prefixLen + 2*branchLen
			if need > p.DBSize {
				need = p.DBSize
				branchLen = (need - prefixLen) / 2
			}
			idx := typeItems.SampleWithoutReplacement(p.DBSize, prefixLen+2*branchLen)
			all := make([]txn.Item, len(idx))
			for j, v := range idx {
				all[j] = txn.Item(v)
			}
			t.prefix = all[:prefixLen]
			t.BranchA = all[prefixLen : prefixLen+branchLen]
			t.branchB = all[prefixLen+branchLen:]
			t.Items = t.prefix
		} else {
			idx := typeItems.SampleWithoutReplacement(p.DBSize, n)
			items := make([]txn.Item, n)
			for j, v := range idx {
				items[j] = txn.Item(v)
			}
			t.Items = items
		}
		if len(p.Classes) > 0 {
			t.class = classOf(i, p.TxnTypes, p.Classes)
			t.compute = p.Classes[t.class].ComputePerUpdate
		}
		w.Types = append(w.Types, t)
	}

	// Instances: Poisson arrivals, uniform type choice, slack-based deadline.
	meanIAT := 1.0 / p.ArrivalRate // seconds
	var now time.Duration
	for i := 0; i < p.Count; i++ {
		iat := arrivals.Exponential(meanIAT)
		for _, b := range bursts {
			if b.Contains(now) {
				iat /= b.RateFactor
				break
			}
		}
		now += time.Duration(iat * float64(time.Second))
		ty := &w.Types[typePick.Intn(p.TxnTypes)]
		s := Spec{
			ID:      i,
			Type:    ty.id,
			Arrival: now,
			Items:   ty.Items,
			Compute: ty.compute,
			Class:   ty.class,
		}
		if len(ty.BranchA) > 0 {
			// Draw the branch this instance will take; until the last
			// prefix update completes, the pre-analysis can only bound
			// the access set by the union of both branches.
			branch := ty.BranchA
			if branchPick.Bernoulli(0.5) {
				branch = ty.branchB
			}
			s.Items = append(append([]txn.Item(nil), ty.prefix...), branch...)
			s.MightFull = make([]txn.Item, 0, len(ty.prefix)+len(ty.BranchA)+len(ty.branchB))
			s.MightFull = append(s.MightFull, ty.prefix...)
			s.MightFull = append(s.MightFull, ty.BranchA...)
			s.MightFull = append(s.MightFull, ty.branchB...)
			s.DecisionIndex = len(ty.prefix) - 1
		}
		if p.DiskAccessProb > 0 {
			s.NeedsIO = make([]bool, len(ty.Items))
			for j := range s.NeedsIO {
				s.NeedsIO[j] = io.Bernoulli(p.DiskAccessProb)
			}
		}
		if p.ReadFraction > 0 {
			s.Reads = make([]bool, len(s.Items)) // the taken branch included
			for j := range s.Reads {
				s.Reads[j] = reads.Bernoulli(p.ReadFraction)
			}
		}
		if p.CriticalityLevels > 1 {
			s.Criticality = crit.Intn(p.CriticalityLevels)
		}
		res := s.ResourceTime(p.DiskAccessTime)
		sl := slack.Uniform(p.MinSlack, p.MaxSlack)
		s.Deadline = s.Arrival + time.Duration(float64(res)*(1+sl))
		w.Txns = append(w.Txns, s)
	}
	return w, nil
}

// MustGenerate is Generate for known-good parameters; it panics on error.
func MustGenerate(p Params, seed int64) *Workload {
	w, err := Generate(p, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// classOf assigns type i of n to a class by cumulative fraction, so a third
// of the types land in each class of the high-variance experiment.
func classOf(i, n int, classes []Class) int {
	pos := (float64(i) + 0.5) / float64(n)
	var cum float64
	for c, cl := range classes {
		cum += cl.Fraction
		if pos < cum {
			return c
		}
	}
	return len(classes) - 1
}

// meanComputePerUpdate returns the expected CPU time per update across
// classes (the paper's 0.4+4+40)/3 for the high-variance workload).
func (p Params) meanComputePerUpdate() time.Duration {
	if len(p.Classes) == 0 {
		return p.ComputePerUpdate
	}
	var mean float64
	for _, c := range p.Classes {
		mean += c.Fraction * float64(c.ComputePerUpdate)
	}
	return time.Duration(mean)
}

// CPUCapacity returns the paper's no-abort CPU capacity estimate in
// transactions per second: 1 / (updates per transaction × compute per
// update). Table 1's base parameters give 12.5 tr/s; the high-variance
// parameters give ≈3.37 tr/s.
func (p Params) CPUCapacity() float64 {
	perTxn := p.UpdatesMean * float64(p.meanComputePerUpdate()) / float64(time.Second)
	return 1 / perTxn
}
