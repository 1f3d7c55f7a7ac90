package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
	"repro/internal/txn"
)

func TestBaseMainMemoryMatchesTable1(t *testing.T) {
	p := BaseMainMemory()
	if p.TxnTypes != 50 || p.UpdatesMean != 20 || p.UpdatesStd != 10 {
		t.Fatal("type parameters do not match Table 1")
	}
	if p.DBSize != 30 {
		t.Fatalf("DBSize = %d, want 30", p.DBSize)
	}
	if p.ComputePerUpdate != 4*time.Millisecond {
		t.Fatal("compute/update does not match Table 1")
	}
	if p.MinSlack != 0.2 || p.MaxSlack != 8.0 {
		t.Fatal("slack bounds do not match Table 1")
	}
	if p.Count != 1000 {
		t.Fatal("Count should be 1000 per §4")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBaseDiskMatchesTable2(t *testing.T) {
	p := BaseDisk()
	if p.DiskAccessProb != 0.1 || p.DiskAccessTime != 25*time.Millisecond {
		t.Fatal("disk parameters do not match Table 2")
	}
	if p.Count != 300 {
		t.Fatal("Count should be 300 per §5")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityMainMemory checks the §4.1 capacity computation:
// 4 ms/update × 20 updates = 80 ms/txn  =>  12.5 tr/s.
func TestCapacityMainMemory(t *testing.T) {
	got := BaseMainMemory().CPUCapacity()
	if math.Abs(got-12.5) > 1e-9 {
		t.Fatalf("CPUCapacity = %v, want 12.5", got)
	}
}

// TestCapacityHighVariance checks §4.2: (0.4+4+40)/3 ms × 20 = 296 ms/txn
// => ≈3.378 tr/s (the paper rounds to 3.37).
func TestCapacityHighVariance(t *testing.T) {
	got := HighVariance().CPUCapacity()
	want := 1000.0 / 296.0
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("CPUCapacity = %v, want %v", got, want)
	}
}

// TestDiskUtilization checks §5: at 12.5 tr/s, 20 updates × 1/10 × 25 ms
// gives 62.5% utilisation.
func TestDiskUtilization(t *testing.T) {
	got := BaseDisk().diskUtilizationAt(12.5)
	if math.Abs(got-0.625) > 1e-9 {
		t.Fatalf("diskUtilizationAt(12.5) = %v, want 0.625", got)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.TxnTypes = 0 },
		func(p *Params) { p.DBSize = 0 },
		func(p *Params) { p.UpdatesMean = 0 },
		func(p *Params) { p.UpdatesStd = -1 },
		func(p *Params) { p.ComputePerUpdate = 0 },
		func(p *Params) { p.MinSlack = -0.1 },
		func(p *Params) { p.MaxSlack = p.MinSlack - 1 },
		func(p *Params) { p.ArrivalRate = 0 },
		func(p *Params) { p.Count = 0 },
		func(p *Params) { p.DiskAccessProb = 1.5 },
		func(p *Params) { p.DiskAccessProb = 0.1; p.DiskAccessTime = 0 },
		func(p *Params) { p.ReadFraction = -0.5 },
		func(p *Params) { p.Classes = []Class{{Fraction: 0.5, ComputePerUpdate: time.Millisecond}} },
		func(p *Params) { p.Classes = []Class{{Fraction: 1, ComputePerUpdate: 0}} },
		func(p *Params) { p.UpdatesMean = math.NaN() },
		func(p *Params) { p.UpdatesMean = math.Inf(1) },
		func(p *Params) { p.UpdatesStd = math.NaN() },
		func(p *Params) { p.UpdatesStd = math.Inf(1) },
		func(p *Params) { p.MaxSlack = math.NaN() },
		func(p *Params) { p.MaxSlack = math.Inf(1) },
		func(p *Params) { p.ArrivalRate = math.NaN() },
		func(p *Params) { p.ArrivalRate = math.Inf(1) },
		func(p *Params) { p.DiskAccessProb = math.NaN() },
		func(p *Params) { p.ReadFraction = math.NaN() },
		func(p *Params) {
			p.Classes = []Class{{Fraction: math.NaN(), ComputePerUpdate: time.Millisecond}, {Fraction: 1, ComputePerUpdate: time.Millisecond}}
		},
	}
	for i, mutate := range cases {
		p := BaseMainMemory()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestGenerateReproducible(t *testing.T) {
	p := BaseMainMemory()
	p.Count = 50
	a := MustGenerate(p, 42)
	b := MustGenerate(p, 42)
	for i := range a.Txns {
		x, y := a.Txns[i], b.Txns[i]
		if x.Arrival != y.Arrival || x.Deadline != y.Deadline || x.Type != y.Type {
			t.Fatalf("txn %d differs across identical generations", i)
		}
	}
	c := MustGenerate(p, 43)
	if a.Txns[0].Arrival == c.Txns[0].Arrival && a.Txns[1].Arrival == c.Txns[1].Arrival {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	p := BaseMainMemory()
	p.Count = 0
	if _, err := Generate(p, 1); err == nil {
		t.Fatal("Generate accepted invalid params")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate did not panic")
		}
	}()
	MustGenerate(Params{}, 1)
}

func TestTypesWellFormed(t *testing.T) {
	p := BaseMainMemory()
	p.Count = 10
	w := MustGenerate(p, 7)
	if len(w.Types) != 50 {
		t.Fatalf("types = %d, want 50", len(w.Types))
	}
	for _, ty := range w.Types {
		if len(ty.Items) < 1 || len(ty.Items) > p.DBSize {
			t.Fatalf("type %d has %d items", ty.id, len(ty.Items))
		}
		seen := map[int]bool{}
		for _, it := range ty.Items {
			if int(it) < 0 || int(it) >= p.DBSize {
				t.Fatalf("type %d item %d out of range", ty.id, it)
			}
			if seen[int(it)] {
				t.Fatalf("type %d has duplicate item %d", ty.id, it)
			}
			seen[int(it)] = true
		}
		if ty.compute != p.ComputePerUpdate {
			t.Fatalf("type %d compute = %v", ty.id, ty.compute)
		}
	}
}

func TestInstancesShareTypeItems(t *testing.T) {
	p := BaseMainMemory()
	p.Count = 200
	w := MustGenerate(p, 11)
	for _, s := range w.Txns {
		ty := w.Types[s.Type]
		if len(s.Items) != len(ty.Items) {
			t.Fatal("instance items differ from type items")
		}
		for i := range s.Items {
			if s.Items[i] != ty.Items[i] {
				t.Fatal("instance items differ from type items")
			}
		}
	}
}

func TestArrivalsIncreasingAndPoissonish(t *testing.T) {
	p := BaseMainMemory()
	p.ArrivalRate = 10
	p.Count = 5000
	w := MustGenerate(p, 13)
	var prev time.Duration = -1
	var acc stats.Accumulator
	last := time.Duration(0)
	for _, s := range w.Txns {
		if s.Arrival <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		acc.Add(float64(s.Arrival-last) / float64(time.Second))
		last = s.Arrival
		prev = s.Arrival
	}
	if math.Abs(acc.Mean()-0.1) > 0.01 {
		t.Fatalf("mean inter-arrival = %v s, want ~0.1", acc.Mean())
	}
}

func TestDeadlineFormula(t *testing.T) {
	p := BaseMainMemory()
	p.Count = 500
	w := MustGenerate(p, 17)
	for _, s := range w.Txns {
		res := s.ResourceTime(p.DiskAccessTime)
		minDL := s.Arrival + time.Duration(float64(res)*1.2)
		maxDL := s.Arrival + time.Duration(float64(res)*9.0)
		if s.Deadline < minDL-time.Nanosecond || s.Deadline > maxDL+time.Nanosecond {
			t.Fatalf("txn %d deadline %v outside [%v, %v]", s.ID, s.Deadline, minDL, maxDL)
		}
	}
}

func TestDiskWorkloadHasIOFlags(t *testing.T) {
	p := BaseDisk()
	p.Count = 500
	w := MustGenerate(p, 19)
	totalUpdates, ios := 0, 0
	for _, s := range w.Txns {
		if len(s.NeedsIO) != len(s.Items) {
			t.Fatal("NeedsIO length mismatch")
		}
		for _, io := range s.NeedsIO {
			totalUpdates++
			if io {
				ios++
			}
		}
	}
	frac := float64(ios) / float64(totalUpdates)
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("IO fraction = %v, want ~0.1", frac)
	}
	// Resource time must include the drawn IO time.
	s := w.Txns[0]
	var wantIO time.Duration
	for _, io := range s.NeedsIO {
		if io {
			wantIO += p.DiskAccessTime
		}
	}
	want := time.Duration(len(s.Items))*s.Compute + wantIO
	if got := s.ResourceTime(p.DiskAccessTime); got != want {
		t.Fatalf("ResourceTime = %v, want %v", got, want)
	}
}

func TestMainMemoryWorkloadHasNoIO(t *testing.T) {
	p := BaseMainMemory()
	p.Count = 20
	w := MustGenerate(p, 23)
	for _, s := range w.Txns {
		if len(s.NeedsIO) != 0 {
			t.Fatal("main-memory workload should have no IO flags")
		}
	}
}

func TestHighVarianceClasses(t *testing.T) {
	p := HighVariance()
	p.Count = 10
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w := MustGenerate(p, 29)
	counts := map[time.Duration]int{}
	for _, ty := range w.Types {
		counts[ty.compute]++
	}
	for _, want := range []time.Duration{400 * time.Microsecond, 4 * time.Millisecond, 40 * time.Millisecond} {
		// 50 types over 3 equal classes: 16 or 17 each.
		if c := counts[want]; c < 16 || c > 17 {
			t.Fatalf("class %v has %d types, want 16-17", want, c)
		}
	}
}

func TestReadFractionExtension(t *testing.T) {
	p := BaseMainMemory()
	p.ReadFraction = 0.5
	p.Count = 300
	w := MustGenerate(p, 31)
	reads, total := 0, 0
	for _, s := range w.Txns {
		if len(s.Reads) != len(s.Items) {
			t.Fatal("Reads length mismatch")
		}
		for _, r := range s.Reads {
			total++
			if r {
				reads++
			}
		}
	}
	frac := float64(reads) / float64(total)
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("read fraction = %v, want ~0.5", frac)
	}
}

func TestCriticalityExtension(t *testing.T) {
	p := BaseMainMemory()
	p.CriticalityLevels = 3
	p.Count = 300
	w := MustGenerate(p, 37)
	seen := map[int]int{}
	for _, s := range w.Txns {
		if s.Criticality < 0 || s.Criticality >= 3 {
			t.Fatalf("criticality %d out of range", s.Criticality)
		}
		seen[s.Criticality]++
	}
	for lvl := 0; lvl < 3; lvl++ {
		if seen[lvl] < 50 {
			t.Fatalf("criticality level %d underrepresented: %d", lvl, seen[lvl])
		}
	}
}

func TestClassOfCoversAllClasses(t *testing.T) {
	classes := []Class{
		{Fraction: 0.2, ComputePerUpdate: time.Millisecond},
		{Fraction: 0.3, ComputePerUpdate: time.Millisecond},
		{Fraction: 0.5, ComputePerUpdate: time.Millisecond},
	}
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		counts[classOf(i, 100, classes)]++
	}
	if counts[0] != 20 || counts[1] != 30 || counts[2] != 50 {
		t.Fatalf("class split = %v, want 20/30/50", counts)
	}
}

// Property: any valid-ish parameter draw produces a structurally consistent
// workload (deadline >= arrival + resource, items within range).
func TestQuickWorkloadConsistency(t *testing.T) {
	f := func(seed int64, rateQ, dbQ uint8) bool {
		p := BaseMainMemory()
		p.ArrivalRate = 1 + float64(rateQ%12)
		p.DBSize = 10 + int(dbQ%200)
		p.Count = 40
		w, err := Generate(p, seed)
		if err != nil {
			return false
		}
		for _, s := range w.Txns {
			if s.Deadline < s.Arrival+s.ResourceTime(0) {
				return false
			}
			for _, it := range s.Items {
				if int(it) < 0 || int(it) >= p.DBSize {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeProgramFormalism(t *testing.T) {
	// Flat type: single-leaf program.
	flat := Type{Items: []txn.Item{1, 2}}
	a, err := txn.Analyze(flat.Program("F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Leaves("F")) != 1 {
		t.Fatal("flat type program should be a single leaf")
	}
	// Branching type: the Program reproduces the paper's two-leaf tree and
	// the pre-analysis classifies a branch-only accessor as conditionally
	// conflicting before the decision point.
	ty := Type{
		prefix:  []txn.Item{0},
		BranchA: []txn.Item{1, 2},
		branchB: []txn.Item{3, 4},
		Items:   []txn.Item{0},
	}
	at, err := txn.Analyze(ty.Program("T"))
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Leaves("T")) != 2 {
		t.Fatal("branching type program should have two leaves")
	}
	other, _ := txn.Analyze(txn.Flat("O", 3))
	got := txn.ConflictBetween(txn.At(at, "T"), txn.NewState(other))
	if got != txn.ConditionallyConflict {
		t.Fatalf("branch-only accessor classified %v, want conditionally-conflict", got)
	}
}

func TestGenerateDecisionPointsResourceTime(t *testing.T) {
	p := BaseMainMemory()
	p.DBSize = 200
	p.Count = 100
	p.DecisionPoints = true
	w := MustGenerate(p, 5)
	for i := range w.Txns {
		s := &w.Txns[i]
		// Deadlines still follow the executed path's resource time.
		res := s.ResourceTime(0)
		if s.Deadline < s.Arrival+time.Duration(float64(res)*1.2)-time.Nanosecond {
			t.Fatalf("txn %d deadline below min slack", i)
		}
	}
}

// diskUtilizationAt returns the expected disk utilisation at the given
// arrival rate: λ × updates × P(IO) × access time. The paper computes 62.5%
// at the 12.5 tr/s capacity point.
func (p Params) diskUtilizationAt(rate float64) float64 {
	return rate * p.UpdatesMean * p.DiskAccessProb * float64(p.DiskAccessTime) / float64(time.Second)
}
