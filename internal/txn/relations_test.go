package txn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPaperConflictExample reproduces §3.2.2's worked example: before A's
// decision point A and B conditionally conflict; after taking the Aa branch
// they conflict; after taking Ab they don't conflict.
func TestPaperConflictExample(t *testing.T) {
	a := mustAnalyze(paperProgramA())
	b := mustAnalyze(paperProgramB())
	bState := NewState(b)

	if got := ConflictBetween(At(a, "A"), bState); got != ConditionallyConflict {
		t.Errorf("A vs B = %v, want conditionally-conflict", got)
	}
	if got := ConflictBetween(At(a, "Aa"), bState); got != Conflict {
		t.Errorf("Aa vs B = %v, want conflict", got)
	}
	if got := ConflictBetween(At(a, "Ab"), bState); got != NoConflict {
		t.Errorf("Ab vs B = %v, want no-conflict", got)
	}
}

func TestConflictSymmetry(t *testing.T) {
	a := mustAnalyze(paperProgramA())
	b := mustAnalyze(paperProgramB())
	t2 := mustAnalyze(paperProgramT2())
	states := []State{
		At(a, "A"), At(a, "Aa"), At(a, "Ab"),
		NewState(b),
		At(t2, "T21"), At(t2, "T22"), At(t2, "T24"), At(t2, "T27"),
	}
	for _, x := range states {
		for _, y := range states {
			if ConflictBetween(x, y) != ConflictBetween(y, x) {
				t.Fatalf("conflict not symmetric for %s vs %s", x.label, y.label)
			}
		}
	}
}

func TestPaperSafetyExample(t *testing.T) {
	a := mustAnalyze(paperProgramA())
	b := mustAnalyze(paperProgramB())
	bState := NewState(b)

	// A at its root has accessed only w (item 0): safe wrt scheduling B.
	if got := SafetyOf(At(a, "A"), bState); got != Safe {
		t.Errorf("safety(A wrt B) = %v, want safe", got)
	}
	// A at Aa has accessed I1..I3, which B will access: unsafe.
	if got := SafetyOf(At(a, "Aa"), bState); got != Unsafe {
		t.Errorf("safety(Aa wrt B) = %v, want unsafe", got)
	}
	// A at Ab accessed w, I4..I6, disjoint from B: safe.
	if got := SafetyOf(At(a, "Ab"), bState); got != Safe {
		t.Errorf("safety(Ab wrt B) = %v, want safe", got)
	}
	// B has accessed I1..I3; scheduling A might take the Ab branch that
	// avoids them: conditionally unsafe.
	if got := SafetyOf(bState, At(a, "A")); got != ConditionallyUnsafe {
		t.Errorf("safety(B wrt A) = %v, want conditionally-unsafe", got)
	}
	// Once A is committed to Aa, B is unsafe wrt it.
	if got := SafetyOf(bState, At(a, "Aa")); got != Unsafe {
		t.Errorf("safety(B wrt Aa) = %v, want unsafe", got)
	}
	// And once A is committed to Ab, B is safe wrt it.
	if got := SafetyOf(bState, At(a, "Ab")); got != Safe {
		t.Errorf("safety(B wrt Ab) = %v, want safe", got)
	}
}

func TestSafetyOnAuxiliaryTree(t *testing.T) {
	t2 := mustAnalyze(paperProgramT2())
	// A flat transaction that accessed item C (12).
	c := mustAnalyze(Flat("C", 12))
	cState := NewState(c)

	// Scheduling T2 at its root: C's accessed item appears on leaves T24
	// and T26 but not T25/T27, so C is conditionally unsafe wrt T21.
	if got := SafetyOf(cState, At(t2, "T21")); got != ConditionallyUnsafe {
		t.Errorf("safety(C wrt T21) = %v, want conditionally-unsafe", got)
	}
	// Scheduling T2 already at leaf T24 ({A, C}): unsafe.
	if got := SafetyOf(cState, At(t2, "T24")); got != Unsafe {
		t.Errorf("safety(C wrt T24) = %v, want unsafe", got)
	}
	// Scheduling T2 at leaf T27 ({B, D}): safe.
	if got := SafetyOf(cState, At(t2, "T27")); got != Safe {
		t.Errorf("safety(C wrt T27) = %v, want safe", got)
	}
}

func TestFlatSafetyReducesToIntersection(t *testing.T) {
	x := NewState(mustAnalyze(Flat("X", 1, 2)))
	y := NewState(mustAnalyze(Flat("Y", 2, 3)))
	z := NewState(mustAnalyze(Flat("Z", 4, 5)))
	if SafetyOf(x, y) != Unsafe || SafetyOf(y, x) != Unsafe {
		t.Error("overlapping flat transactions should be mutually unsafe")
	}
	if SafetyOf(x, z) != Safe || SafetyOf(z, x) != Safe {
		t.Error("disjoint flat transactions should be mutually safe")
	}
	if ConflictBetween(x, y) != Conflict {
		t.Error("overlapping flat transactions should conflict")
	}
	if ConflictBetween(x, z) != NoConflict {
		t.Error("disjoint flat transactions should not conflict")
	}
}

func TestAtPanicsOnUnknownLabel(t *testing.T) {
	a := mustAnalyze(paperProgramB())
	defer func() {
		if recover() == nil {
			t.Fatal("At with unknown label did not panic")
		}
	}()
	At(a, "nope")
}

func TestRelationTableMatchesDirect(t *testing.T) {
	a := mustAnalyze(paperProgramA())
	t2 := mustAnalyze(paperProgramT2())
	tab := buildRelationTable(a, t2)
	for _, la := range a.Labels() {
		for _, lb := range t2.Labels() {
			if tab.conflictOf(la, lb) != ConflictBetween(At(a, la), At(t2, lb)) {
				t.Fatalf("table conflict mismatch at (%s, %s)", la, lb)
			}
			if tab.safetyOf(la, lb) != SafetyOf(At(a, la), At(t2, lb)) {
				t.Fatalf("table safety mismatch at (%s, %s)", la, lb)
			}
		}
	}
}

func TestClassStrings(t *testing.T) {
	cases := map[string]string{
		NoConflict.String():            "no-conflict",
		ConditionallyConflict.String(): "conditionally-conflict",
		Conflict.String():              "conflict",
		Safe.String():                  "safe",
		ConditionallyUnsafe.String():   "conditionally-unsafe",
		Unsafe.String():                "unsafe",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if ConflictClass(99).String() == "" || SafetyClass(99).String() == "" {
		t.Error("unknown classes should still render")
	}
}

// genProgram builds a random transaction tree for property testing.
func genProgram(rng *rand.Rand, name string) *Program {
	label := 0
	var gen func(depth int) *Node
	gen = func(depth int) *Node {
		label++
		n := &Node{Label: name + string(rune('0'+label%10)) + "-" + itoa(label)}
		nAcc := rng.Intn(4)
		items := make([]Item, nAcc)
		for i := range items {
			items[i] = Item(rng.Intn(12))
		}
		n.Accesses = NewSet(items...)
		if depth < 3 && rng.Intn(2) == 0 {
			kids := 2 + rng.Intn(2)
			for i := 0; i < kids; i++ {
				n.Children = append(n.Children, gen(depth+1))
			}
		}
		return n
	}
	return &Program{Name: name, Root: gen(0)}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// Property: structural invariants of the analysis on random trees.
func TestQuickAnalysisInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := mustAnalyze(genProgram(rng, "P"))
		for _, l := range a.Labels() {
			has, might := a.HasAccessed(l), a.MightAccess(l)
			// hasaccessed is always a subset of mightaccess.
			if !has.subset(might) {
				return false
			}
			// mightaccess is the union over the subtree's leaves.
			u := Set{}
			for _, leaf := range a.Leaves(l) {
				u = u.union(a.MightAccess(leaf))
			}
			if !might.equal(u) {
				return false
			}
			// at a leaf, has == might.
			if a.IsLeaf(l) && !has.equal(might) {
				return false
			}
			// children have at least the parent's hasaccessed.
			for _, c := range a.node(l).Children {
				if !has.subset(a.HasAccessed(c.Label)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: classification refinement is monotone as transactions advance
// through their trees — the behaviour the scheduler relies on when it
// re-evaluates relations at decision points (§3.2.2):
//
//   - a descendant's mightaccess is a subset of its ancestor's, so
//     NoConflict at a node persists at every descendant, and Conflict at a
//     node persists at every descendant;
//   - two leaf states can never ConditionallyConflict (each has a single
//     execution path, so the leaf-pair intersection is all-or-nothing);
//   - as the partially executed side advances (hasaccessed grows), safety
//     only degrades: Safe < ConditionallyUnsafe < Unsafe is monotone
//     non-decreasing down the tree.
func TestQuickConflictRefinementMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := mustAnalyze(genProgram(rng, "A"))
		b := mustAnalyze(genProgram(rng, "B"))
		var descend func(n *Node, visit func(anc, desc *Node))
		descend = func(n *Node, visit func(anc, desc *Node)) {
			var walk func(d *Node)
			walk = func(d *Node) {
				visit(n, d)
				for _, c := range d.Children {
					walk(c)
				}
			}
			walk(n)
			for _, c := range n.Children {
				descend(c, visit)
			}
		}
		ok := true
		for _, lb := range b.Labels() {
			sb := At(b, lb)
			descend(a.Program().Root, func(anc, desc *Node) {
				cAnc := ConflictBetween(At(a, anc.Label), sb)
				cDesc := ConflictBetween(At(a, desc.Label), sb)
				if cAnc == NoConflict && cDesc != NoConflict {
					ok = false
				}
				if cAnc == Conflict && cDesc != Conflict {
					ok = false
				}
				// Safety of the advancing side is monotone non-decreasing.
				if SafetyOf(At(a, anc.Label), sb) > SafetyOf(At(a, desc.Label), sb) {
					ok = false
				}
			})
			if b.IsLeaf(lb) {
				for _, la := range a.Labels() {
					if a.IsLeaf(la) && ConflictBetween(At(a, la), sb) == ConditionallyConflict {
						ok = false
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 75}); err != nil {
		t.Fatal(err)
	}
}

// Property: conflict classification trichotomy and consistency with
// might-access sets on random tree pairs.
func TestQuickConflictConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := mustAnalyze(genProgram(rng, "A"))
		b := mustAnalyze(genProgram(rng, "B"))
		for _, la := range a.Labels() {
			sa := At(a, la)
			for _, lb := range b.Labels() {
				sb := At(b, lb)
				c := ConflictBetween(sa, sb)
				if c != ConflictBetween(sb, sa) {
					return false // symmetry
				}
				overlap := sa.mightAccess().Intersects(sb.mightAccess())
				switch c {
				case NoConflict:
					// all leaf pairs disjoint => unions disjoint
					if overlap {
						return false
					}
				case Conflict, ConditionallyConflict:
					if !overlap {
						return false
					}
				}
				// safety consistency
				s := SafetyOf(sa, sb)
				hasOverlap := sa.hasAccessed().Intersects(sb.mightAccess())
				if (s == Safe) == hasOverlap {
					return false
				}
				// A transaction that accessed nothing is safe wrt anything.
				if sa.hasAccessed().empty() && s != Safe {
					return false
				}
				// Unsafe implies conflict is not NoConflict.
				if s == Unsafe && c == NoConflict {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
