package txn

import (
	"strings"
	"testing"
)

// paperProgramA is Figure 1/2's program A: access w (item 0), then at the
// decision point branch to {I1,I2,I3} (items 1..3) or {I4,I5,I6} (items 4..6).
func paperProgramA() *Program {
	return &Program{
		Name: "A",
		Root: branch("A", NewSet(0),
			leaf("Aa", 1, 2, 3),
			leaf("Ab", 4, 5, 6),
		),
	}
}

// paperProgramB is Figure 1/2's program B: a straight-line access of
// {I1, I2, I3} with no decision points.
func paperProgramB() *Program {
	return Flat("B", 1, 2, 3)
}

// paperProgramT2 is Figure 3's auxiliary transaction tree: the root T21
// branches to T22 (accesses A) and T23 (accesses B); T22 branches to T24
// (accesses C) and T25 (accesses D); T23 branches to T26 (C) and T27 (D).
// Items: A=10, B=11, C=12, D=13.
func paperProgramT2() *Program {
	return &Program{
		Name: "T2",
		Root: branch("T21", Set{},
			branch("T22", NewSet(10),
				leaf("T24", 12),
				leaf("T25", 13),
			),
			branch("T23", NewSet(11),
				leaf("T26", 12),
				leaf("T27", 13),
			),
		),
	}
}

func TestValidateAcceptsPaperPrograms(t *testing.T) {
	for _, p := range []*Program{paperProgramA(), paperProgramB(), paperProgramT2()} {
		if err := p.validate(); err != nil {
			t.Fatalf("Validate(%s) = %v", p.Name, err)
		}
	}
}

func TestValidateRejectsNilRoot(t *testing.T) {
	if err := (&Program{Name: "x"}).validate(); err == nil {
		t.Fatal("nil root accepted")
	}
	var p *Program
	if err := p.validate(); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestValidateRejectsDuplicateLabels(t *testing.T) {
	p := &Program{Name: "d", Root: branch("d", Set{}, leaf("x"), leaf("x"))}
	err := p.validate()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate labels: err = %v", err)
	}
}

func TestValidateRejectsEmptyLabel(t *testing.T) {
	p := &Program{Name: "e", Root: branch("e", Set{}, leaf(""))}
	if err := p.validate(); err == nil {
		t.Fatal("empty label accepted")
	}
}

func TestValidateRejectsNilChild(t *testing.T) {
	p := &Program{Name: "n", Root: &Node{Label: "n", Children: []*Node{nil}}}
	if err := p.validate(); err == nil {
		t.Fatal("nil child accepted")
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	if _, err := Analyze(&Program{Name: "bad"}); err == nil {
		t.Fatal("Analyze accepted invalid program")
	}
}

func TestMustAnalyzePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustAnalyze did not panic")
		}
	}()
	mustAnalyze(&Program{Name: "bad"})
}

// TestPaperFigure2 checks hasaccessed/mightaccess for programs A and B.
func TestPaperFigure2(t *testing.T) {
	a := mustAnalyze(paperProgramA())

	if got := a.HasAccessed("A"); !got.equal(NewSet(0)) {
		t.Errorf("hasaccessed(A) = %v, want {0}", got)
	}
	if got := a.MightAccess("A"); !got.equal(NewSet(0, 1, 2, 3, 4, 5, 6)) {
		t.Errorf("mightaccess(A) = %v, want {0..6}", got)
	}
	if got := a.HasAccessed("Aa"); !got.equal(NewSet(0, 1, 2, 3)) {
		t.Errorf("hasaccessed(Aa) = %v", got)
	}
	if got := a.MightAccess("Aa"); !got.equal(NewSet(0, 1, 2, 3)) {
		t.Errorf("mightaccess(Aa) = %v", got)
	}
	if got := a.MightAccess("Ab"); !got.equal(NewSet(0, 4, 5, 6)) {
		t.Errorf("mightaccess(Ab) = %v", got)
	}

	b := mustAnalyze(paperProgramB())
	if got := b.MightAccess("B"); !got.equal(NewSet(1, 2, 3)) {
		t.Errorf("mightaccess(B) = %v", got)
	}
	if !b.IsLeaf("B") {
		t.Error("single-node program's root should be a leaf")
	}
}

// TestPaperFigure3 checks the auxiliary transaction tree's derived sets.
func TestPaperFigure3(t *testing.T) {
	a := mustAnalyze(paperProgramT2())

	wantHas := map[string]Set{
		"T21": {},
		"T22": NewSet(10),
		"T23": NewSet(11),
		"T24": NewSet(10, 12),
		"T25": NewSet(10, 13),
		"T26": NewSet(11, 12),
		"T27": NewSet(11, 13),
	}
	for label, want := range wantHas {
		if got := a.HasAccessed(label); !got.equal(want) {
			t.Errorf("hasaccessed(%s) = %v, want %v", label, got, want)
		}
	}
	wantMight := map[string]Set{
		"T21": NewSet(10, 11, 12, 13),
		"T22": NewSet(10, 12, 13),
		"T23": NewSet(11, 12, 13),
		"T24": NewSet(10, 12),
		"T27": NewSet(11, 13),
	}
	for label, want := range wantMight {
		if got := a.MightAccess(label); !got.equal(want) {
			t.Errorf("mightaccess(%s) = %v, want %v", label, got, want)
		}
	}
	if got := a.Leaves("T21"); len(got) != 4 {
		t.Errorf("leaves(T21) = %v, want 4 leaves", got)
	}
	if got := a.Leaves("T22"); len(got) != 2 {
		t.Errorf("leaves(T22) = %v, want 2 leaves", got)
	}
}

func TestAnalysisAccessors(t *testing.T) {
	a := mustAnalyze(paperProgramA())
	if a.Program().Name != "A" {
		t.Error("Program() wrong")
	}
	if a.node("Aa") == nil || a.node("zzz") != nil {
		t.Error("Node lookup wrong")
	}
	labels := a.Labels()
	want := []string{"A", "Aa", "Ab"}
	if len(labels) != len(want) {
		t.Fatalf("Labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", labels, want)
		}
	}
	if p, ok := a.parent["Aa"]; !ok || p != "A" {
		t.Errorf("parent[Aa] = %q, %v", p, ok)
	}
	if _, ok := a.parent["A"]; ok {
		t.Error("root should have no parent")
	}
	if !a.IsLeaf("Ab") || a.IsLeaf("A") {
		t.Error("IsLeaf wrong")
	}
}

func TestFlatProgram(t *testing.T) {
	p := Flat("F", 7, 8)
	a := mustAnalyze(p)
	if !a.IsLeaf("F") {
		t.Fatal("flat program root is not a leaf")
	}
	if !a.MightAccess("F").equal(NewSet(7, 8)) {
		t.Fatal("flat program might-access wrong")
	}
	if !a.HasAccessed("F").equal(a.MightAccess("F")) {
		t.Fatal("flat program has/might mismatch")
	}
}

// branch builds an interior node. It is a convenience for assembling
// programs in tests and examples.
func branch(label string, accesses Set, children ...*Node) *Node {
	return &Node{Label: label, Accesses: accesses, Children: children}
}

// leaf builds a leaf node.
func leaf(label string, items ...Item) *Node {
	return &Node{Label: label, Accesses: NewSet(items...)}
}

// mustAnalyze is Analyze for statically known-good programs; it panics on
// error.
func mustAnalyze(p *Program) *Analysis {
	a, err := Analyze(p)
	if err != nil {
		panic(err)
	}
	return a
}
