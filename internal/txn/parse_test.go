package txn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const paperAText = `
# Figure 1's program A: read w (item 0), branch on its value.
program A
node A accesses 0
  node Aa accesses 1 2 3   # w > 100
  node Ab accesses 4 5 6   # w <= 100
`

func TestParsePaperProgram(t *testing.T) {
	p, err := ParseProgram(strings.NewReader(paperAText))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "A" {
		t.Fatalf("name = %q", p.Name)
	}
	a := mustAnalyze(p)
	if !a.MightAccess("A").equal(NewSet(0, 1, 2, 3, 4, 5, 6)) {
		t.Fatalf("mightaccess(A) = %v", a.MightAccess("A"))
	}
	if !a.IsLeaf("Aa") || !a.IsLeaf("Ab") || a.IsLeaf("A") {
		t.Fatal("tree shape wrong")
	}
}

func TestParseDeepNesting(t *testing.T) {
	text := `program T2
node T21
  node T22 accesses 10
    node T24 accesses 12
    node T25 accesses 13
  node T23 accesses 11
    node T26 accesses 12
    node T27 accesses 13
`
	p, err := ParseProgram(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyze(p)
	if got := a.Leaves("T21"); len(got) != 4 {
		t.Fatalf("leaves = %v", got)
	}
	if !a.HasAccessed("T26").equal(NewSet(11, 12)) {
		t.Fatalf("hasaccessed(T26) = %v", a.HasAccessed("T26"))
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"no header":       "node x accesses 1\n",
		"bad header":      "prog A\nnode A\n",
		"bad node line":   "program A\nnde A\n",
		"bad keyword":     "program A\nnode A acceses 1\n",
		"bad item":        "program A\nnode A accesses x\n",
		"negative item":   "program A\nnode A accesses -2\n",
		"two roots":       "program A\nnode A accesses 1\nnode B accesses 2\n",
		"duplicate label": "program A\nnode A\n  node B\n  node B\n",
	}
	for name, text := range cases {
		if _, err := ParseProgram(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestParseAccesslessNode(t *testing.T) {
	p, err := ParseProgram(strings.NewReader("program P\nnode root\n  node a accesses 1\n  node b accesses 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyze(p)
	if !a.HasAccessed("root").empty() {
		t.Fatal("access-less root should have empty hasaccessed")
	}
}

func TestWriteProgramRoundTrip(t *testing.T) {
	orig, err := ParseProgram(strings.NewReader(paperAText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseProgram(&buf)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if !equalPrograms(orig, back) {
		t.Fatalf("round trip changed the program:\n%s", buf.String())
	}
}

func TestWriteProgramRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProgram(&buf, &Program{Name: "x"}); err == nil {
		t.Fatal("invalid program written")
	}
}

func equalPrograms(a, b *Program) bool {
	if a.Name != b.Name {
		return false
	}
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if x.Label != y.Label || !x.Accesses.equal(y.Accesses) || len(x.Children) != len(y.Children) {
			return false
		}
		for i := range x.Children {
			if !eq(x.Children[i], y.Children[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.Root, b.Root)
}

// Property: write/parse round trip is the identity on random trees.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := genProgram(rng, "P")
		var buf bytes.Buffer
		if err := WriteProgram(&buf, p); err != nil {
			return false
		}
		back, err := ParseProgram(&buf)
		if err != nil {
			return false
		}
		return equalPrograms(p, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
