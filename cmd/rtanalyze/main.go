// Command rtanalyze runs the paper's transaction pre-analysis (§3.2.2) on
// transaction programs, printing each node's hasaccessed/mightaccess sets
// and the pairwise conflict and safety classifications.
//
// With no arguments it analyses the paper's own Figure 1/2 example
// (programs A and B). Given files, each file holds one program in the
// indentation-based text format of rtdbs.ParseProgram (the format
// rtdbs.WriteProgram emits):
//
//	program A
//	node A accesses 0
//	  node Aa accesses 1 2 3
//	  node Ab accesses 4 5 6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, analyses the programs
// and returns the process exit code (0 success, 1 unreadable or invalid
// program, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: rtanalyze [program-file ...]")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var programs []*rtdbs.Program
	if fs.NArg() == 0 {
		programs = paperExample()
		fmt.Fprintln(stdout, "(no files given; analysing the paper's Figure 1/2 example)")
	}
	for _, path := range fs.Args() {
		p, err := readProgram(path)
		if err != nil {
			fmt.Fprintf(stderr, "rtanalyze: %s: %v\n", path, err)
			return 1
		}
		programs = append(programs, p)
	}

	analyses := make([]*rtdbs.Analysis, len(programs))
	for i, p := range programs {
		a, err := rtdbs.AnalyzeProgram(p)
		if err != nil {
			fmt.Fprintf(stderr, "rtanalyze: %v\n", err)
			return 1
		}
		analyses[i] = a
		printAnalysis(stdout, a)
	}

	fmt.Fprintln(stdout, "Pairwise relations between program roots:")
	for i, a := range analyses {
		for j, b := range analyses {
			if j <= i {
				continue
			}
			sa := rtdbs.StateAt(a, a.Program().Root.Label)
			sb := rtdbs.StateAt(b, b.Program().Root.Label)
			fmt.Fprintf(stdout, "  %s vs %s: %v\n", a.Program().Name, b.Program().Name, rtdbs.ConflictBetween(sa, sb))
			fmt.Fprintf(stdout, "    safety(%s wrt %s) = %v\n", a.Program().Name, b.Program().Name, rtdbs.SafetyOf(sa, sb))
			fmt.Fprintf(stdout, "    safety(%s wrt %s) = %v\n", b.Program().Name, a.Program().Name, rtdbs.SafetyOf(sb, sa))
		}
	}
	return 0
}

// readProgram parses one program file.
func readProgram(path string) (*rtdbs.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rtdbs.ParseProgram(f)
}

func printAnalysis(w io.Writer, a *rtdbs.Analysis) {
	fmt.Fprintf(w, "Program %s:\n", a.Program().Name)
	for _, label := range a.Labels() {
		leaf := ""
		if a.IsLeaf(label) {
			leaf = " (leaf)"
		}
		fmt.Fprintf(w, "  %-8s hasaccessed=%v  mightaccess=%v%s\n",
			label, a.HasAccessed(label), a.MightAccess(label), leaf)
	}
	fmt.Fprintln(w)
}

// paperExample builds Figure 1's programs A and B (item 0 is "w",
// items 1..6 are I1..I6).
func paperExample() []*rtdbs.Program {
	a := &rtdbs.Program{
		Name: "A",
		Root: &rtdbs.Node{
			Label: "A", Accesses: rtdbs.NewItemSet(0),
			Children: []*rtdbs.Node{
				{Label: "Aa", Accesses: rtdbs.NewItemSet(1, 2, 3)},
				{Label: "Ab", Accesses: rtdbs.NewItemSet(4, 5, 6)},
			},
		},
	}
	return []*rtdbs.Program{a, rtdbs.FlatProgram("B", 1, 2, 3)}
}
