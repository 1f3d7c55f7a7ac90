package txn

import (
	"fmt"
	"sort"
)

// Node is one vertex of a transaction tree. The root represents the start of
// the transaction program; every decision point (a conditional that commits
// the execution to a subset of the data set) splits the tree into one child
// per branch. Accesses holds the items the transaction accesses after
// reaching this node and before reaching its next decision point. A node
// with no children is a leaf: an execution state from which no further
// decision points will run.
type Node struct {
	// Label uniquely identifies the node within its program (paper
	// notation: "A", "Aa", "Ab", ...).
	Label string
	// Accesses is the set of items accessed between this node and the
	// next decision point (or commit, for a leaf).
	Accesses Set
	// Children are the branches of the decision point at the end of this
	// node's straight-line section; empty for leaves.
	Children []*Node
}

// Program is a pre-analysed transaction program: a tree of decision points.
// The paper notes a loop-free program is really a DAG but uses a tree for
// simplicity; we follow the paper.
type Program struct {
	// Name identifies the program (and is conventionally the root label).
	Name string
	// Root is the entry node.
	Root *Node
}

// Flat returns a single-node program that unconditionally accesses the given
// items. Workload transactions in the paper's simulations are flat: the
// simulated pre-analysis distinguishes only safe/unsafe, never
// conditionally-unsafe (paper §4).
func Flat(name string, items ...Item) *Program {
	return &Program{Name: name, Root: &Node{Label: name, Accesses: NewSet(items...)}}
}

// validate checks the structural invariants of the program: a non-nil root,
// non-nil nodes, and unique labels. Analysis requires a valid program.
func (p *Program) validate() error {
	if p == nil || p.Root == nil {
		return fmt.Errorf("txn: program %q has no root", p.name())
	}
	seen := make(map[string]bool)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("txn: program %q contains a nil node", p.Name)
		}
		if n.Label == "" {
			return fmt.Errorf("txn: program %q contains a node with an empty label", p.Name)
		}
		if seen[n.Label] {
			return fmt.Errorf("txn: program %q has duplicate label %q", p.Name, n.Label)
		}
		seen[n.Label] = true
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(p.Root)
}

func (p *Program) name() string {
	if p == nil {
		return "<nil>"
	}
	return p.Name
}

// Analysis holds the per-node hasaccessed / mightaccess sets and leaf lists
// derived from a program, exactly as defined in paper §3.2.2:
//
//	hasaccessed(P) = union of accesses(K) for K on the root-to-P path
//	mightaccess(P) = hasaccessed(P)                      if P is a leaf
//	                 union over children C of mightaccess(C)  otherwise
type Analysis struct {
	prog        *Program
	nodes       map[string]*Node
	hasAccessed map[string]Set
	mightAccess map[string]Set
	leaves      map[string][]string
	parent      map[string]string
}

// Analyze validates the program and computes its analysis tables.
func Analyze(p *Program) (*Analysis, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		prog:        p,
		nodes:       make(map[string]*Node),
		hasAccessed: make(map[string]Set),
		mightAccess: make(map[string]Set),
		leaves:      make(map[string][]string),
		parent:      make(map[string]string),
	}
	var walk func(n *Node, pathAcc Set)
	walk = func(n *Node, pathAcc Set) {
		a.nodes[n.Label] = n
		has := pathAcc.union(n.Accesses)
		a.hasAccessed[n.Label] = has
		if len(n.Children) == 0 {
			a.mightAccess[n.Label] = has
			a.leaves[n.Label] = []string{n.Label}
			return
		}
		might := Set{}
		var lv []string
		for _, c := range n.Children {
			a.parent[c.Label] = n.Label
			walk(c, has)
			might = might.union(a.mightAccess[c.Label])
			lv = append(lv, a.leaves[c.Label]...)
		}
		a.mightAccess[n.Label] = might
		a.leaves[n.Label] = lv
	}
	walk(p.Root, Set{})
	return a, nil
}

// Program returns the analysed program.
func (a *Analysis) Program() *Program { return a.prog }

// node returns the node with the given label, or nil.
func (a *Analysis) node(label string) *Node { return a.nodes[label] }

// Labels returns all node labels in sorted order.
func (a *Analysis) Labels() []string {
	out := make([]string, 0, len(a.nodes))
	for l := range a.nodes {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// HasAccessed returns the set of items a transaction at the given label has
// accessed (under the paper's convention that items are accessed when the
// transaction begins and immediately after each decision point).
func (a *Analysis) HasAccessed(label string) Set { return a.hasAccessed[label] }

// MightAccess returns the set of items a transaction at the given label
// might still access on some execution path (including what it has already
// accessed).
func (a *Analysis) MightAccess(label string) Set { return a.mightAccess[label] }

// Leaves returns the labels of the leaves of the subtree rooted at label.
func (a *Analysis) Leaves(label string) []string { return a.leaves[label] }

// IsLeaf reports whether the label names a leaf node.
func (a *Analysis) IsLeaf(label string) bool {
	n := a.nodes[label]
	return n != nil && len(n.Children) == 0
}
