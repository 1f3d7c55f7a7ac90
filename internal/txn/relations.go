package txn

import "fmt"

// ConflictClass classifies the conflict relation between two transaction
// states (paper §3.2.2).
type ConflictClass int

const (
	// NoConflict: for every pair of execution paths the two transactions'
	// might-access sets are disjoint.
	NoConflict ConflictClass = iota
	// ConditionallyConflict: some pairs of execution paths overlap and
	// some do not; whether the transactions conflict depends on their
	// future decisions.
	ConditionallyConflict
	// Conflict: every pair of execution paths overlaps; the transactions
	// will conflict no matter which branches they take.
	Conflict
)

// String returns the class name.
func (c ConflictClass) String() string {
	switch c {
	case NoConflict:
		return "no-conflict"
	case ConditionallyConflict:
		return "conditionally-conflict"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("ConflictClass(%d)", int(c))
	}
}

// SafetyClass classifies how a partially executed transaction relates to a
// transaction that is about to be scheduled (paper §3.2.2). It determines
// whether the partially executed one would have to be rolled back.
type SafetyClass int

const (
	// Safe: the partially executed transaction has accessed nothing the
	// other might access; blocking suffices, no rollback is needed.
	Safe SafetyClass = iota
	// ConditionallyUnsafe: on some execution paths of the scheduled
	// transaction a rollback would be needed, on others not.
	ConditionallyUnsafe
	// Unsafe: on every execution path of the scheduled transaction the
	// partially executed one must be rolled back.
	Unsafe
)

// String returns the class name.
func (s SafetyClass) String() string {
	switch s {
	case Safe:
		return "safe"
	case ConditionallyUnsafe:
		return "conditionally-unsafe"
	case Unsafe:
		return "unsafe"
	default:
		return fmt.Sprintf("SafetyClass(%d)", int(s))
	}
}

// State is a transaction's position in its program: an analysis plus the
// label of the node it most recently reached.
type State struct {
	analysis *Analysis
	label    string
}

// NewState returns the state of a freshly started transaction of the given
// analysed program (positioned at the root).
func NewState(a *Analysis) State {
	return State{analysis: a, label: a.Program().Root.Label}
}

// At returns the state positioned at the given label.
func At(a *Analysis, label string) State {
	if a.node(label) == nil {
		panic(fmt.Sprintf("txn: program %q has no node %q", a.Program().Name, label))
	}
	return State{analysis: a, label: label}
}

// hasAccessed returns the items the transaction has accessed so far.
func (s State) hasAccessed() Set { return s.analysis.HasAccessed(s.label) }

// mightAccess returns the items the transaction might access.
func (s State) mightAccess() Set { return s.analysis.MightAccess(s.label) }

// leaves returns the leaf labels reachable from the state.
func (s State) leaves() []string { return s.analysis.Leaves(s.label) }

// ConflictBetween classifies the conflict relation between two transaction
// states, following the paper's definitions:
//
//   - conflict iff for all leaves p of A and q of B,
//     mightaccess(p) ∩ mightaccess(q) ≠ ∅;
//   - conditionally conflict iff some leaf pair intersects and some leaf
//     pair does not;
//   - don't conflict otherwise (no leaf pair intersects).
//
// The relation is symmetric.
func ConflictBetween(a, b State) ConflictClass {
	anyOverlap, anyDisjoint := false, false
	for _, p := range a.leaves() {
		mp := a.analysis.MightAccess(p)
		for _, q := range b.leaves() {
			if mp.Intersects(b.analysis.MightAccess(q)) {
				anyOverlap = true
			} else {
				anyDisjoint = true
			}
			if anyOverlap && anyDisjoint {
				return ConditionallyConflict
			}
		}
	}
	switch {
	case anyOverlap:
		return Conflict
	default:
		return NoConflict
	}
}

// SafetyOf classifies how the partially executed transaction `part` relates
// to the transaction `sched` that is about to be scheduled:
//
//   - safe iff hasaccessed(part) ∩ mightaccess(sched) = ∅;
//   - unsafe iff for every leaf q of sched,
//     hasaccessed(part) ∩ mightaccess(q) ≠ ∅;
//   - conditionally unsafe iff the intersection with mightaccess(sched) is
//     non-empty but some leaf of sched avoids it.
//
// Unlike conflict, safety is not symmetric: it depends on what `part` has
// already accessed.
func SafetyOf(part, sched State) SafetyClass {
	has := part.hasAccessed()
	if !has.Intersects(sched.mightAccess()) {
		return Safe
	}
	for _, q := range sched.leaves() {
		if !has.Intersects(sched.analysis.MightAccess(q)) {
			return ConditionallyUnsafe
		}
	}
	return Unsafe
}

// relationTable precomputes the pairwise conflict classification for every
// (node, node) pair of two programs. The scheduler consults tables like this
// instead of re-deriving relations at every scheduling point; the paper
// argues this space-for-time trade-off is reasonable for an RTDBS (§3.2.2).
type relationTable struct {
	a, b     *Analysis
	conflict map[[2]string]ConflictClass
	safety   map[[2]string]SafetyClass
}

// buildRelationTable computes the full table between two analysed programs
// (which may be the same program, for self-relations between two instances).
func buildRelationTable(a, b *Analysis) *relationTable {
	t := &relationTable{
		a:        a,
		b:        b,
		conflict: make(map[[2]string]ConflictClass),
		safety:   make(map[[2]string]SafetyClass),
	}
	for _, la := range a.Labels() {
		sa := At(a, la)
		for _, lb := range b.Labels() {
			sb := At(b, lb)
			t.conflict[[2]string{la, lb}] = ConflictBetween(sa, sb)
			t.safety[[2]string{la, lb}] = SafetyOf(sa, sb)
		}
	}
	return t
}

// conflictOf returns the precomputed conflict class for (labelA, labelB).
func (t *relationTable) conflictOf(labelA, labelB string) ConflictClass {
	return t.conflict[[2]string{labelA, labelB}]
}

// safetyOf returns the precomputed safety class of a partially executed
// transaction at labelA with respect to scheduling a transaction at labelB.
func (t *relationTable) safetyOf(labelA, labelB string) SafetyClass {
	return t.safety[[2]string{labelA, labelB}]
}
