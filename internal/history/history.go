// Package history records the data operations of a simulation run and
// checks them for conflict serializability.
//
// Strict two-phase locking with wound-based restarts must produce
// serializable histories; the engine's tests use this package to verify
// that property end-to-end instead of assuming it. Operations of aborted
// incarnations are discarded (their effects were undone by the store's
// before-image rollback), so the checked history contains exactly the
// final, committed incarnation of every transaction.
package history

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/txn"
)

// Kind distinguishes reads from writes.
type Kind int

const (
	// Read is a shared access.
	Read Kind = iota
	// Write is an exclusive access.
	Write
)

// String returns "r" or "w".
func (k Kind) String() string {
	if k == Write {
		return "w"
	}
	return "r"
}

// Op is one data access by a transaction incarnation.
type Op struct {
	Txn  int
	Item txn.Item
	Kind Kind
	at   time.Duration
	seq  uint64
}

// History accumulates operations and commit/abort outcomes.
type History struct {
	pending    map[int][]Op // current incarnation's ops per transaction
	committed  []Op         // ops of committed incarnations, in global order
	commits    map[int]time.Duration
	abortedOps uint64
	seq        uint64
}

// New returns an empty history.
func New() *History {
	return &History{
		pending: make(map[int][]Op),
		commits: make(map[int]time.Duration),
	}
}

// Add records one access of the current incarnation of t.
func (h *History) Add(t int, item txn.Item, kind Kind, at time.Duration) {
	h.seq++
	h.pending[t] = append(h.pending[t], Op{Txn: t, Item: item, Kind: kind, at: at, seq: h.seq})
}

// Abort discards the current incarnation's operations (their effects were
// rolled back).
func (h *History) Abort(t int) {
	h.abortedOps += uint64(len(h.pending[t]))
	delete(h.pending, t)
}

// Commit finalises the current incarnation of t.
func (h *History) Commit(t int, at time.Duration) {
	if _, dup := h.commits[t]; dup {
		panic(fmt.Sprintf("history: transaction %d committed twice", t))
	}
	h.committed = append(h.committed, h.pending[t]...)
	delete(h.pending, t)
	h.commits[t] = at
}

// Committed returns the number of committed transactions.
func (h *History) Committed() int { return len(h.commits) }

// Ops returns the committed operations in global execution order.
func (h *History) Ops() []Op {
	out := append([]Op(nil), h.committed...)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// AbortedOps returns how many operations were discarded by aborts.
func (h *History) AbortedOps() uint64 { return h.abortedOps }

// conflictEdges builds the conflict graph: an edge A -> B whenever an
// operation of A precedes a conflicting operation of B on the same item
// (conflicting = at least one is a write, different transactions).
func (h *History) conflictEdges() map[int]map[int]bool {
	ops := h.Ops()
	byItem := make(map[txn.Item][]Op)
	for _, op := range ops {
		byItem[op.Item] = append(byItem[op.Item], op)
	}
	edges := make(map[int]map[int]bool)
	addEdge := func(a, b int) {
		if edges[a] == nil {
			edges[a] = make(map[int]bool)
		}
		edges[a][b] = true
	}
	for _, seq := range byItem {
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				a, b := seq[i], seq[j]
				if a.Txn != b.Txn && (a.Kind == Write || b.Kind == Write) {
					addEdge(a.Txn, b.Txn)
				}
			}
		}
	}
	return edges
}

// Serializable reports whether the committed history is conflict
// serializable; if not, it returns one cycle of the conflict graph.
func (h *History) Serializable() (bool, []int) {
	edges := h.conflictEdges()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int]int)
	var stack []int
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = grey
		stack = append(stack, v)
		for w := range edges[v] {
			switch color[w] {
			case grey:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == w {
						break
					}
				}
				return true
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		color[v] = black
		stack = stack[:len(stack)-1]
		return false
	}
	nodes := make([]int, 0, len(edges))
	for v := range edges {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	for _, v := range nodes {
		if color[v] == white && dfs(v) {
			return false, cycle
		}
	}
	return true, nil
}

// SerialOrder returns a topological order of the conflict graph — an
// equivalent serial execution — or an error if the history is not
// serializable. Transactions without conflicts are placed by commit time.
func (h *History) SerialOrder() ([]int, error) {
	if ok, cycle := h.Serializable(); !ok {
		return nil, fmt.Errorf("history: not serializable; cycle %v", cycle)
	}
	edges := h.conflictEdges()
	indeg := make(map[int]int)
	for t := range h.commits {
		indeg[t] += 0
	}
	for _, outs := range edges {
		for w := range outs {
			indeg[w]++
		}
	}
	// Kahn's algorithm with commit-time tie-breaking for determinism.
	ready := make([]int, 0, len(indeg))
	for v, d := range indeg {
		if d == 0 {
			ready = append(ready, v)
		}
	}
	less := func(a, b int) bool {
		if h.commits[a] != h.commits[b] {
			return h.commits[a] < h.commits[b]
		}
		return a < b
	}
	sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
	var order []int
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		var woken []int
		for w := range edges[v] {
			indeg[w]--
			if indeg[w] == 0 {
				woken = append(woken, w)
			}
		}
		sort.Ints(woken)
		ready = append(ready, woken...)
		sort.Slice(ready, func(i, j int) bool { return less(ready[i], ready[j]) })
	}
	if len(order) != len(indeg) {
		return nil, fmt.Errorf("history: topological sort incomplete (%d/%d)", len(order), len(indeg))
	}
	return order, nil
}
