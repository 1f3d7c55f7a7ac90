// Package db implements the database itself: a main-memory array of
// versioned objects with per-transaction undo logging.
//
// The paper's simulator models data only as lock identities; this package
// makes the data real so that the reproduction can *verify* consistency
// rather than assume it: every update installs a before-image in the
// writer's undo log, aborts restore before-images in reverse order (the
// paper's fixed-cost rollback corresponds to discarding this log), and the
// test suite checks that the final database state is exactly the one
// produced by the equivalent serial history of committed transactions.
package db

import (
	"fmt"

	"repro/internal/txn"
)

// TxnID identifies a transaction to the store.
type TxnID int

// Value is the content of one database object. The payload is synthetic —
// what matters for verification is the identity of the last writer and the
// global write sequence number, which together make every state of the
// database distinguishable.
type Value struct {
	// Writer is the transaction that produced this value (-1 initially).
	Writer TxnID
	// incarnation is the writer's restart count at the time of the write.
	incarnation int
	// seq is the global write sequence number (0 = initial value).
	seq uint64
}

type undoRec struct {
	item   txn.Item
	before Value
}

// Store is a main-memory database with undo logging (strict before-image
// rollback, matching strict 2PL: a transaction's writes are undone only if
// it aborts, and nobody else can have read them because writers hold
// exclusive locks until commit).
//
// Undo logs are dense slices indexed by transaction ID (IDs are dense
// arrival indices throughout the repository): commit and abort empty a log
// but keep its capacity, so a restarted transaction's next life — and the
// write-heavy engine hot path generally — logs before-images without
// allocating.
type Store struct {
	values []Value
	undo   [][]undoRec // by TxnID; emptied (capacity kept) on commit/abort
	active int         // transactions with a non-empty undo log
	seq    uint64

	writes  uint64
	reads   uint64
	aborts  uint64
	commits uint64
}

// New returns a store of n objects holding their initial values.
func New(n int) *Store {
	if n <= 0 {
		panic(fmt.Sprintf("db: store size %d <= 0", n))
	}
	s := &Store{
		values: make([]Value, n),
	}
	for i := range s.values {
		s.values[i] = Value{Writer: -1}
	}
	return s
}

// undoOf returns t's undo log (nil if none).
func (s *Store) undoOf(t TxnID) []undoRec {
	if int(t) < 0 || int(t) >= len(s.undo) {
		return nil
	}
	return s.undo[t]
}

// size returns the number of objects.
func (s *Store) size() int { return len(s.values) }

func (s *Store) check(item txn.Item) {
	if int(item) < 0 || int(item) >= len(s.values) {
		panic(fmt.Sprintf("db: item %d outside store of size %d", item, len(s.values)))
	}
}

// Read returns the current value of item, charging a read to t's stats.
func (s *Store) Read(t TxnID, item txn.Item) Value {
	s.check(item)
	s.reads++
	return s.values[item]
}

// Write installs a new version of item written by t, saving the
// before-image in t's undo log. The caller (the engine) is responsible for
// holding the exclusive lock.
func (s *Store) Write(t TxnID, incarnation int, item txn.Item) Value {
	s.check(item)
	if n := int(t) + 1; n > len(s.undo) {
		if n < 2*len(s.undo) {
			n = 2 * len(s.undo)
		}
		grown := make([][]undoRec, n)
		copy(grown, s.undo)
		s.undo = grown
	}
	if len(s.undo[t]) == 0 {
		s.active++
		if s.undo[t] == nil {
			s.undo[t] = make([]undoRec, 0, 32)
		}
	}
	s.undo[t] = append(s.undo[t], undoRec{item: item, before: s.values[item]})
	s.seq++
	s.writes++
	v := Value{Writer: t, incarnation: incarnation, seq: s.seq}
	s.values[item] = v
	return v
}

// Get returns the current value without attributing a read (inspection).
func (s *Store) Get(item txn.Item) Value {
	s.check(item)
	return s.values[item]
}

// Pending returns the number of uncommitted writes of t.
func (s *Store) Pending(t TxnID) int { return len(s.undoOf(t)) }

// Abort rolls t back: before-images are restored in reverse order and the
// undo log is discarded. It returns the number of writes undone.
func (s *Store) Abort(t TxnID) int {
	log := s.undoOf(t)
	for i := len(log) - 1; i >= 0; i-- {
		s.values[log[i].item] = log[i].before
	}
	if len(log) > 0 {
		s.active--
		s.undo[t] = log[:0]
	}
	s.aborts++
	return len(log)
}

// Commit makes t's writes permanent by discarding its undo log. It returns
// the number of writes committed.
func (s *Store) Commit(t TxnID) int {
	n := len(s.undoOf(t))
	if n > 0 {
		s.active--
		s.undo[t] = s.undo[t][:0]
	}
	s.commits++
	return n
}

// ActiveWriters returns the number of transactions with pending writes.
func (s *Store) ActiveWriters() int { return s.active }

// Stats returns cumulative operation counts.
func (s *Store) Stats() (reads, writes, commits, aborts uint64) {
	return s.reads, s.writes, s.commits, s.aborts
}

// snapshot copies the current values (verification).
func (s *Store) snapshot() []Value {
	return append([]Value(nil), s.values...)
}

// CheckClean panics unless no undo logs remain (every transaction either
// committed or aborted) — called at end of simulation by the engine's
// invariant checks.
func (s *Store) CheckClean() {
	if s.active != 0 {
		panic(fmt.Sprintf("db: %d transactions left pending undo logs", s.active))
	}
}
