// Package trace defines the engine's structured event stream: every
// scheduling-relevant transition (arrival, dispatch, preemption, wound,
// block, IO, commit) as a typed event. The test suite uses it to assert
// behavioural properties — e.g. that a wound's victim never outranks its
// wounder (the paper's Lemma 1) — and tools use it for timeline inspection
// without parsing the human-readable trace text.
package trace

import (
	"fmt"
	"time"

	"repro/internal/txn"
)

// Kind enumerates event types.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	Arrival Kind = iota
	Dispatch
	Preempt
	Wound
	Block
	Wake
	IOStart
	IODone
	rollback
	Deadlock
	Commit
	// Reject marks an arrival turned away by the admission controller.
	Reject
)

var kindNames = [...]string{
	"arrival", "dispatch", "preempt", "wound", "block", "wake",
	"io-start", "io-done", "rollback", "deadlock", "commit", "reject",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one engine transition.
type Event struct {
	// At is the simulated time of the event.
	At time.Duration
	// Kind is the transition type.
	Kind Kind
	// Txn is the primary transaction (the one arriving, dispatched,
	// wounding, blocking, committing, ...).
	Txn int
	// Other is the counterparty (wound victim, blocking holder), or -1.
	Other int
	// Item is the data item involved, or -1.
	Item txn.Item
	// Priority is Txn's priority at the event (0 when not meaningful).
	Priority float64
	// OtherPriority is Other's priority at the event.
	OtherPriority float64
	// Secondary marks a Dispatch that occurred while a higher-priority
	// transaction was blocked (the paper's secondary transaction).
	Secondary bool
}

// String renders the event on one line.
func (e Event) String() string {
	s := fmt.Sprintf("%10.3fms %-9s T%d", float64(e.At)/float64(time.Millisecond), e.Kind, e.Txn)
	if e.Other >= 0 {
		s += fmt.Sprintf(" ↔ T%d", e.Other)
	}
	if e.Item >= 0 {
		s += fmt.Sprintf(" item=%d", e.Item)
	}
	if e.Secondary {
		s += " (secondary)"
	}
	return s
}

// Recorder consumes events.
type Recorder interface {
	Record(Event)
}

// Buffer is an in-memory Recorder with an optional filter and capacity
// bound (0 = unbounded). When full it drops the oldest events.
type Buffer struct {
	Filter  func(Event) bool
	Cap     int
	events  []Event
	dropped int
}

// Record stores the event if it passes the filter.
func (b *Buffer) Record(e Event) {
	if b.Filter != nil && !b.Filter(e) {
		return
	}
	if b.Cap > 0 && len(b.events) >= b.Cap {
		b.events = b.events[1:]
		b.dropped++
	}
	b.events = append(b.events, e)
}

// Events returns the recorded events in order.
func (b *Buffer) Events() []Event { return b.events }

// OfKind returns the recorded events of one kind.
func (b *Buffer) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range b.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of recorded events of a kind.
func (b *Buffer) Count(k Kind) int { return len(b.OfKind(k)) }
