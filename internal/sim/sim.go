// Package sim implements a deterministic discrete-event simulation kernel.
//
// It is the Go equivalent of the SIMPACK event-scheduling core the paper's
// original C simulator was built on: a virtual clock, an event calendar
// ordered by firing time, and cancellable events. Events scheduled for the
// same instant fire in FIFO order of scheduling, which makes every run fully
// deterministic for a given seed and input.
//
// The kernel is single-threaded by design. Parallelism in this repository
// lives above the kernel: the experiment harness runs many independent
// simulations (seeds x sweep points x policies) concurrently, each with its
// own Simulator.
//
// Engines schedule hundreds of thousands of events per run, so the calendar
// recycles event records through a per-Simulator free list instead of
// allocating each one on the heap. Callers hold generation-checked Handle
// values: a Handle captures the incarnation of the record it was issued
// for, so Cancel (or Pending/cancelled) on a handle whose event has already
// fired is a guaranteed no-op even after the record has been reused for an
// unrelated event.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in simulated time, expressed as an offset from the start
// of the simulation. Using time.Duration gives nanosecond resolution, far
// finer than the paper's millisecond-scale parameters.
type Time = time.Duration

// event is one scheduled-callback record in the calendar. Records are owned
// and recycled by the Simulator; callers refer to them only through the
// generation-checked Handle returned by At and After.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// index is the record's position in the heap, -1 once removed.
	index int
	// gen is the record's incarnation counter: it is bumped every time the
	// record leaves the calendar (fire or cancel), so a Handle issued for
	// an earlier incarnation can never act on a recycled record.
	gen uint64
	// cancelledGen remembers the incarnation (if any) that was removed by
	// Cancel rather than by firing, so Handle.cancelled stays answerable
	// after the record is recycled.
	cancelledGen uint64
}

// Handle is a caller's reference to one scheduled event. It is a small
// value (no allocation) pairing the calendar record with the incarnation it
// was issued for. The zero Handle refers to no event: Pending and cancelled
// report false and Cancel is a no-op.
type Handle struct {
	ev  *event
	gen uint64
	at  Time
}

// Pending reports whether the event is still in the calendar: it has
// neither fired nor been cancelled. A stale handle — one whose record has
// been recycled for a different event — reports false.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.gen == h.gen }

// cancelled reports whether Cancel removed this handle's event before it
// fired. It answers for exactly the incarnation the handle was issued for:
// a handle whose event fired reports false forever, even after the
// underlying record is recycled and the new incarnation is cancelled.
func (h Handle) cancelled() bool { return h.ev != nil && h.ev.cancelledGen == h.gen }

// eventSlabSize is the batch size for refilling the free list: records are
// allocated in slabs so calendar growth amortises to one allocation per slab.
const eventSlabSize = 64

// Simulator owns the virtual clock and the event calendar.
type Simulator struct {
	now      Time
	seq      uint64
	calendar eventHeap
	executed uint64
	// free holds recycled event records (LIFO).
	free []*event
}

// New returns an empty simulator with the clock at zero. Event records are
// pooled: each fire or cancel returns the record to a free list for the
// next At/After, so a long run's calendar allocates only up to its
// high-water mark of concurrently pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events that have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.calendar) }

// NextAt returns the firing time of the earliest pending event. ok is false
// when the calendar is empty. It is the peek a clock driver needs to decide
// how long to sleep before the next Step.
func (s *Simulator) NextAt() (t Time, ok bool) {
	if len(s.calendar) == 0 {
		return 0, false
	}
	return s.calendar[0].at, true
}

// At schedules fn to run at absolute simulated time t. It panics if t is in
// the past; scheduling at the current instant is allowed and fires after all
// previously scheduled events for that instant (FIFO order).
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		// Refill the free list a slab at a time: growing the calendar to its
		// high-water mark costs one allocation per batch, not per event.
		// gen starts at 1 so a zero Handle (gen 0) can never match, and
		// cancelledGen 0 means "no incarnation was ever cancelled".
		slab := make([]event, eventSlabSize)
		for i := range slab {
			slab[i].gen = 1
		}
		for i := eventSlabSize - 1; i > 0; i-- {
			s.free = append(s.free, &slab[i])
		}
		e = &slab[0]
	}
	e.at, e.seq, e.fn = t, s.seq, fn
	s.seq++
	heap.Push(&s.calendar, e)
	return Handle{ev: e, gen: e.gen, at: t}
}

// After schedules fn to run d after the current simulated time.
func (s *Simulator) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// recycle retires a record that has left the calendar: its incarnation is
// closed (so stale handles go inert) and the record returns to the free list.
func (s *Simulator) recycle(e *event) {
	e.gen++
	e.fn = nil
	s.free = append(s.free, e)
}

// Cancel removes a scheduled event from the calendar. It reports whether the
// event was still pending; cancelling an already-fired, already-cancelled or
// zero handle is a harmless no-op that returns false and can never disturb a
// recycled record (the handle's generation no longer matches).
func (s *Simulator) Cancel(h Handle) bool {
	e := h.ev
	if e == nil || e.gen != h.gen {
		return false
	}
	heap.Remove(&s.calendar, e.index)
	e.cancelledGen = e.gen
	s.recycle(e)
	return true
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (s *Simulator) Step() bool {
	if len(s.calendar) == 0 {
		return false
	}
	e := heap.Pop(&s.calendar).(*event)
	s.now = e.at
	s.executed++
	fn := e.fn
	// Recycle before running the callback: the fired incarnation is over,
	// so the callback (and anything it schedules) may reuse the record —
	// a handle to the fired event is already inert by generation check.
	s.recycle(e)
	fn()
	return true
}

// Run fires events until the calendar drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with firing time <= t, then advances the clock to t.
// Events scheduled exactly at t do fire.
func (s *Simulator) RunUntil(t Time) {
	for len(s.calendar) > 0 && s.calendar[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// eventHeap is a min-heap ordered by (time, scheduling sequence).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
