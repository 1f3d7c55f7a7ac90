package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestNewSimulatorStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
	if s.Executed() != 0 {
		t.Fatalf("Executed() = %d, want 0", s.Executed())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, d := range []time.Duration{30, 10, 20, 5, 25} {
		d := d
		s.At(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fired Time = -1
	s.At(50, func() {
		s.After(25, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 75 {
		t.Fatalf("nested After fired at %v, want 75", fired)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if !e.cancelled() {
		t.Fatal("event not marked cancelled")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
}

func TestCancelZeroHandleIsNoop(t *testing.T) {
	s := New()
	if s.Cancel(Handle{}) {
		t.Fatal("Cancel of the zero handle returned true")
	}
	if (Handle{}).Pending() || (Handle{}).cancelled() {
		t.Fatal("zero handle reports pending or cancelled")
	}
}

func TestCancelFiredEventReturnsFalse(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.Run()
	if s.Cancel(e) {
		t.Fatal("Cancel of fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var events []Handle
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(Time(i), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("fired %d events, want 13", len(got))
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event func did not panic")
		}
	}()
	s.At(1, nil)
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := 0
	s.At(10, func() { fired++ })
	s.At(20, func() { fired++ })
	s.At(30, func() { fired++ })
	s.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (events at t<=20)", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", s.Now())
	}
	s.RunUntil(100)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if s.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step() on empty calendar returned true")
	}
}

func TestEventAtAccessor(t *testing.T) {
	s := New()
	e := s.At(42, func() {})
	if e.at != 42 {
		t.Fatalf("At() = %v, want 42", e.at)
	}
	if !e.Pending() {
		t.Fatal("freshly scheduled event not pending")
	}
}

func TestClockMonotone(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(7))
	var last Time = -1
	for i := 0; i < 200; i++ {
		s.At(Time(rng.Intn(1000)), func() {
			if s.Now() < last {
				t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
			}
			last = s.Now()
		})
	}
	s.Run()
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.After(10, recurse)
		}
	}
	s.After(10, recurse)
	s.Run()
	if depth != 5 {
		t.Fatalf("recursion depth = %d, want 5", depth)
	}
	if s.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", s.Now())
	}
}

// Property: for any slice of non-negative offsets, events fire in sorted
// order and the clock ends at the max.
func TestQuickOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fireTimes []Time
		for _, r := range raw {
			s.At(Time(r), func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fireTimes[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to fire.
func TestQuickCancellationProperty(t *testing.T) {
	f := func(raw []uint16, mask []bool) bool {
		s := New()
		fired := make(map[int]bool)
		var events []Handle
		for i, r := range raw {
			i := i
			events = append(events, s.At(Time(r), func() { fired[i] = true }))
		}
		cancelled := make(map[int]bool)
		for i := range events {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range raw {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- handle semantics under record pooling ------------------------------

// TestFiredHandleIsInertAfterRecycle is the core pooling-safety regression:
// once an event fires, its record goes back to the free list and is reused
// for the next scheduled event. A stale handle to the fired event must stay
// a complete no-op — Cancel false, Pending false, cancelled false — and in
// particular must not cancel or otherwise disturb the recycled record's new
// event.
func TestFiredHandleIsInertAfterRecycle(t *testing.T) {
	s := New()
	h1 := s.At(10, func() {})
	s.Run()
	// The first At refilled the free list with a whole slab; the fired
	// record went back on top of it.
	if len(s.free) != eventSlabSize {
		t.Fatalf("free list holds %d records after one fire, want %d", len(s.free), eventSlabSize)
	}

	secondFired := false
	h2 := s.At(20, func() { secondFired = true })
	if h2.ev != h1.ev {
		t.Fatal("second event did not reuse the recycled record (LIFO free list)")
	}
	// The stale handle is inert in every way.
	if h1.Pending() {
		t.Error("fired handle reports pending after its record was recycled")
	}
	if h1.cancelled() {
		t.Error("fired handle reports cancelled")
	}
	if s.Cancel(h1) {
		t.Error("Cancel of a fired handle returned true")
	}
	// ...and crucially did not kill the recycled record's new event.
	if !h2.Pending() {
		t.Fatal("recycled record's new event lost its pending state")
	}
	s.Run()
	if !secondFired {
		t.Fatal("stale Cancel suppressed the recycled record's event")
	}
}

// TestCancelledHandleIsInertAfterRecycle: same guarantee for a handle whose
// event was cancelled (rather than fired) before the record was reused —
// and cancelled() keeps answering for the right incarnation on both sides.
func TestCancelledHandleIsInertAfterRecycle(t *testing.T) {
	s := New()
	h1 := s.At(10, func() { t.Error("cancelled event fired") })
	if !s.Cancel(h1) {
		t.Fatal("Cancel of a pending event returned false")
	}
	if !h1.cancelled() {
		t.Fatal("handle not marked cancelled before reuse")
	}

	fired := false
	h2 := s.At(20, func() { fired = true })
	if h2.ev != h1.ev {
		t.Fatal("second event did not reuse the cancelled record")
	}
	// h1's incarnation was cancelled; h2's was not (yet).
	if !h1.cancelled() {
		t.Error("cancelled handle forgot its cancellation after record reuse")
	}
	if h1.Pending() {
		t.Error("cancelled handle reports pending after record reuse")
	}
	if h2.cancelled() {
		t.Error("fresh event reports cancelled because its record's previous incarnation was")
	}
	if s.Cancel(h1) {
		t.Error("double Cancel via a stale handle returned true")
	}
	s.Run()
	if !fired {
		t.Fatal("stale double-Cancel suppressed the recycled record's event")
	}
}

// TestHandleAtSurvivesRecycling: the scheduled time is captured in the
// handle, so At() stays correct after the record is reused at a different
// time.
func TestHandleAtSurvivesRecycling(t *testing.T) {
	s := New()
	h1 := s.At(7, func() {})
	s.Run()
	s.At(99, func() {})
	if h1.at != 7 {
		t.Fatalf("stale handle At() = %v, want 7", h1.at)
	}
}

// TestPoolReusesRecordsBounded: a long event chain with only one event
// pending at a time must run the whole chain on a single record.
func TestPoolReusesRecordsBounded(t *testing.T) {
	s := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d ticks, want 1000", n)
	}
	// The whole chain ran on the one slab allocated by the first After: the
	// free list never dipped below slab size - 1 and ends exactly full.
	if len(s.free) != eventSlabSize {
		t.Fatalf("free list holds %d records after a serial chain, want %d", len(s.free), eventSlabSize)
	}
}

// TestUnpooledSemanticsMatch: ordering, cancellation and handle checks on the
// one (pooled) calendar, with every record back on the free list at the end.
// The name is kept from when an unpooled calendar existed to compare against.
func TestUnpooledSemanticsMatch(t *testing.T) {
	s := New()
	var got []Time
	h := s.At(5, func() { t.Error("cancelled event fired") })
	for _, d := range []time.Duration{30, 10, 20} {
		s.At(d, func() { got = append(got, s.Now()) })
	}
	if !s.Cancel(h) {
		t.Fatal("Cancel failed")
	}
	if !h.cancelled() || h.Pending() {
		t.Fatal("handle state wrong after Cancel")
	}
	s.Run()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if len(s.free) != eventSlabSize {
		t.Fatalf("free list holds %d records after the calendar drained, want %d", len(s.free), eventSlabSize)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(Time(j%97), func() {})
		}
		s.Run()
	}
}

// BenchmarkCalendarChurnPooled drives the regime engines put the calendar through:
// a bounded number of pending events recycled through schedule/fire (and
// an occasional cancel) hundreds of thousands of times.
func BenchmarkCalendarChurnPooled(b *testing.B) {
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		sim := New()
		for j := 0; j < 64; j++ {
			sim.At(Time(j), fn)
		}
		for j := 0; j < 100000; j++ {
			h := sim.After(Time(17+(j%13)), fn)
			if j%7 == 0 {
				sim.Cancel(h)
			}
			sim.Step()
		}
		sim.Run()
	}
}

// cancelled reports whether Cancel removed this handle's event before it
// fired. It answers for exactly the incarnation the handle was issued for:
// a handle whose event fired reports false forever, even after the
// underlying record is recycled and the new incarnation is cancelled.
func (h Handle) cancelled() bool { return h.ev != nil && h.ev.cancelledGen == h.gen }
