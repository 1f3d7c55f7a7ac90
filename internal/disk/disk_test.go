package disk

import (
	"testing"
	"time"

	"repro/internal/sim"
)

const ms = time.Millisecond

func TestSingleRequest(t *testing.T) {
	s := sim.New()
	d := New(s, 25*ms, fcfs)
	var doneAt sim.Time = -1
	d.Submit(&Request{Done: func() { doneAt = s.Now() }})
	if !d.busy() {
		t.Fatal("disk idle right after submit")
	}
	s.Run()
	if doneAt != sim.Time(25*ms) {
		t.Fatalf("completed at %v, want 25ms", doneAt)
	}
	if d.served != 1 {
		t.Fatalf("Served = %d", d.served)
	}
	if d.busy() {
		t.Fatal("disk busy after drain")
	}
}

func TestFCFSOrder(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		d.Submit(&Request{Done: func() { order = append(order, i) }, Priority: float64(i)})
	}
	if d.queueLen() != 3 {
		t.Fatalf("queueLen = %d, want 3", d.queueLen())
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("fcfs order violated: %v", order)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, priority)
	var order []int
	// First submit starts service immediately (seizes the idle disk);
	// the rest are reordered by priority.
	prios := []float64{0, 1, 9, 5}
	for i, p := range prios {
		i := i
		d.Submit(&Request{Done: func() { order = append(order, i) }, Priority: p})
	}
	s.Run()
	want := []int{0, 2, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestPriorityTieFIFO(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, priority)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		d.Submit(&Request{Done: func() { order = append(order, i) }, Priority: 1})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-priority FIFO violated: %v", order)
		}
	}
}

func TestCancelQueuedRequest(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	fired := map[int]bool{}
	var reqs []*Request
	for i := 0; i < 3; i++ {
		i := i
		r := &Request{Done: func() { fired[i] = true }}
		reqs = append(reqs, r)
		d.Submit(r)
	}
	if !d.Cancel(reqs[1]) {
		t.Fatal("Cancel of queued request returned false")
	}
	if d.Cancel(reqs[1]) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired[1] {
		t.Fatal("cancelled request completed")
	}
	if !fired[0] || !fired[2] {
		t.Fatal("surviving requests did not complete")
	}
	if d.cancelled != 1 {
		t.Fatalf("Cancelled = %d", d.cancelled)
	}
}

func TestCancelInServiceKeepsDiskBusy(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	firstDone, secondAt := false, sim.Time(-1)
	r1 := &Request{Done: func() { firstDone = true }}
	d.Submit(r1)
	d.Submit(&Request{Done: func() { secondAt = s.Now() }})
	if d.Cancel(r1) {
		t.Fatal("in-service request reported removable")
	}
	s.Run()
	if firstDone {
		t.Fatal("cancelled in-service request invoked Done")
	}
	// Paper §5: a transaction aborted during its IO access "is not deleted
	// until it releases the disk" — the second request starts only at 10ms.
	if secondAt != sim.Time(20*ms) {
		t.Fatalf("second completed at %v, want 20ms", secondAt)
	}
	if d.served != 2 {
		t.Fatalf("Served = %d, want 2 (cancelled service still occupies disk)", d.served)
	}
}

func TestUtilizationAndBusyTime(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	s.At(sim.Time(10*ms), func() {
		d.Submit(&Request{Done: func() {}})
	})
	s.Run()
	s.RunUntil(sim.Time(40 * ms))
	if d.BusyTime() != 10*ms {
		t.Fatalf("BusyTime = %v, want 10ms", d.BusyTime())
	}
	if got := d.utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
}

func TestUtilizationAtTimeZero(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	if d.utilization() != 0 || d.meanQueueLen() != 0 {
		t.Fatal("zero-time stats should be 0")
	}
}

func TestMidServiceBusyTime(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	d.Submit(&Request{Done: func() {}})
	s.RunUntil(sim.Time(4 * ms))
	if d.BusyTime() != 4*ms {
		t.Fatalf("mid-service BusyTime = %v, want 4ms", d.BusyTime())
	}
}

func TestQueueStats(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	for i := 0; i < 5; i++ {
		d.Submit(&Request{Done: func() {}})
	}
	if d.maxQueueLen() != 4 {
		t.Fatalf("maxQueueLen = %d, want 4", d.maxQueueLen())
	}
	s.Run()
	if d.queueLen() != 0 {
		t.Fatal("queue not drained")
	}
	if d.meanQueueLen() <= 0 {
		t.Fatal("meanQueueLen should be positive after queueing")
	}
}

func TestSubmitTwicePanics(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	r := &Request{Done: func() {}}
	d.Submit(r)
	defer func() {
		if recover() == nil {
			t.Fatal("resubmit did not panic")
		}
	}()
	d.Submit(r)
}

func TestSubmitWithoutDonePanics(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	defer func() {
		if recover() == nil {
			t.Fatal("nil Done did not panic")
		}
	}()
	d.Submit(&Request{})
}

func TestNonPositiveAccessTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero access time did not panic")
		}
	}()
	New(sim.New(), 0, fcfs)
}

func TestRequestStateAccessors(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	r1 := &Request{Done: func() {}}
	r2 := &Request{Done: func() {}}
	d.Submit(r1)
	d.Submit(r2)
	if !r1.InService() || r1.queued {
		t.Fatal("r1 state wrong")
	}
	if r2.InService() || !r2.queued {
		t.Fatal("r2 state wrong")
	}
	s.Run()
	if r2.InService() || r2.queued {
		t.Fatal("completed request still active")
	}
}

func TestDisciplineString(t *testing.T) {
	if fcfs.String() != "fcfs" || priority.String() != "priority" {
		t.Fatal("Discipline.String wrong")
	}
}

func TestSteadyStreamKeepsFIFOAcrossIdle(t *testing.T) {
	s := sim.New()
	d := New(s, 5*ms, fcfs)
	var order []int
	submit := func(i int, at time.Duration) {
		s.At(sim.Time(at), func() {
			d.Submit(&Request{Done: func() { order = append(order, i) }})
		})
	}
	submit(0, 0)
	submit(1, 2*ms)  // queued behind 0
	submit(2, 20*ms) // after idle gap
	s.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}
