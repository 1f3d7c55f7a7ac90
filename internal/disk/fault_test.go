package disk

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeFaults scripts the Faults hook: errs is consumed one entry per
// completion (exhausted = no error).
type fakeFaults struct {
	inflate func(now, base time.Duration) time.Duration
	errs    []bool
	limit   int
	backoff time.Duration
}

func (f *fakeFaults) ServiceTime(now, base time.Duration) time.Duration {
	if f.inflate != nil {
		return f.inflate(now, base)
	}
	return base
}

func (f *fakeFaults) TransientError() bool {
	if len(f.errs) == 0 {
		return false
	}
	e := f.errs[0]
	f.errs = f.errs[1:]
	return e
}

func (f *fakeFaults) RetryPolicy() (int, time.Duration) { return f.limit, f.backoff }

func TestFaultServiceTimeInflation(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	d.SetFaults(&fakeFaults{inflate: func(now, base time.Duration) time.Duration { return 3 * base }})
	var doneAt sim.Time = -1
	d.Submit(&Request{Done: func() { doneAt = s.Now() }})
	s.Run()
	if doneAt != sim.Time(30*ms) {
		t.Fatalf("inflated access completed at %v, want 30ms", doneAt)
	}
	if d.BusyTime() != 30*ms {
		t.Fatalf("BusyTime = %v, want 30ms", d.BusyTime())
	}
}

func TestTransientErrorRetriesWithBackoff(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	d.SetFaults(&fakeFaults{errs: []bool{true, true, false}, limit: 3, backoff: ms})
	var doneAt sim.Time = -1
	r := &Request{Done: func() { doneAt = s.Now() }}
	d.Submit(r)
	s.Run()
	// Service 10, backoff 1, service 10, backoff 2 (exponential), service
	// 10: completion at 33ms.
	if doneAt != sim.Time(33*ms) {
		t.Fatalf("retried access completed at %v, want 33ms", doneAt)
	}
	if r.Failed() {
		t.Fatal("recovered request reported Failed")
	}
	if r.Attempts() != 2 {
		t.Fatalf("Attempts = %d, want 2", r.Attempts())
	}
	if d.Retried() != 2 || d.failed != 0 || d.served != 1 {
		t.Fatalf("counters = (retried %d, failed %d, served %d), want (2, 0, 1)",
			d.Retried(), d.failed, d.served)
	}
}

func TestPermanentFailureAfterRetryLimit(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	d.SetFaults(&fakeFaults{errs: []bool{true, true, true}, limit: 2, backoff: ms})
	var failed bool
	doneAt := sim.Time(-1)
	r := &Request{}
	r.Done = func() { failed = r.Failed(); doneAt = s.Now() }
	d.Submit(r)
	s.Run()
	if !failed {
		t.Fatal("exhausted request did not report Failed in Done")
	}
	// Two retries (10+1+10+2+10), then the third error exhausts the limit
	// and completes the request failed at 33ms.
	if doneAt != sim.Time(33*ms) {
		t.Fatalf("failed access completed at %v, want 33ms", doneAt)
	}
	if d.Retried() != 2 || d.failed != 1 {
		t.Fatalf("counters = (retried %d, failed %d), want (2, 1)", d.Retried(), d.failed)
	}
}

func TestCancelDuringRetryBackoff(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	d.SetFaults(&fakeFaults{errs: []bool{true}, limit: 3, backoff: 5 * ms})
	done := false
	r := &Request{Done: func() { done = true }}
	d.Submit(r)
	// At 12ms the request sits in its retry backoff (service ended at
	// 10ms, retry due at 15ms): cancellation must remove it for good.
	s.At(sim.Time(12*ms), func() {
		if r.InService() || r.queued {
			t.Fatal("request not in retry backoff at 12ms")
		}
		if !d.Cancel(r) {
			t.Fatal("Cancel during retry backoff returned false")
		}
	})
	s.Run()
	if done {
		t.Fatal("cancelled request completed")
	}
	if d.cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", d.cancelled)
	}
	if d.busy() || d.queueLen() != 0 {
		t.Fatal("disk not idle after cancelled retry")
	}
}

// TestDiskFreeDuringBackoff: a retry backoff releases the disk, so other
// requests are served in the gap and the retried request re-queues behind
// the current service.
func TestDiskFreeDuringBackoff(t *testing.T) {
	s := sim.New()
	d := New(s, 10*ms, fcfs)
	d.SetFaults(&fakeFaults{errs: []bool{true}, limit: 3, backoff: ms})
	var order []string
	d.Submit(&Request{Done: func() { order = append(order, "a") }})
	s.At(sim.Time(5*ms), func() {
		d.Submit(&Request{Done: func() { order = append(order, "b") }})
	})
	s.Run()
	// a errs at 10ms and retries at 11ms, but b seized the disk at 10ms;
	// a re-queues and completes after b: b at 20ms, a at 30ms.
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("completion order = %v, want [b a]", order)
	}
	if d.served != 2 || d.Retried() != 1 {
		t.Fatalf("counters = (served %d, retried %d), want (2, 1)", d.served, d.Retried())
	}
}
