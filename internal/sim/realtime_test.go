package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRealtimeFiresInOrder checks that events scheduled before Run fire in
// calendar order at (compressed) wall pace and that the clock lands past
// the last event.
func TestRealtimeFiresInOrder(t *testing.T) {
	s := New()
	var fired []int
	all := make(chan struct{})
	for i := 1; i <= 5; i++ {
		i := i
		s.At(Time(i)*Time(time.Millisecond), func() {
			fired = append(fired, i)
			if len(fired) == 5 {
				close(all)
			}
		})
	}
	rt := NewRealtime(s, RealtimeOptions{Speed: 100, Step: stepper(s)})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()

	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("events did not fire in time")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5", len(fired))
	}
	for i, v := range fired {
		if v != i+1 {
			t.Fatalf("fired order %v, want ascending", fired)
		}
	}
}

// TestRealtimeCallInjection checks that Call runs its closure on the driver
// goroutine with the clock advanced, that closures can schedule events that
// then fire, and that calls submitted before Run still execute.
func TestRealtimeCallInjection(t *testing.T) {
	s := New()
	rt := NewRealtime(s, RealtimeOptions{Speed: 1000, Step: stepper(s)})

	early := make(chan Time, 1)
	if err := rt.Call(func() { early <- s.Now() }); err != nil {
		t.Fatalf("Call before Run: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()

	select {
	case <-early:
	case <-time.After(5 * time.Second):
		t.Fatal("pre-Run call never executed")
	}

	fired := make(chan Time, 1)
	if err := rt.Call(func() {
		s.After(time.Millisecond, func() { fired <- s.Now() })
	}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("event scheduled by an injected call never fired")
	}

	cancel()
	<-done
	if err := rt.Call(func() {}); !errors.Is(err, errStopped) {
		t.Fatalf("Call after stop returned %v, want errStopped", err)
	}
}

// TestRealtimeCancelDuringBackoff is the shutdown regression for the
// wall-clock path: with the only pending event a long retry backoff (the
// disk's transient-error retries schedule exactly this shape), cancelling
// the context must interrupt the sleep immediately — shutdown must never
// block on a sleeping retry timer.
func TestRealtimeCancelDuringBackoff(t *testing.T) {
	s := New()
	// One event an hour of simulated time away: the driver will go to
	// sleep on its timer for ~an hour of wall time at Speed 1.
	s.After(time.Hour, func() { t.Error("backoff event fired") })
	rt := NewRealtime(s, RealtimeOptions{Step: stepper(s)})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()

	time.Sleep(20 * time.Millisecond) // let the driver reach its sleep
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("shutdown took %v; a sleeping timer blocked it", waited)
	}
}

// TestRealtimeIdleWakeup checks that a driver with an empty calendar parks
// and is woken by an injected call rather than spinning.
func TestRealtimeIdleWakeup(t *testing.T) {
	s := New()
	rt := NewRealtime(s, RealtimeOptions{Speed: 1000, Step: stepper(s)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()

	time.Sleep(10 * time.Millisecond) // idle park
	ran := make(chan struct{})
	if err := rt.Call(func() { close(ran) }); err != nil {
		t.Fatalf("Call: %v", err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("idle driver never woke for an injected call")
	}
	cancel()
	<-done
}

// TestRealtimeStepErrorStops checks that a failing Step stops the driver
// with its error, and that a failure an injected call leaves behind
// surfaces at the catch-up that follows the call batch.
func TestRealtimeStepErrorStops(t *testing.T) {
	s := New()
	boom := errors.New("oracle violation")
	failing := false
	rt := NewRealtime(s, RealtimeOptions{Speed: 1000, Step: func(to Time) error {
		if failing {
			return boom
		}
		s.RunUntil(to)
		return nil
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rt.Run(ctx) }()
	if err := rt.Call(func() { failing = true }); err != nil {
		t.Fatalf("Call: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Run returned %v, want the step error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driver did not stop on a failing step")
	}
}

// TestRealtimeNeedsStep checks that a driver without a step function is
// refused at construction.
func TestRealtimeNeedsStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRealtime without Step did not panic")
		}
	}()
	NewRealtime(New(), RealtimeOptions{})
}

// stepper is the plain calendar step a driver over a bare Simulator uses.
func stepper(s *Simulator) func(Time) error {
	return func(to Time) error { s.RunUntil(to); return nil }
}
