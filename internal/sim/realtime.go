// Realtime drives a Simulator's calendar against the wall clock. This is
// the repository's Clock abstraction: the calendar, the event records and
// every engine callback are exactly the ones the virtual-time path uses —
// the only thing that changes is who decides when the next event fires.
// The virtual driver (the engine's Run loop) fires events as fast as the
// CPU allows; the real-time driver sleeps until the wall instant an event is
// due, asks its owner's step function to fire everything due by then, and
// folds in work injected asynchronously from other goroutines (arriving
// transaction requests, cancellations, metric probes).
//
// Realtime never fires an event itself: the step function is the owner's
// own event loop (for the engine, the same loop a virtual run uses, with
// its watchdog and oracle checks), so a served run and a simulated one fire
// events through one piece of code, and everything proven about the engine
// under the simulator (determinism, the paper's theorems, the oracle's
// checks) transfers unchanged to the wall-clock service.
//
// Shutdown discipline: the driver may be asleep for a long time (an idle
// server, a disk retry backoff minutes away). Every sleep is a
// timer+select on the context, an injected-call wakeup and the timer, so
// cancellation interrupts any sleep immediately — a real-time engine must
// never block shutdown on a sleeping retry timer.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// RealtimeOptions tune a Realtime driver.
type RealtimeOptions struct {
	// Speed is the ratio of simulated time to wall time (default 1: one
	// simulated second per wall second). Tests compress time with large
	// speeds; the engine's millisecond-scale events then fire in
	// microseconds of wall time.
	Speed float64
	// Step fires every event due at or before the given simulated time and
	// advances the clock to it. Required. Run calls it once per catch-up; a
	// non-nil error stops the driver and is returned by Run.
	Step func(to Time) error
}

// ErrStopped reports a Call against a driver whose Run has returned.
var ErrStopped = errors.New("sim: realtime driver stopped")

// Realtime runs a Simulator in wall-clock time. Construct with NewRealtime,
// start the single driver goroutine with Run, and inject work from any
// goroutine with Call. The Simulator must not be touched by any other
// goroutine while Run is live; everything goes through Call.
type Realtime struct {
	s     *Simulator
	speed float64
	step  func(Time) error

	// spare is the call queue's second array, owned by the driver: Run
	// swaps it in for the calls it takes, so queueing reallocates nothing.
	spare []func()

	mu      sync.Mutex
	calls   []func()
	started bool
	stopped bool
	start   time.Time

	wake chan struct{}
}

// NewRealtime returns a driver for s. The simulator may already hold
// scheduled events; they fire at their mapped wall instants once Run
// starts.
func NewRealtime(s *Simulator, opt RealtimeOptions) *Realtime {
	speed := opt.Speed
	if speed == 0 {
		speed = 1
	}
	if speed < 0 {
		panic(fmt.Sprintf("sim: realtime speed %v < 0", speed))
	}
	if opt.Step == nil {
		panic("sim: realtime driver needs a Step function")
	}
	return &Realtime{
		s:     s,
		speed: speed,
		step:  opt.Step,
		wake:  make(chan struct{}, 1),
	}
}

// simNow maps a wall instant to simulated time. Only the driver goroutine
// calls it, after start (r.start is written once).
func (r *Realtime) simNow(wall time.Time) Time {
	return Time(float64(wall.Sub(r.start)) * r.speed)
}

// wallFor maps a simulated time to the wall instant it is due.
func (r *Realtime) wallFor(t Time) time.Time {
	return r.start.Add(time.Duration(float64(t) / r.speed))
}

// Call enqueues fn to run on the driver goroutine, with the simulated
// clock advanced to the current wall instant — the injection point for
// asynchronously arriving work. Calls run in submission order, before any
// event due later. It returns ErrStopped once Run has returned (fn will
// never run); a call enqueued while Run is shutting down may also be
// dropped, so waiters must additionally select on their own stop signal.
func (r *Realtime) Call(fn func()) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	r.calls = append(r.calls, fn)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return nil
}

// Run drives the calendar until the context is cancelled or the step
// function fails. It must be called exactly once, and it owns the Simulator
// until it returns. Pending calls that never got to run are dropped once
// Run returns; subsequent Calls return ErrStopped.
func (r *Realtime) Run(ctx context.Context) error {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		panic("sim: Realtime.Run called twice")
	}
	r.started = true
	r.start = time.Now()
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.stopped = true
		r.calls = nil
		r.mu.Unlock()
	}()

	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	for {
		// Cancellation wins over any amount of due work: an overloaded
		// server must still shut down promptly.
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}

		// Catch up: fire everything due at the current wall instant, then
		// fold in injected calls at that instant. Calls may schedule new
		// due events (an arrival dispatches immediately), so loop until
		// neither source has anything due; a call batch is therefore
		// always followed by a catch-up, which is where a failure a call
		// left behind surfaces.
		if err := r.step(r.simNow(time.Now())); err != nil {
			return err
		}
		r.mu.Lock()
		calls := r.calls
		r.calls = r.spare
		r.mu.Unlock()
		for _, fn := range calls {
			fn()
		}
		clear(calls) // pin no closure until the array is reused
		r.spare = calls[:0]
		if len(calls) > 0 {
			continue // calls may have scheduled events already due
		}
		if next, ok := r.s.NextAt(); ok {
			d := time.Until(r.wallFor(next))
			if d <= 0 {
				continue
			}
			timer.Reset(d)
			select {
			case <-ctx.Done():
				if !timer.Stop() {
					<-timer.C
				}
				return ctx.Err()
			case <-r.wake:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
		} else {
			// Idle: nothing scheduled; sleep until injected work or
			// cancellation.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-r.wake:
			}
		}
	}
}
