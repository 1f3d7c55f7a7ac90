// Batched submission: the one ingestion path into the wall-clock service.
// A driver Call costs a mutex, a closure and a wakeup; under a high-rate
// front-end that handoff is the bottleneck, not the engine. SubmitBatch
// amortises it: the server's submit queues collect every request that
// arrived while the driver was busy and inject them all in a single Call,
// so the handoff cost is paid once per driver wakeup instead of once per
// transaction. Each submission goes through validation, admission control
// and onArrival in batch order; the blocking Submit is a one-element batch
// behind a Waiter.
package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/workload"
)

// Submission is one entry of a batched submit. Done is invoked exactly
// once per submission: with the terminal outcome (on the engine's driver
// goroutine — it must not block; hand off to a channel or queue), or with
// a validation / ErrDraining / ErrServiceStopped error (from the
// SubmitBatch caller's goroutine).
type Submission struct {
	Req  ServiceRequest
	Done func(ServiceOutcome, error)
	// WALSeq marks a crash-recovery replay: the submission's submit
	// record already exists in the write-ahead log under this sequence
	// number, so the service skips the submit append and stamps the
	// outcome record FlagReplayed. Zero for ordinary submissions.
	WALSeq uint64
}

// SubmitHandle wounds one in-flight submission: the front-end calls Cancel
// when the client disconnects so abandoned work stops consuming the CPU.
// The zero handle is a no-op (a submission that was never injected).
// Cancel is idempotent and safe at any later time: the handle is (object,
// generation) the way sim.Handle is, so once the transaction was answered —
// and its object perhaps handed to another submission — Cancel does nothing.
type SubmitHandle struct {
	svc      *Service
	t        *Txn
	gen      uint64
	cancelFn func()
}

// Cancel wounds the submission if it is still in flight.
func (h SubmitHandle) Cancel() {
	switch {
	case h.svc != nil:
		_ = h.svc.rt.Call(func() { h.svc.e.cancelServiceTxn(h.t, h.gen) })
	case h.cancelFn != nil:
		h.cancelFn()
	}
}

// CancelHandle wraps an arbitrary cancel func as a SubmitHandle (the
// sharded service's cross-shard path uses it).
func CancelHandle(fn func()) SubmitHandle { return SubmitHandle{cancelFn: fn} }

// LateCancel is the cancel side of a submission whose handles arrive after
// the submit call returned (the server's batcher injects later; a cross-shard
// request gets one handle per part at the next epoch flush). Cancel wounds
// every handle armed so far, and Arm wounds on arrival once Cancel has been
// asked for — so a cancel request is never lost to the handoff.
type LateCancel struct {
	mu        sync.Mutex
	handles   []SubmitHandle
	cancelled bool
}

// Arm hands over one injected handle.
func (c *LateCancel) Arm(h SubmitHandle) {
	c.mu.Lock()
	cancelled := c.cancelled
	if !cancelled {
		c.handles = append(c.handles, h)
	}
	c.mu.Unlock()
	if cancelled {
		h.Cancel()
	}
}

// Cancel wounds the submission: the handles already armed now, the rest as
// they arrive. The answer still comes through Done, like any other.
func (c *LateCancel) Cancel() {
	c.mu.Lock()
	c.cancelled = true
	handles := c.handles
	c.handles = nil
	c.mu.Unlock()
	for _, h := range handles {
		h.Cancel()
	}
}

// Waiter is the blocking end of one submission, shared by every Submit and
// the HTTP front-end: Done is its Submission.Done, Arm takes its handle
// whenever that arrives, Wait blocks for the answer.
type Waiter struct {
	LateCancel
	ch chan answer
}

type answer struct {
	o   ServiceOutcome
	err error
}

// NewWaiter returns a waiter for one submission.
func NewWaiter() *Waiter { return &Waiter{ch: make(chan answer, 1)} }

// Done delivers the answer; it never blocks.
func (w *Waiter) Done(o ServiceOutcome, err error) { w.ch <- answer{o, err} }

// Wait blocks until the submission's terminal answer. The context carries
// the client: cancellation wounds the transaction (it is dropped — a response
// no one is waiting for has no value) and Wait returns the ctx error
// alongside the terminal outcome. Validation, ErrDraining, ErrServiceStopped
// and ErrEngineFailed come back as the error; an admission-control rejection
// is not an error but an outcome (StateRejected) so callers can distinguish
// shedding from failure. There is no stop signal to race: Done is guaranteed
// to fire exactly once, so waiting on it alone cannot hang.
func (w *Waiter) Wait(ctx context.Context) (ServiceOutcome, error) {
	select {
	case a := <-w.ch:
		return a.o, a.err
	case <-ctx.Done():
		w.Cancel()
		a := <-w.ch
		if a.err == nil {
			a.err = ctx.Err()
		}
		return a.o, a.err
	}
}

// failAll reports err to every submission that is still the call's to
// answer (Done != nil).
func failAll(subs []Submission, err error) {
	for i := range subs {
		if done := subs[i].Done; done != nil {
			subs[i].Done = nil
			done(ServiceOutcome{}, err)
		}
	}
}

// SubmitBatch injects every submission in one driver call and returns
// right after injection; outcomes (and every error: validation, draining,
// stopped service) are delivered through each Submission.Done, which is
// guaranteed to be invoked exactly once per entry. The returned handles
// are index-aligned with subs; an entry that was never injected (it
// already failed) carries the zero no-op handle. The call consumes subs:
// an entry's Done is cleared the moment someone else owns its answer —
// validation answered it, or a transaction's completion slot took it over.
// Requests are validated here, on the caller's goroutine; the driver call
// only copies each into a (recycled) transaction, so a batch allocates its
// handles and its handoff, and nothing per entry.
func (s *Service) SubmitBatch(subs []Submission) []SubmitHandle {
	handles := make([]SubmitHandle, len(subs))
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		failAll(subs, ErrDraining)
		return handles
	}
	s.mu.Unlock()

	any := false
	for i := range subs {
		sub := &subs[i]
		if err := sub.Req.Validate(&s.e.cfg); err != nil {
			sub.Done(ServiceOutcome{}, err)
			sub.Done = nil
			continue
		}
		any = true
	}
	if !any {
		return handles
	}

	ready := make(chan struct{})
	err := s.rt.Call(func() {
		spec := workload.Spec{Arrival: time.Duration(s.e.sim.Now())}
		for i := range subs {
			sub := &subs[i]
			if sub.Done == nil {
				continue
			}
			req := &sub.Req
			spec.Deadline = spec.Arrival + req.Deadline
			spec.Items, spec.Reads, spec.NeedsIO = req.Items, req.Reads, req.NeedsIO
			spec.Compute, spec.Criticality, spec.Class = req.Compute, req.Criticality, req.Class
			// From here the slot answers: the terminal path, or the failure
			// sweep if the driver dies with this submission live.
			t := s.e.addServiceTxn(&spec, sub.Done)
			sub.Done = nil
			handles[i] = SubmitHandle{svc: s, t: t, gen: t.gen}
			s.e.onArrival(t)
		}
		close(ready)
	})
	if err != nil {
		failAll(subs, ErrServiceStopped)
		return handles
	}
	select {
	case <-ready:
	case <-s.stopCh:
		// The driver stopped: whatever it injected first was answered by its
		// terminal path or the failure sweep (both ordered before stopCh
		// closes); the entries it never reached are still ours.
		failAll(subs, ErrServiceStopped)
	}
	return handles
}
