// The inbox: the one ingestion path into the wall-clock service. A driver
// call costs a closure and a wakeup; under a high-rate front-end that
// handoff is the bottleneck, not the engine. So a submission does not get a
// call of its own: Enqueue appends it to the service's inbox, and the
// driver injects the whole inbox in one pass (drain) at its next catch-up.
// The inbox and the call queue share the service's one mutex: the inbox
// going from empty to non-empty queues the pre-built drain call in the same
// critical section and wakes the driver, so the handoff cost is paid once
// per driver wakeup instead of once per transaction, and the path
// allocates nothing per batch. Each submission goes through validation,
// admission control and onArrival in inbox order. SubmitBatch is Enqueue
// for every entry plus a wait for their handles; the blocking Submit is a
// one-element batch behind a Waiter.
package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/txn"
	"repro/internal/workload"
)

// Submission is one entry of a submit. Its answer is delivered exactly once:
// as Answer.Complete(ID, outcome, err), or, with Answer nil, as Done(outcome,
// err). The terminal outcome comes on the engine's driver goroutine — the
// receiver must not block; hand off to a channel or queue — and a validation /
// ErrDraining / ErrServiceStopped error from the submitting goroutine, or from
// Run's once the driver has stopped.
//
// The request's Items, Reads and NeedsIO are borrowed for the call: Enqueue
// copies them before it returns, so the caller may reuse them at once.
type Submission struct {
	Req ServiceRequest
	// Answer receives the answer with ID. A front-end builds one target per
	// connection, not one per request: the slot costs no allocation.
	Answer AnswerSink
	// Done receives the answer when Answer is nil. Enqueue turns it into the
	// same slot through a func adapter, which allocates nothing either.
	Done func(ServiceOutcome, error)
	// WALSeq marks a crash-recovery replay: the submission's submit
	// record already exists in the write-ahead log under this sequence
	// number, so the service skips the submit append and stamps the
	// outcome record FlagReplayed. Zero for ordinary submissions.
	WALSeq uint64
	// Handle, when set, receives the submission's cancel handle as
	// Handle.OnHandle(ID, h), exactly once and before the answer: on the
	// driver as the transaction is injected, or the no-op handle when the
	// submission is answered without reaching the engine. SubmitBatch sets
	// both fields itself.
	Handle HandleSink
	ID     uint64
}

// AnswerSink takes a submission's answer (see Submission.Answer).
type AnswerSink interface {
	Complete(id uint64, o ServiceOutcome, err error)
}

// HandleSink takes a submission's cancel handle (see Submission.Handle).
type HandleSink interface {
	OnHandle(id uint64, h SubmitHandle)
}

// doneFunc is a Done as an AnswerSink. A func value is one pointer, so the
// conversion to the interface allocates nothing.
type doneFunc func(ServiceOutcome, error)

func (f doneFunc) Complete(_ uint64, o ServiceOutcome, err error) { f(o, err) }

// Target is where the submission's answer goes: Answer, or Done through the
// adapter.
func (sub *Submission) Target() AnswerSink {
	if sub.Answer != nil {
		return sub.Answer
	}
	return doneFunc(sub.Done)
}

// Fail answers a submission that never reached the engine: the no-op
// handle, then err.
func (sub *Submission) Fail(err error) {
	if sub.Handle != nil {
		sub.Handle.OnHandle(sub.ID, SubmitHandle{})
	}
	sub.Target().Complete(sub.ID, ServiceOutcome{}, err)
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
		_ = h.svc.call(func() { h.svc.e.cancelServiceTxn(h.t, h.gen) })
	case h.cancelFn != nil:
		h.cancelFn()
	}
}

// CancelHandle wraps an arbitrary cancel func as a SubmitHandle (the
// sharded service's cross-shard path uses it).
func CancelHandle(fn func()) SubmitHandle { return SubmitHandle{cancelFn: fn} }

// LateCancel is the cancel side of a submission whose handles arrive after
// the client may already have given up: the driver arms a handle only when
// it injects the submission, and a cross-shard request gets one handle per
// part at the next epoch flush. Cancel wounds every handle armed so far, and
// Arm wounds on arrival once Cancel has been asked for — so a cancel request
// is never lost to the handoff.
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

// Enqueue hands sub to the driver without waiting for it: the submission
// joins the inbox, and the driver injects the whole inbox at its next
// catch-up. Unless Enqueue returns false, the submission is the service's to
// answer (see Submission). False means the inbox already held limit entries
// (limit > 0): nothing was logged and nothing will be called back — an
// overload shed the caller answers itself. Either way the request's lists
// are the caller's again once Enqueue returns: the inbox keeps its own copy.
//
// With log enabled, the submit record of a submission that is not a replay
// is appended under the inbox lock, so the inbox, and with it the order of
// injection, follows the log's sequence numbers.
func (s *Service) Enqueue(sub Submission, log *WALHook, limit int) bool {
	if err := sub.Req.Validate(&s.e.cfg); err != nil {
		sub.Fail(err)
		return true
	}
	var err error
	wake := false
	s.mu.Lock()
	switch {
	case s.draining:
		err = ErrDraining
	case s.stopped:
		err = ErrServiceStopped
	case limit > 0 && len(s.inbox) >= limit:
		s.mu.Unlock()
		return false
	case sub.WALSeq == 0 && log.enabled():
		var seq uint64
		if seq, err = log.LogSubmit(&sub.Req); err == nil {
			log.WrapDone(&sub, seq, false)
		}
	}
	if err == nil {
		s.lists.own(&sub.Req)
		sub.Answer, sub.Done = sub.Target(), nil
		s.inbox = append(s.inbox, sub)
		if !s.woken {
			// Into the call queue under the same lock, so a call queued
			// after this Enqueue runs after the drain.
			s.woken, wake = true, true
			s.calls = append(s.calls, s.drainFn)
		}
	}
	s.mu.Unlock()
	if wake {
		s.wakeDriver()
	}
	if err != nil {
		sub.Fail(err)
	}
	return true
}

// drain injects everything the inbox holds, in inbox order, at the current
// instant: the driver's one injection loop.
func (s *Service) drain() {
	s.mu.Lock()
	batch, owned := s.inbox, s.lists
	s.inbox, s.lists, s.woken = s.spare, s.spareLists, false
	s.mu.Unlock()
	// Until the loop is through, spare is the batch: if the engine panics
	// mid-way, Run's sweep answers the entries not yet injected.
	s.spare = batch
	spec := workload.Spec{Arrival: time.Duration(s.e.sim.Now())}
	for i := range batch {
		sub := &batch[i]
		req := &sub.Req
		spec.Deadline = spec.Arrival + req.Deadline
		spec.Items, spec.Reads, spec.NeedsIO = req.Items, req.Reads, req.NeedsIO
		spec.Compute, spec.Criticality, spec.Class = req.Compute, req.Criticality, req.Class
		// From here the slot answers: the terminal path, or the failure
		// sweep if the driver dies with this submission live.
		t := s.e.addServiceTxn(&spec, sub.Answer, sub.ID)
		sub.Answer = nil
		if sub.Handle != nil {
			sub.Handle.OnHandle(sub.ID, SubmitHandle{svc: s, t: t, gen: t.gen})
		}
		s.e.onArrival(t)
	}
	clear(batch) // pin no request or callback until the array is reused
	s.spare = batch[:0]
	// Every transaction copied its lists into its own object.
	owned.reset()
	s.spareLists = owned
}

// inboxLists holds the inbox's copies of its entries' item and flag lists:
// Enqueue borrows the caller's lists, so it copies them in here under the
// inbox lock, and drain swaps the arrays with a spare pair, as it does the
// inbox. An append that outgrows an array leaves the earlier copies on the
// old one, which nothing writes again.
type inboxLists struct {
	items []txn.Item
	flags []bool
}

// own copies req's lists in and points req at the copies. A nil flag list
// stays nil.
func (l *inboxLists) own(req *ServiceRequest) {
	n := len(l.items)
	l.items = append(l.items, req.Items...)
	req.Items = l.items[n:len(l.items):len(l.items)]
	req.Reads = l.ownFlags(req.Reads)
	req.NeedsIO = l.ownFlags(req.NeedsIO)
}

func (l *inboxLists) ownFlags(f []bool) []bool {
	if f == nil {
		return nil
	}
	n := len(l.flags)
	l.flags = append(l.flags, f...)
	return l.flags[n:len(l.flags):len(l.flags)]
}

func (l *inboxLists) reset() { l.items, l.flags = l.items[:0], l.flags[:0] }

// sweep answers ErrServiceStopped to every submission the driver will never
// inject — the inbox, and what a panic left of the batch being injected —
// drops the calls it will never run, and makes every later Enqueue and call
// answer at once. Runs on Run's goroutine once the driver has exited, so
// spare is its to read.
func (s *Service) sweep() {
	s.mu.Lock()
	s.stopped = true
	left := append(s.spare, s.inbox...)
	s.inbox, s.calls = nil, nil
	s.mu.Unlock()
	for i := range left {
		if left[i].Answer != nil {
			left[i].Fail(ErrServiceStopped)
		}
	}
}

// SubmitBatch enqueues every submission, with no limit, and returns once
// each has its handle; outcomes (and every error: validation, draining,
// stopped service) are delivered through each Submission.Done, which is
// guaranteed to be invoked exactly once per entry. The returned handles are
// index-aligned with subs; an entry that was never injected carries the
// zero no-op handle. The call consumes subs (see AwaitHandles) and does not
// keep it.
func (s *Service) SubmitBatch(subs []Submission) []SubmitHandle {
	return AwaitHandles(subs, func(sub Submission) { s.Enqueue(sub, nil, 0) })
}

// handleBatch is AwaitHandles' HandleSink: handle i lands in hs[i], and wg
// counts the entries still without one.
type handleBatch struct {
	hs []SubmitHandle
	wg sync.WaitGroup
}

func (b *handleBatch) OnHandle(i uint64, h SubmitHandle) {
	b.hs[i] = h
	b.wg.Done()
}

// AwaitHandles is SubmitBatch over an enqueue func that takes every
// submission it is given: each entry goes to enqueue with a sink for its
// handle, and the handles come back index-aligned once every entry has one.
// Each entry's ID becomes its index. It consumes subs: an entry's Answer and
// Done are cleared as the entry is handed over, so a caller reusing the slice
// finds no answer target that is already somebody else's to call.
func AwaitHandles(subs []Submission, enqueue func(Submission)) []SubmitHandle {
	b := &handleBatch{hs: make([]SubmitHandle, len(subs))}
	b.wg.Add(len(subs))
	for i := range subs {
		sub := subs[i]
		subs[i].Answer, subs[i].Done = nil, nil
		sub.Handle, sub.ID = b, uint64(i)
		enqueue(sub)
	}
	b.wg.Wait()
	return b.hs
}
