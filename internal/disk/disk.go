// Package disk models the single disk of the paper's disk-resident
// configuration (§5): a queueing server with a fixed access time, FCFS
// service order, and the paper's cancellation semantics — a request still in
// the queue when its transaction aborts is removed immediately, while a
// request already in service occupies the disk until it completes.
//
// A priority (EDF-ordered) queue discipline is also provided; the paper
// cites real-time IO scheduling as related work, and the ablation benchmarks
// use it to quantify how much of CCA's win survives a smarter disk.
package disk

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Discipline selects the service order of queued requests.
type Discipline int

const (
	// fcfs serves requests in arrival order (the paper's model).
	fcfs Discipline = iota
	// priority serves the highest-priority queued request first
	// (ablation; priority is supplied per request, e.g. -deadline).
	priority
)

// String names the discipline.
func (d Discipline) String() string {
	if d == priority {
		return "priority"
	}
	return "fcfs"
}

// Faults is the disk's fault-injection hook (implemented by
// fault.Injector). The disk consults ServiceTime when an access starts
// service (latency spikes, brownouts) and TransientError when it
// completes; a transient error is retried after an exponentially backed
// off delay up to the RetryPolicy limit, after which the request
// completes failed. A nil Faults — the default — leaves the disk's
// behaviour exactly as before.
type Faults interface {
	// ServiceTime maps the nominal access time to the (possibly inflated)
	// actual service time of an access starting at instant now.
	ServiceTime(now, base time.Duration) time.Duration
	// TransientError reports whether the access that just completed
	// failed transiently.
	TransientError() bool
	// RetryPolicy returns the retry limit and the first backoff delay
	// (attempt n waits backoff << (n-1)).
	RetryPolicy() (limit int, backoff time.Duration)
}

// Request is one disk access.
type Request struct {
	// Done is invoked at completion, in simulated time. It is not called
	// for cancelled requests.
	Done func()
	// Priority orders the queue under the Priority discipline
	// (higher first); ignored under FCFS.
	Priority float64
	// Tag is opaque caller context (the engine stores the transaction).
	Tag any

	seq       uint64
	queued    bool
	inService bool
	cancelled bool

	attempts   int // transient-error retries consumed so far
	retryWait  bool
	retryEvent sim.Handle
	failed     bool
}

// InService reports whether the request is currently being served.
func (r *Request) InService() bool { return r.inService }

// Failed reports whether the request exhausted its transient-error
// retries; its Done callback still runs, and the caller decides what a
// permanently failed access means (the engine aborts the transaction).
func (r *Request) Failed() bool { return r.failed }

// Attempts returns the number of transient-error retries the request
// consumed.
func (r *Request) Attempts() int { return r.attempts }

// Disk is a single-server queueing model of a disk.
type Disk struct {
	sim        *sim.Simulator
	accessTime time.Duration
	discipline Discipline
	faults     Faults

	queue   []*Request
	current *Request
	seq     uint64

	busySince  sim.Time
	busyTotal  time.Duration
	served     int
	cancelled  int
	retried    int
	failed     int
	maxQueue   int
	queuedArea float64 // integral of queue length over time, for stats
	lastChange sim.Time
}

// New returns an idle disk with the given per-access service time.
func New(s *sim.Simulator, accessTime time.Duration, d Discipline) *Disk {
	if accessTime <= 0 {
		panic(fmt.Sprintf("disk: access time %v <= 0", accessTime))
	}
	return &Disk{sim: s, accessTime: accessTime, discipline: d}
}

// SetFaults installs the fault-injection hook. Must be called before any
// request is submitted; nil (the default) disables injection.
func (d *Disk) SetFaults(f Faults) { d.faults = f }

// busy reports whether a request is in service.
func (d *Disk) busy() bool { return d.current != nil }

// queueLen returns the number of waiting (not in-service) requests.
func (d *Disk) queueLen() int { return len(d.queue) }

// Retried returns the number of transient-error retries served.
func (d *Disk) Retried() int { return d.retried }

// maxQueueLen returns the high-water mark of the wait queue.
func (d *Disk) maxQueueLen() int { return d.maxQueue }

// BusyTime returns the cumulative time the disk has spent serving requests.
func (d *Disk) BusyTime() time.Duration {
	t := d.busyTotal
	if d.current != nil {
		t += time.Duration(d.sim.Now() - d.busySince)
	}
	return t
}

// utilization returns BusyTime divided by elapsed simulated time.
func (d *Disk) utilization() float64 {
	now := d.sim.Now()
	if now == 0 {
		return 0
	}
	return float64(d.BusyTime()) / float64(now)
}

func (d *Disk) noteQueueChange() {
	now := d.sim.Now()
	d.queuedArea += float64(len(d.queue)) * float64(now-d.lastChange)
	d.lastChange = now
	if len(d.queue) > d.maxQueue {
		d.maxQueue = len(d.queue)
	}
}

// meanQueueLen returns the time-averaged wait-queue length.
func (d *Disk) meanQueueLen() float64 {
	now := d.sim.Now()
	if now == 0 {
		return 0
	}
	area := d.queuedArea + float64(len(d.queue))*float64(now-d.lastChange)
	return area / float64(now)
}

// Submit enqueues a request, starting service immediately if the disk is
// idle. Submitting the same request twice, or a request with no Done
// callback, panics.
func (d *Disk) Submit(r *Request) {
	if r.Done == nil {
		panic("disk: request without Done callback")
	}
	if r.queued || r.inService || r.cancelled {
		panic("disk: request resubmitted")
	}
	r.seq = d.seq
	d.seq++
	if d.current == nil {
		d.startService(r)
		return
	}
	d.noteQueueChange()
	r.queued = true
	d.queue = append(d.queue, r)
	if len(d.queue) > d.maxQueue {
		d.maxQueue = len(d.queue)
	}
}

// Cancel removes a request that is still waiting in the queue or in a
// retry backoff. It reports whether the request was removed; a request in
// service cannot be cancelled (the disk stays busy until it completes, per
// the paper), but its Done callback is suppressed.
func (d *Disk) Cancel(r *Request) bool {
	if r.inService {
		r.cancelled = true // suppress Done; service runs to completion
		return false
	}
	if r.retryWait {
		d.sim.Cancel(r.retryEvent)
		r.retryWait = false
		r.cancelled = true
		d.cancelled++
		return true
	}
	if !r.queued {
		return false
	}
	d.noteQueueChange()
	for i, q := range d.queue {
		if q == r {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			break
		}
	}
	r.queued = false
	r.cancelled = true
	d.cancelled++
	return true
}

func (d *Disk) startService(r *Request) {
	r.queued = false
	r.inService = true
	d.current = r
	d.busySince = d.sim.Now()
	t := d.accessTime
	if d.faults != nil {
		t = d.faults.ServiceTime(d.sim.Now(), t)
	}
	d.sim.After(t, func() { d.complete(r) })
}

func (d *Disk) complete(r *Request) {
	d.busyTotal += time.Duration(d.sim.Now() - d.busySince)
	r.inService = false
	d.current = nil
	// A transient error sends the request into a backed-off retry instead
	// of completing it; the disk itself is free to serve others meanwhile.
	// Cancelled requests never retry — their transaction is gone.
	if d.faults != nil && !r.cancelled && d.faults.TransientError() {
		limit, backoff := d.faults.RetryPolicy()
		if r.attempts < limit {
			r.attempts++
			d.retried++
			req := r
			r.retryWait = true
			r.retryEvent = d.sim.After(backoff<<(r.attempts-1), func() { d.resubmit(req) })
			d.startNext()
			return
		}
		r.failed = true
		d.failed++
	}
	d.served++
	d.startNext()
	if !r.cancelled {
		r.Done()
	}
}

// resubmit re-enters a request after its retry backoff. The request keeps
// its original seq, so under the Priority discipline it retains its age
// tiebreak.
func (d *Disk) resubmit(r *Request) {
	r.retryWait = false
	if r.cancelled {
		return
	}
	if d.current == nil {
		d.startService(r)
		return
	}
	d.noteQueueChange()
	r.queued = true
	d.queue = append(d.queue, r)
	if len(d.queue) > d.maxQueue {
		d.maxQueue = len(d.queue)
	}
}

func (d *Disk) startNext() {
	if len(d.queue) == 0 {
		return
	}
	d.noteQueueChange()
	best := 0
	if d.discipline == priority {
		for i := 1; i < len(d.queue); i++ {
			q, b := d.queue[i], d.queue[best]
			if q.Priority > b.Priority || (q.Priority == b.Priority && q.seq < b.seq) {
				best = i
			}
		}
	}
	r := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	d.startService(r)
}
