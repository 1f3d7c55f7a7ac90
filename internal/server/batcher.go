// The batcher is the amortisation layer between the front-ends and the
// engine: every protocol (HTTP/JSON, binary wire) enqueues decoded
// submissions here, and per-queue flushers inject everything that
// accumulated while the engine driver was busy in a single SubmitBatch
// call. Under load the per-transaction cross-goroutine handoff — the
// dominant serving cost once parsing is cheap — collapses to one driver
// wakeup per batch. Queues are sharded to align with the engine shards
// (item i lives on shard i % N), so a flusher's batch tends to be
// single-shard and takes the sharded service's direct routing path.
//
// It is also where an answer leaves the service: batcher.done is the only
// adapter between a Submission.Done and a front-end, so every answer of
// either protocol — terminal outcomes, refusals, the shutdown sweep — moves
// the request counters there, once, and is then handed to its
// wire.Completer.
package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// pending is one decoded submission waiting for batch injection.
type pending struct {
	id  uint64
	req core.ServiceRequest
	c   wire.Completer
}

// answerCounts tallies answers by their wire.Status*.
type answerCounts [wire.StatusFailed + 1]atomic.Int64

// engineAnswered is every answer the engine gave, whatever the fate.
func (a *answerCounts) engineAnswered() int64 {
	return a[wire.StatusCommitted].Load() + a[wire.StatusDropped].Load() + a[wire.StatusRejected].Load()
}

type batcher struct {
	svc *shard.Service
	// answers is Server.answers.
	answers  *answerCounts
	queues   []chan pending
	maxBatch int
	stop     chan struct{}
	wg       sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

func newBatcher(svc *shard.Service, depth int, answers *answerCounts) *batcher {
	qs := make([]chan pending, svc.Shards())
	for i := range qs {
		qs[i] = make(chan pending, depth)
	}
	return &batcher{
		svc:      svc,
		answers:  answers,
		queues:   qs,
		maxBatch: 512,
		stop:     make(chan struct{}),
	}
}

func (b *batcher) start() {
	for _, q := range b.queues {
		b.wg.Add(1)
		go b.flusher(q)
	}
}

// shutdown stops the flushers and answers what is still queued through the
// same done as every other answer. Every enqueued submission is guaranteed
// one: entries a flusher took were answered through SubmitBatch's Done
// contract, nothing can join a queue once closed is set (enqueue sends under
// the read lock), and the service is draining by now, so the refusal here is
// the one SubmitBatch would have given.
func (b *batcher) shutdown() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
	for _, q := range b.queues {
		for len(q) > 0 {
			p := <-q
			b.done(p.id, p.c)(core.ServiceOutcome{}, core.ErrDraining)
		}
	}
}

// enqueue routes one submission to its shard-aligned queue. False means
// the queue is full or the batcher is shut down — an overload shed the
// caller must answer itself (nothing will be called back).
func (b *batcher) enqueue(id uint64, req core.ServiceRequest, c wire.Completer) bool {
	qi := 0
	if n := len(b.queues); n > 1 && len(req.Items) > 0 {
		if it := int(req.Items[0]); it >= 0 {
			qi = it % n
		}
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return false
	}
	select {
	case b.queues[qi] <- pending{id: id, req: req, c: c}:
		return true
	default:
		return false
	}
}

func (b *batcher) flusher(q chan pending) {
	defer b.wg.Done()
	batch := make([]pending, 0, b.maxBatch)
	subs := make([]core.Submission, 0, b.maxBatch)
	for {
		select {
		case p := <-q:
			batch = append(batch[:0], p)
			b.fill(&batch, q)
			subs = b.inject(batch, subs[:0])
		case <-b.stop:
			return
		}
	}
}

// fill greedily drains q into batch — everything that arrived while the
// driver was busy rides the same injection.
func (b *batcher) fill(batch *[]pending, q chan pending) {
	for len(*batch) < b.maxBatch {
		select {
		case p := <-q:
			*batch = append(*batch, p)
		default:
			return
		}
	}
}

// done is a submission's Submission.Done: count the answer, then hand it to
// the front-end that is waiting for it. The closure outlives the batch
// slice; it captures the two words it needs, not the request.
func (b *batcher) done(id uint64, c wire.Completer) func(core.ServiceOutcome, error) {
	return func(o core.ServiceOutcome, err error) {
		status, _, _ := wire.Classify(o, err)
		b.answers[status].Add(1)
		c.Complete(id, o, err)
	}
}

func (b *batcher) inject(batch []pending, subs []core.Submission) []core.Submission {
	for i := range batch {
		subs = append(subs, core.Submission{Req: batch[i].req, Done: b.done(batch[i].id, batch[i].c)})
	}
	handles := b.svc.SubmitBatch(subs)
	for i := range handles {
		batch[i].c.OnHandle(batch[i].id, handles[i])
	}
	return subs
}
