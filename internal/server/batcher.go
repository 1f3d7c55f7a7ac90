// The batcher is the amortisation layer between the front-ends and the
// engine: every protocol (HTTP/JSON, binary wire) enqueues decoded
// submissions here, and per-queue flushers inject everything that
// accumulated while the engine driver was busy in a single SubmitBatch
// call. Under load the per-transaction cross-goroutine handoff — the
// dominant serving cost once parsing is cheap — collapses to one driver
// wakeup per batch. Queues are sharded to align with the engine shards
// (item i lives on shard i % N), so a flusher's batch tends to be
// single-shard and takes the sharded service's direct routing path.
package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// pending is one decoded submission waiting for batch injection.
type pending struct {
	id  uint64
	req core.ServiceRequest
	c   wire.Completer
	// counted has the batcher fold the answer into the server's request
	// counters: the wire path. The HTTP handler counts as it writes its
	// response.
	counted bool
}

type batcher struct {
	svc *shard.Service
	// count is Server.countAnswer.
	count    func(core.ServiceOutcome, error)
	queues   []chan pending
	maxBatch int
	stop     chan struct{}
	wg       sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

func newBatcher(svc *shard.Service, depth int, count func(core.ServiceOutcome, error)) *batcher {
	qs := make([]chan pending, svc.Shards())
	for i := range qs {
		qs[i] = make(chan pending, depth)
	}
	return &batcher{
		svc:      svc,
		count:    count,
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

// shutdown stops the flushers and fails anything still queued. Every
// enqueued submission is guaranteed an answer: entries that reached a
// flusher were answered through SubmitBatch's Done contract, and the
// final sweep here answers the stragglers.
func (b *batcher) shutdown() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
	for _, q := range b.queues {
		for {
			select {
			case p := <-q:
				p.c.Complete(p.id, core.ServiceOutcome{}, core.ErrDraining)
			default:
			}
			if len(q) == 0 {
				break
			}
		}
	}
}

// enqueue routes one submission to its shard-aligned queue. False means
// the queue is full or the batcher is shut down — an overload shed the
// caller must answer itself (nothing will be called back).
func (b *batcher) enqueue(id uint64, req core.ServiceRequest, c wire.Completer, counted bool) bool {
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
	case b.queues[qi] <- pending{id: id, req: req, c: c, counted: counted}:
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
			// Final greedy sweep; the service is draining by now, so
			// these resolve instantly with ErrDraining.
			for {
				select {
				case p := <-q:
					batch = append(batch[:0], p)
					b.fill(&batch, q)
					subs = b.inject(batch, subs[:0])
				default:
					return
				}
			}
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

func (b *batcher) inject(batch []pending, subs []core.Submission) []core.Submission {
	for i := range batch {
		// The closure outlives the batch slice; it captures the three
		// words it needs, not the request.
		id, c, counted := batch[i].id, batch[i].c, batch[i].counted
		subs = append(subs, core.Submission{
			Req: batch[i].req,
			Done: func(o core.ServiceOutcome, err error) {
				if counted {
					b.count(o, err)
				}
				c.Complete(id, o, err)
			},
		})
	}
	handles := b.svc.SubmitBatch(subs)
	for i := range handles {
		batch[i].c.OnHandle(batch[i].id, handles[i])
	}
	return subs
}
