// The batcher is where an answer leaves the service. Both front-ends hand a
// decoded request straight to its home shard's inbox (Server.submit →
// shard.Service.Enqueue), and that shard's driver injects everything queued
// at its next catch-up in one pass — the batching lives in the inbox, so
// there is no queue and no goroutine here. What is left is the way back:
// batcher.done is the only adapter between a Submission.Done and a
// front-end, so every answer of either protocol — terminal outcomes,
// refusals, the stop sweep — moves the request counters there, once, and is
// then handed to its wire.Completer.
package server

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/wire"
)

// answerCounts tallies answers by their wire.Status*.
type answerCounts [wire.StatusFailed + 1]atomic.Int64

// engineAnswered is every answer the engine gave, whatever the fate.
func (a *answerCounts) engineAnswered() int64 {
	return a[wire.StatusCommitted].Load() + a[wire.StatusDropped].Load() + a[wire.StatusRejected].Load()
}

// batcher counts every answer that comes back to a front-end.
type batcher struct {
	answers answerCounts
}

// done is a submission's Submission.Done: count the answer, then hand it to
// the front-end that is waiting for it. The closure captures the ID and the
// Completer, not the request.
func (b *batcher) done(id uint64, c wire.Completer) func(core.ServiceOutcome, error) {
	return func(o core.ServiceOutcome, err error) {
		status, _, _ := wire.Classify(o, err)
		b.answers[status].Add(1)
		c.Complete(id, o, err)
	}
}
