// The batcher is where an answer leaves the service. Both front-ends hand a
// decoded request straight to its home shard's inbox (Server.enqueue →
// shard.Service.Enqueue), and that shard's driver injects everything queued
// at its next catch-up in one pass — the batching lives in the inbox, so
// there is no queue and no goroutine here. What is left is the way back:
// every submission answers through a counted target, so every answer of
// either protocol — terminal outcomes, refusals, the stop sweep — is
// classified once, moves the request counters there, once, and is then
// handed with its status to the front-end that renders it. A wire
// connection has one counted target for all its submissions, built as it
// opens; the HTTP handler builds one per request.
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

// counted is a front-end's answer target (a wire.Completer): Complete
// classifies the answer, counts it and hands it with its status to r; the
// handle goes straight to r.
type counted struct {
	b *batcher
	r wire.Renderer
}

func (t *counted) Complete(id uint64, o core.ServiceOutcome, err error) {
	status, _, _ := wire.Classify(o, err)
	t.b.answers[status].Add(1)
	t.r.Render(id, status, o, err)
}

func (t *counted) OnHandle(id uint64, h core.SubmitHandle) { t.r.OnHandle(id, h) }
