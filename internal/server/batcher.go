// The batcher is where an answer leaves the service. A wire connection
// hands a decoded request straight to its home shard's inbox
// (wireBackend.Enqueue → shard.Service.Enqueue), and that shard's driver
// injects everything queued at its next catch-up in one pass — the batching
// lives in the inbox, so there is no queue and no goroutine here. What is
// left is the way back: every submission answers through its connection's
// counted target, so every answer — terminal outcomes, refusals, the stop
// sweep — is classified once, moves the answer counters there, once, and
// is then handed with its status to the connection that renders it.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// answerCounts tallies answers by their wire.Status*.
type answerCounts [wire.StatusFailed + 1]atomic.Int64

// engineAnswered is every answer the engine gave, whatever the fate.
func (a *answerCounts) engineAnswered() int64 {
	return a[wire.StatusCommitted].Load() + a[wire.StatusDropped].Load() + a[wire.StatusRejected].Load()
}

// answerTotals is answerCounts as /metrics renders it.
type answerTotals struct {
	Committed int64 `json:"committed"`
	Dropped   int64 `json:"dropped"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"` // refused by the draining or stopped service
	Invalid   int64 `json:"invalid"`
	Failed    int64 `json:"failed"`
}

func (a *answerCounts) totals() answerTotals {
	return answerTotals{
		Committed: a[wire.StatusCommitted].Load(),
		Dropped:   a[wire.StatusDropped].Load(),
		Rejected:  a[wire.StatusRejected].Load(),
		Shed:      a[wire.StatusShed].Load(),
		Invalid:   a[wire.StatusInvalid].Load(),
		Failed:    a[wire.StatusFailed].Load(),
	}
}

// batcher counts every answer that comes back to a connection and keeps
// the engine residence of the committed ones: a commit's outcome Response
// (engine time from arrival to commit) divided by the service's speed, in
// a fixed-bucket log-scale histogram — constant memory, bounded quantile
// error, no sample eviction.
type batcher struct {
	answers answerCounts
	speed   float64 // simulated seconds per wall second, > 0

	mu   sync.Mutex
	resp metrics.Histogram
}

// observe records one commit's engine residence.
func (b *batcher) observe(response time.Duration) {
	v := ms(response) / b.speed
	b.mu.Lock()
	b.resp.Observe(v)
	b.mu.Unlock()
}

// percentiles reads the residence histogram (zeros before the first commit).
func (b *batcher) percentiles() (p50, p95, p99 float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.resp.Quantile(0.50), b.resp.Quantile(0.95), b.resp.Quantile(0.99)
}

// counted is a connection's answer target (a wire.Completer): Complete
// classifies the answer, counts it, records a commit's residence and hands
// the answer with its status to r; the handle goes straight to r.
type counted struct {
	b *batcher
	r wire.Renderer
}

func (t *counted) Complete(id uint64, o core.ServiceOutcome, err error) {
	status := wire.Classify(o, err)
	t.b.answers[status].Add(1)
	if status == wire.StatusCommitted {
		t.b.observe(o.Response)
	}
	t.r.Render(id, status, o, err)
}

func (t *counted) OnHandle(id uint64, h core.SubmitHandle) { t.r.OnHandle(id, h) }
