package server

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

// answerLog is a wire.Renderer that records what each submission ID was
// given: how many handles, and every answer, as a status, in order.
type answerLog struct {
	mu       sync.Mutex
	handles  map[uint64]int
	answers  map[uint64][]uint8
	errs     map[uint64]error
	early    []uint64 // answered before any handle
	answered chan struct{}
}

func newAnswerLog() *answerLog {
	return &answerLog{
		handles:  map[uint64]int{},
		answers:  map[uint64][]uint8{},
		errs:     map[uint64]error{},
		answered: make(chan struct{}, 1024), // more than any test here submits
	}
}

func (l *answerLog) OnHandle(id uint64, _ core.SubmitHandle) {
	l.mu.Lock()
	l.handles[id]++
	l.mu.Unlock()
}

func (l *answerLog) Render(id uint64, status uint8, _ core.ServiceOutcome, err error) {
	l.mu.Lock()
	if l.handles[id] == 0 {
		l.early = append(l.early, id)
	}
	l.answers[id] = append(l.answers[id], status)
	l.errs[id] = err
	l.mu.Unlock()
	l.answered <- struct{}{}
}

// wait blocks until n more answers have arrived.
func (l *answerLog) wait(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-l.answered:
		case <-timeout:
			t.Fatalf("%d of %d answers arrived", i, n)
		}
	}
}

// check requires id to have had exactly one handle and then exactly one
// answer, with the given status.
func (l *answerLog) check(t *testing.T, id uint64, status uint8) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if h, a := l.handles[id], l.answers[id]; h != 1 || len(a) != 1 || a[0] != status {
		t.Errorf("submission %d: %d handles, answers %v (err %v); want 1 handle, then [%d]", id, h, a, l.errs[id], status)
	}
	for _, e := range l.early {
		if e == id {
			t.Errorf("submission %d answered before its handle", id)
		}
	}
}

func (l *answerLog) seen(id uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.handles[id] != 0 || len(l.answers[id]) != 0
}

// holdShard parks the driver of item's shard inside the answer of a
// transaction of its own, so what is enqueued for that shard next waits in
// its inbox until release is called.
func holdShard(t *testing.T, s *Server, item int) (release func()) {
	t.Helper()
	held, rel := make(chan struct{}), make(chan struct{})
	s.svc.SubmitBatch([]core.Submission{{
		Req:  core.ServiceRequest{Items: itemSeq(item), Compute: time.Millisecond, Deadline: time.Hour},
		Done: func(core.ServiceOutcome, error) { close(held); <-rel },
	}})
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the holding transaction never finished")
	}
	var once sync.Once
	release = func() { once.Do(func() { close(rel) }) }
	t.Cleanup(release)
	return release
}

func quickReq(items ...int) core.ServiceRequest {
	return core.ServiceRequest{Items: itemSeq(items...), Compute: time.Millisecond, Deadline: time.Hour}
}

// TestInboxStopSweepCounts: a submission still in its shard's inbox when
// the driver stops is answered by Run's sweep — its no-op handle, then
// ErrServiceStopped through its counted target, counted once. One enqueued after
// the stop is answered before the enqueue returns, the same way.
func TestInboxStopSweepCounts(t *testing.T) {
	s, err := New(Options{Core: core.MainMemoryConfig(core.CCA, 35)})
	if err != nil {
		t.Fatal(err)
	}
	log := newAnswerLog()
	if !s.submit(1, quickReq(1), log) {
		t.Fatal("an empty inbox shed")
	}
	if log.seen(1) {
		t.Fatal("the queued submission was answered before the driver ran")
	}
	// On a cancelled context the driver stops at its first look, with the
	// inbox as it was.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.svc.Run(ctx)
	log.wait(t, 1)
	log.check(t, 1, wire.StatusShed)
	if !errors.Is(log.errs[1], core.ErrServiceStopped) {
		t.Errorf("swept submission answered %v, want ErrServiceStopped", log.errs[1])
	}
	if got, want := countersOf(s), (requestCounters{Shed: 1}); got != want {
		t.Fatalf("request counters %+v after the sweep, want %+v", got, want)
	}

	if !s.submit(2, quickReq(1), log) {
		t.Fatal("a stopped service shed instead of answering")
	}
	if !log.seen(2) {
		t.Fatal("a submission after the stop was not answered at once")
	}
	log.wait(t, 1)
	log.check(t, 2, wire.StatusShed)
	if got, want := countersOf(s), (requestCounters{Shed: 2}); got != want {
		t.Fatalf("request counters %+v, want %+v", got, want)
	}
}

// TestInboxPanicAnswersQueuedOnce: under supervision with restarts, a shard
// whose driver panics while submissions wait in its inbox answers each of
// them exactly once (the stop sweep, ErrServiceStopped), and its
// replacement takes new work.
func TestInboxPanicAnswersQueuedOnce(t *testing.T) {
	s, _, _, _ := startDualServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 36),
		Service:   core.ServiceOptions{Speed: 50},
		Shards:    2,
		Supervise: shard.SuperviseOptions{Enabled: true, Restart: true},
	})
	release := holdShard(t, s, 0)
	// The panic is queued ahead of the drain the submissions below wake.
	if err := s.svc.InjectShardPanic(0, "inbox"); err != nil {
		t.Fatal(err)
	}
	log := newAnswerLog()
	const n = 8
	for id := uint64(1); id <= n; id++ {
		if !s.submit(id, quickReq(2*int(id)), log) {
			t.Fatalf("submission %d shed", id)
		}
	}
	release()
	log.wait(t, n)
	for id := uint64(1); id <= n; id++ {
		log.check(t, id, wire.StatusShed)
	}
	if got, want := countersOf(s), (requestCounters{Shed: n}); got != want {
		t.Errorf("request counters %+v, want %+v", got, want)
	}

	waitUntil(t, "shard restarted", func() bool { return s.svc.SupervisionStats().Restarts == 1 })
	if !s.submit(n+1, quickReq(2), log) {
		t.Fatal("the replacement shard shed")
	}
	log.wait(t, 1)
	log.check(t, n+1, wire.StatusCommitted)
}

// TestInboxFullSheds: while the driver is held, an inbox holding
// MaxInflight submissions sheds the next one as "service overloaded". The
// wire front-end counts that shed once and Complete is never called for it;
// the queued ones commit once the driver runs.
func TestInboxFullSheds(t *testing.T) {
	const depth = 4
	s, _, wireAddr, _ := startDualServer(t, Options{
		Core:        core.MainMemoryConfig(core.CCA, 37),
		Service:     core.ServiceOptions{Speed: 50},
		MaxInflight: depth,
	})
	release := holdShard(t, s, 0)
	log := newAnswerLog()
	for id := uint64(1); id <= depth; id++ {
		if !s.submit(id, quickReq(int(id)), log) {
			t.Fatalf("submission %d shed below the bound", id)
		}
	}
	if s.submit(depth+1, quickReq(depth+1), log) {
		t.Fatal("a full inbox took another submission")
	}

	c, err := wire.Dial(wireAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The shed response waits for its Retry-After, which asks the driver
	// for the load: read it only once the driver runs again.
	type result struct {
		resp wire.SubmitResp
		err  error
	}
	shed := make(chan result, 1)
	go func() {
		resp, err := c.Submit(&wire.SubmitReq{Items: itemSeq(depth + 2), Compute: time.Millisecond, Deadline: time.Hour})
		shed <- result{resp, err}
	}()
	waitUntil(t, "wire shed counted", func() bool { return s.wireSrv.Load().Counters().Shed == 1 })

	release()
	r := <-shed
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.resp.Status != wire.StatusShed || r.resp.Err != "service overloaded" || r.resp.RetryAfter == 0 {
		t.Fatalf("wire submit into a full inbox: %+v, want shed \"service overloaded\" with Retry-After", r.resp)
	}
	log.wait(t, depth)
	for id := uint64(1); id <= depth; id++ {
		log.check(t, id, wire.StatusCommitted)
	}
	if log.seen(depth + 1) {
		t.Error("the shed submission got a handle or an answer")
	}
	// A Complete for the shed request would reach the client as a second
	// frame for its ID; the next round trip on the connection would read it.
	resp, err := c.Submit(&wire.SubmitReq{Items: itemSeq(depth + 3), Compute: time.Millisecond, Deadline: time.Hour})
	if err != nil || resp.Status != wire.StatusCommitted {
		t.Fatalf("submit after the release: %+v, %v", resp, err)
	}
	if n := c.Unmatched(); n != 0 {
		t.Errorf("the client read %d frames nobody was waiting for", n)
	}
	// The depth queued ones and the last wire one were answered through
	// their counted targets; the shed one was not.
	if got, want := countersOf(s), (requestCounters{Accepted: depth + 1}); got != want {
		t.Errorf("request counters %+v, want %+v", got, want)
	}
}

// TestInboxInjectsInLogOrder: with two shards, the WAL on and four wire
// clients racing each other (eight pipelining goroutines each, enough
// contention to catch a submit record appended outside the inbox lock in
// most runs), a shard injects its single-home requests in
// the order their submit records were logged — on either shard's clock, a
// higher Seq never has an earlier Arrival.
func TestInboxInjectsInLogOrder(t *testing.T) {
	_, _, wireAddr, _ := startDualServer(t, Options{
		Core:        core.MainMemoryConfig(core.CCA, 38),
		Shards:      2,
		WALFS:       wal.NewMemFS(),
		MaxInflight: 1024,
	})
	type stamp struct {
		seq     uint64
		arrival time.Duration
	}
	var mu sync.Mutex
	var byShard [2][]stamp
	const clients, workers, perWorker = 4, 8, 500
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		c, err := wire.Dial(wireAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(c *wire.Client, g int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					home := (g + i) % 2
					a := 2*((g*7+i)%15) + home
					b := 2*((g*11+i+1)%15) + home
					if a == b {
						b = (b + 2) % 30
					}
					resp, err := c.Submit(&wire.SubmitReq{Items: itemSeq(a, b), Compute: 50 * time.Microsecond, Deadline: time.Hour})
					if err != nil || resp.Status != wire.StatusCommitted || resp.Seq == 0 {
						t.Errorf("submit: %+v, %v; want a durable commit", resp, err)
						return
					}
					mu.Lock()
					byShard[home] = append(byShard[home], stamp{resp.Seq, resp.Arrival})
					mu.Unlock()
				}
			}(c, g)
		}
	}
	wg.Wait()
	for sh, stamps := range byShard {
		sort.Slice(stamps, func(i, j int) bool { return stamps[i].seq < stamps[j].seq })
		for i := 1; i < len(stamps); i++ {
			if stamps[i].arrival < stamps[i-1].arrival {
				t.Fatalf("shard %d: seq %d arrived at %v, before seq %d at %v",
					sh, stamps[i].seq, stamps[i].arrival, stamps[i-1].seq, stamps[i-1].arrival)
			}
		}
	}
}
