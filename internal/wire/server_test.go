package wire

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

// stubBackend is a protocol-level test double: it completes submissions
// without a real engine so the wire tests exercise framing, pipelining,
// shedding and shutdown in isolation.
type stubBackend struct {
	mu        sync.Mutex
	draining  bool
	healthErr error
	accept    func(id uint64, req core.ServiceRequest, c Completer) bool

	enqueued  atomic.Int64
	cancelled atomic.Int64
}

func (b *stubBackend) Enqueue(id uint64, req core.ServiceRequest, c Completer) bool {
	b.mu.Lock()
	fn := b.accept
	b.mu.Unlock()
	b.enqueued.Add(1)
	if fn != nil {
		return fn(id, req, c)
	}
	// Default: commit instantly from a fresh goroutine, the way the
	// real driver completes off the caller's stack.
	go func() {
		c.OnHandle(id, core.CancelHandle(func() { b.cancelled.Add(1) }))
		c.Complete(id, core.ServiceOutcome{
			State:    core.StateCommitted,
			Arrival:  time.Second,
			Finish:   time.Second + req.Compute,
			Deadline: time.Second + req.Deadline,
			Response: req.Compute,
		}, nil)
	}()
	return true
}

// Answers builds the target a real backend builds for each connection,
// without the count.
func (b *stubBackend) Answers(r Renderer) Completer { return rendered{r} }

// rendered is a connection's answer target without a count: classify, then
// render.
type rendered struct{ Renderer }

func (t rendered) Complete(id uint64, o core.ServiceOutcome, err error) {
	t.Render(id, Classify(o, err), o, err)
}

func (b *stubBackend) RetryAfterSecs() int { return 7 }

func (b *stubBackend) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

func (b *stubBackend) HealthErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthErr
}

func (b *stubBackend) MetricsBody() ([]byte, error) {
	return []byte(`{"stub":true}`), nil
}

func startWire(t *testing.T, b Backend, opt ServerOptions) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveWire(t, ln, b, opt)
}

func serveWire(t *testing.T, ln net.Listener, b Backend, opt ServerOptions) (*Server, string) {
	t.Helper()
	s := NewServer(b, opt)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func TestWireSubmitEndToEnd(t *testing.T) {
	b := &stubBackend{}
	_, addr := startWire(t, b, ServerOptions{})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Submit(&SubmitReq{
		Items: []txn.Item{1, 2}, Compute: time.Millisecond, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusCommitted || resp.Response != time.Millisecond {
		t.Fatalf("resp %+v, want committed with 1ms response", resp)
	}

	hr, err := c.Health()
	if err != nil || !hr.Healthy || hr.Draining {
		t.Fatalf("health %+v err %v, want healthy", hr, err)
	}
	body, err := c.Metrics()
	if err != nil || string(body) != `{"stub":true}` {
		t.Fatalf("metrics %q err %v", body, err)
	}
}

// TestWirePipelined drives many concurrent submissions over one
// connection and checks each response is correlated back correctly.
func TestWirePipelined(t *testing.T) {
	b := &stubBackend{}
	_, addr := startWire(t, b, ServerOptions{})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct compute per request: the echoed Response proves
			// responses were matched to their own requests.
			want := time.Duration(i+1) * time.Microsecond
			resp, err := c.Submit(&SubmitReq{
				Items: []txn.Item{txn.Item(i % 8)}, Compute: want, Deadline: time.Second,
			})
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != StatusCommitted || resp.Response != want {
				errs <- &net.AddrError{Err: "mismatched response", Addr: resp.Response.String()}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := b.enqueued.Load(); got != n {
		t.Fatalf("backend saw %d submissions, want %d", got, n)
	}
}

// TestWireShedding checks the three refusal paths: draining (the serving
// path answers core.ErrDraining through Complete — this front-end has no
// drain check of its own), backend refusal, and invalid payloads — all must
// answer with Retry-After semantics rather than hanging or closing the
// connection.
func TestWireShedding(t *testing.T) {
	b := &stubBackend{}
	_, addr := startWire(t, b, ServerOptions{})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	req := SubmitReq{Items: []txn.Item{1}, Compute: time.Millisecond, Deadline: time.Second}

	b.mu.Lock()
	b.draining = true
	b.healthErr = core.ErrDraining
	b.accept = func(id uint64, _ core.ServiceRequest, c Completer) bool {
		c.Complete(id, core.ServiceOutcome{}, core.ErrDraining)
		return true
	}
	b.mu.Unlock()
	resp, err := c.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusShed || resp.RetryAfter != 7 || resp.Err != core.ErrDraining.Error() {
		t.Fatalf("draining: %+v, want shed with Retry-After 7", resp)
	}
	hr, err := c.Health()
	if err != nil || hr.Healthy || !hr.Draining {
		t.Fatalf("draining health %+v err %v", hr, err)
	}

	b.mu.Lock()
	b.draining = false
	b.healthErr = nil
	b.accept = func(uint64, core.ServiceRequest, Completer) bool { return false }
	b.mu.Unlock()
	resp, err = c.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusShed || resp.RetryAfter != 7 {
		t.Fatalf("refused: %+v, want shed with Retry-After 7", resp)
	}

	bad := req
	bad.Compute = -time.Millisecond
	resp, err = c.Submit(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusInvalid || !strings.Contains(resp.Err, "compute") {
		t.Fatalf("invalid: %+v, want StatusInvalid mentioning compute", resp)
	}
}

// TestWireDisconnectCancels checks that dropping a connection wounds
// its in-flight submissions instead of leaking them.
func TestWireDisconnectCancels(t *testing.T) {
	b := &stubBackend{}
	release := make(chan struct{})
	b.accept = func(id uint64, _ core.ServiceRequest, c Completer) bool {
		c.OnHandle(id, core.CancelHandle(func() { b.cancelled.Add(1) }))
		go func() {
			<-release
			c.Complete(id, core.ServiceOutcome{State: core.StateDropped}, nil)
		}()
		return true
	}
	s, addr := startWire(t, b, ServerOptions{})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go c.Submit(&SubmitReq{Items: []txn.Item{1}, Compute: time.Hour, Deadline: time.Hour})
	waitFor(t, func() bool { return b.enqueued.Load() == 1 })
	c.Close()
	waitFor(t, func() bool { return b.cancelled.Load() == 1 })
	close(release)
	waitFor(t, func() bool { return s.Counters().Conns == 0 })
}

// TestWireShutdownDelivers checks graceful shutdown: responses already
// earned are delivered before the connections die, and no goroutines
// leak.
func TestWireShutdownDelivers(t *testing.T) {
	before := runtime.NumGoroutine()

	b := &stubBackend{}
	gate := make(chan struct{})
	b.accept = func(id uint64, req core.ServiceRequest, c Completer) bool {
		go func() {
			<-gate
			c.Complete(id, core.ServiceOutcome{State: core.StateCommitted, Response: req.Compute}, nil)
		}()
		return true
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(b, ServerOptions{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	resps := make(chan SubmitResp, n)
	for i := 0; i < n; i++ {
		go func() {
			r, err := c.Submit(&SubmitReq{Items: []txn.Item{1}, Compute: time.Millisecond, Deadline: time.Second})
			if err == nil {
				resps <- r
			}
		}()
	}
	waitFor(t, func() bool { return b.enqueued.Load() == n })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin waiting
	close(gate)                       // engine finishes its drain
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-resps:
			if r.Status != StatusCommitted {
				t.Fatalf("response %d: %+v, want committed", i, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d responses delivered before close", i, n)
		}
	}
	c.Close()

	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
