package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/wire"
)

// startServer builds a server on loopback listeners — the status port and
// the wire protocol — and runs it until the returned stop func is called
// (which also waits for ServeListeners to return and reports its error).
// base is the status port's URL.
func startServer(t *testing.T, opts Options) (s *Server, base, wireAddr string, stop func() error) {
	t.Helper()
	if opts.Service.Speed == 0 {
		opts.Service.Speed = 5000
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	statusLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeListeners(ctx, statusLn, wireLn) }()
	stopped := false
	stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("ServeListeners did not return after cancel")
			return nil
		}
	}
	t.Cleanup(func() { _ = stop() })
	return s, "http://" + statusLn.Addr().String(), wireLn.Addr().String(), stop
}

// dial opens a wire client to addr, closed when the test ends.
func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// submit sends one request over c and fails the test on a transport error.
func submit(t *testing.T, c *wire.Client, req core.ServiceRequest) wire.SubmitResp {
	t.Helper()
	resp, err := c.Submit(&wire.SubmitReq{
		Items: req.Items, Reads: req.Reads, NeedsIO: req.NeedsIO,
		Compute: req.Compute, Deadline: req.Deadline,
		Criticality: req.Criticality, Class: req.Class,
	})
	if err != nil {
		t.Fatalf("wire submit: %v", err)
	}
	return resp
}

// get fetches a status-port URL and returns the code and the body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	_, body := get(t, url)
	return body
}

// TestServerSubmitCommit drives a commit end to end over the wire.
func TestServerSubmitCommit(t *testing.T) {
	_, _, wireAddr, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 1)})
	out := submit(t, dial(t, wireAddr), core.ServiceRequest{
		Items: itemSeq(1, 2, 3), Compute: time.Millisecond, Deadline: 500 * time.Millisecond,
	})
	if out.Status != wire.StatusCommitted || out.Missed {
		t.Fatalf("outcome %+v, want committed and met", out)
	}
	if out.Response <= 0 || out.Finish < out.Arrival {
		t.Fatalf("incoherent timings: %+v", out)
	}
}

// TestServerBadRequests checks the refusals: a request the engine cannot
// take is StatusInvalid on the wire with its reason, and the status port
// answers 404 to an unknown path and 405 to anything but GET.
func TestServerBadRequests(t *testing.T) {
	_, base, wireAddr, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 2)})
	c := dial(t, wireAddr)
	if out := submit(t, c, core.ServiceRequest{Compute: time.Millisecond, Deadline: time.Second}); out.Status != wire.StatusInvalid || out.Err == "" {
		t.Fatalf("empty items: %+v, want invalid with a reason", out)
	}
	if out := submit(t, c, core.ServiceRequest{Items: itemSeq(3, 3), Compute: time.Millisecond, Deadline: time.Second}); out.Status != wire.StatusInvalid {
		t.Fatalf("item named twice: %+v, want invalid", out)
	}

	if code, _ := get(t, base+"/submit"); code != http.StatusNotFound {
		t.Fatalf("GET /submit: status %d, want 404", code)
	}
	for _, method := range []string{http.MethodPost, http.MethodHead, http.MethodDelete} {
		req, _ := http.NewRequest(method, base+"/metrics", strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s /metrics: %v", method, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
			t.Fatalf("%s /metrics: status %d Allow %q, want 405 GET", method, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
}

// TestServerShedsAtCapacity checks the bounded pipeline: with the one slot
// of a connection held by a slow transaction, the next submission on it is
// shed with a fast StatusShed and a retry hint instead of queueing.
func TestServerShedsAtCapacity(t *testing.T) {
	s, _, wireAddr, _ := startServer(t, Options{
		Core:        core.MainMemoryConfig(core.CCA, 3),
		Service:     core.ServiceOptions{Speed: 50}, // slow enough to hold the slot
		MaxInflight: 1,
	})
	c := dial(t, wireAddr)
	slow := make(chan wire.SubmitResp, 1)
	go func() {
		slow <- submit(t, c, core.ServiceRequest{
			Items:    itemSeq(1),
			Compute:  2 * time.Second, // 40ms wall at speed 50
			Deadline: time.Hour,
		})
	}()
	waitUntil(t, "slow submission live", liveIs(s, 1))

	start := time.Now()
	out := submit(t, c, core.ServiceRequest{Items: itemSeq(2), Compute: time.Millisecond, Deadline: time.Second})
	if out.Status != wire.StatusShed || out.RetryAfter == 0 {
		t.Fatalf("second submission: %+v, want shed with a retry hint", out)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed answer took %v; shedding must be fast", elapsed)
	}
	if out := <-slow; out.Status != wire.StatusCommitted {
		t.Fatalf("slow submission finished %+v, want committed", out)
	}
}

// TestServerAdmissionRejects checks that an engine-level admission
// rejection surfaces as StatusRejected with a retry hint.
func TestServerAdmissionRejects(t *testing.T) {
	cfg := core.MainMemoryConfig(core.CCA, 4)
	cfg.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
	_, _, wireAddr, _ := startServer(t, Options{Core: cfg})

	items := make([]int, 25)
	for i := range items {
		items[i] = i
	}
	out := submit(t, dial(t, wireAddr), core.ServiceRequest{
		Items:    itemSeq(items...),
		Compute:  time.Millisecond,
		Deadline: 2 * time.Millisecond, // infeasible
	})
	if out.Status != wire.StatusRejected || out.RetryAfter == 0 {
		t.Fatalf("infeasible submit: %+v, want rejected with a retry hint", out)
	}
}

// TestServerObservability checks /metrics, /healthz and a text profile on
// the status port.
func TestServerObservability(t *testing.T) {
	_, base, wireAddr, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 5)})
	if out := submit(t, dial(t, wireAddr), core.ServiceRequest{
		Items: itemSeq(4), Compute: time.Millisecond, Deadline: time.Second,
	}); out.Status != wire.StatusCommitted {
		t.Fatalf("seed submit: %+v", out)
	}

	code, body := get(t, base+"/metrics")
	var m metricsResponse
	if err := json.Unmarshal([]byte(body), &m); code != http.StatusOK || err != nil {
		t.Fatalf("GET /metrics: %d %v\n%s", code, err, body)
	}
	if m.Answers.Committed != 1 || m.Engine == nil || m.Wire == nil || m.Wire.Submits != 1 {
		t.Fatalf("metrics %+v: want one committed answer, one wire submit and engine counters", m)
	}
	eng, _ := json.Marshal(m.Engine)
	var res struct {
		Committed int `json:"committed"`
	}
	_ = json.Unmarshal(eng, &res)
	if res.Committed != 1 {
		t.Fatalf("engine counters %s: want committed=1", eng)
	}

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok draining=false") {
		t.Fatalf("GET /healthz: %d %q", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.HasPrefix(body, "goroutine profile:") {
		t.Fatalf("GET /debug/pprof/goroutine?debug=1: %d %q", code, body)
	}
}

// TestResponsePercentilesSeeWireTraffic: the /metrics response percentiles
// are the engine residence of committed wire answers, so wire-only load
// moves them off zero, on the status port and in the wire metrics frame.
func TestResponsePercentilesSeeWireTraffic(t *testing.T) {
	_, base, wireAddr, _ := startServer(t, Options{
		Core:    core.MainMemoryConfig(core.CCA, 9),
		Service: core.ServiceOptions{Speed: 50},
	})
	c := dial(t, wireAddr)
	if out := submit(t, c, core.ServiceRequest{Items: itemSeq(1, 2), Compute: time.Millisecond, Deadline: time.Second}); out.Status != wire.StatusCommitted {
		t.Fatalf("submit: %+v", out)
	}
	var m metricsResponse
	if err := json.Unmarshal([]byte(getBody(t, base+"/metrics")), &m); err != nil {
		t.Fatal(err)
	}
	// Two items of 1 ms engine time at speed 50 are at least 40 µs of wall
	// time in the engine.
	if m.P50ResponseMs < 0.04 || m.P99ResponseMs < m.P50ResponseMs {
		t.Fatalf("response percentiles p50 %v p95 %v p99 %v after a wire commit, want p50 >= 0.04 ms",
			m.P50ResponseMs, m.P95ResponseMs, m.P99ResponseMs)
	}
	body, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var viaWire metricsResponse
	if err := json.Unmarshal(body, &viaWire); err != nil || viaWire.P50ResponseMs != m.P50ResponseMs {
		t.Fatalf("wire metrics frame p50 %v (%v), want %v", viaWire.P50ResponseMs, err, m.P50ResponseMs)
	}
}

// TestServerPanicIsolation checks that a status handler's panic answers
// 500 on that connection alone: the port, the engine and the wire keep
// serving.
func TestServerPanicIsolation(t *testing.T) {
	s, _, wireAddr, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 6)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := newStatusPort(ln, func(path, query string, stop <-chan struct{}) (int, string, []byte) {
		if path == "/boom" {
			panic("kaboom")
		}
		return s.status(path, query, stop)
	})
	served := make(chan error, 1)
	go func() { served <- p.serve() }()
	base := "http://" + ln.Addr().String()

	if code, body := get(t, base+"/boom"); code != http.StatusInternalServerError || !strings.Contains(body, "kaboom") {
		t.Fatalf("panicking handler answered %d %q, want 500 naming the panic", code, body)
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after the panic: %d", code)
	}
	if out := submit(t, dial(t, wireAddr), core.ServiceRequest{Items: itemSeq(1), Compute: time.Millisecond, Deadline: time.Second}); out.Status != wire.StatusCommitted {
		t.Fatalf("post-panic submit: %+v", out)
	}
	p.shutdown()
	if err := <-served; err != nil {
		t.Fatalf("serve after shutdown: %v", err)
	}
}

// TestServerGracefulShutdown checks the drain sequence: cancelling
// ServeListeners' context wounds the in-flight transaction (its client is
// answered dropped), ServeListeners returns nil, and the status port is
// closed afterwards.
func TestServerGracefulShutdown(t *testing.T) {
	s, base, wireAddr, stop := startServer(t, Options{
		Core:         core.MainMemoryConfig(core.CCA, 7),
		Service:      core.ServiceOptions{Speed: 50},
		DrainTimeout: 50 * time.Millisecond,
	})
	c := dial(t, wireAddr)
	inflight := make(chan wire.SubmitResp, 1)
	go func() {
		inflight <- submit(t, c, core.ServiceRequest{
			Items:    itemSeq(1, 2, 3),
			Compute:  time.Minute, // far longer than the drain budget
			Deadline: time.Hour,
		})
	}()
	waitUntil(t, "submission live", liveIs(s, 1))

	start := time.Now()
	if err := stop(); err != nil {
		t.Fatalf("ServeListeners returned %v, want nil on cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
	select {
	case out := <-inflight:
		if out.Status != wire.StatusDropped {
			t.Fatalf("in-flight request answered %+v, want dropped", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never answered during drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("status port still accepting after shutdown")
	}
}

// TestServerEngineFailureSurfaces checks that a live safety-oracle
// violation stops the service, makes ServeListeners return the failure,
// and turns /healthz into a 503 naming it.
func TestServerEngineFailureSurfaces(t *testing.T) {
	opts := Options{
		Core:    core.MainMemoryConfig(core.CCA, 8),
		Service: core.ServiceOptions{Speed: 5000, Oracle: true},
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.ServeListeners(ctx, ln, nil) }()

	// A lower-priority transaction wounding a higher-priority one violates
	// Lemma 1; the live oracle must stop the service on observing it.
	if err := s.svc.InjectEvent(trace.Event{Kind: trace.Wound, Txn: 1, Other: 2, Priority: 1, OtherPriority: 5}); err != nil {
		t.Fatalf("InjectEvent: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeListeners returned nil after an oracle violation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeListeners did not return after the oracle violation")
	}
	if s.svc.Err() == nil {
		t.Fatal("Err() nil after an oracle violation")
	}
	// The handler still reports the failure even though the port is
	// closed: ask it directly.
	code, _, body := s.status("/healthz", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after violation: status %d, want 503", code)
	}
	if !bytes.HasPrefix(body, []byte("unhealthy: ")) || !bytes.Contains(body, []byte("oracle")) {
		t.Fatalf("/healthz body %q does not name the oracle", body)
	}
}
