package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// startServer builds a server on a loopback listener and runs it until the
// returned stop func is called (which also waits for Serve to return and
// reports its error).
func startServer(t *testing.T, opts Options) (*Server, string, func() error) {
	t.Helper()
	if opts.Service.Speed == 0 {
		opts.Service.Speed = 5000
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
	done := make(chan error, 1)
	go func() { done <- s.ServeListeners(ctx, ln, nil) }()
	stopped := false
	stop := func() error {
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
	return s, "http://" + ln.Addr().String(), stop
}

func postSubmit(t *testing.T, base string, req SubmitRequest) (int, SubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /submit: %v", err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusBadRequest {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode, out
}

// TestServerSubmitCommit drives a commit end to end over HTTP.
func TestServerSubmitCommit(t *testing.T) {
	_, base, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 1)})
	code, out := postSubmit(t, base, SubmitRequest{
		Items:    []int{1, 2, 3},
		Compute:  jsonDuration(time.Millisecond),
		Deadline: jsonDuration(500 * time.Millisecond),
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (%+v)", code, out)
	}
	if out.State != "committed" || out.Missed {
		t.Fatalf("outcome %+v, want committed and met", out)
	}
	if out.ResponseMs <= 0 || out.FinishMs < out.ArrivalMs {
		t.Fatalf("incoherent timings: %+v", out)
	}
}

// TestServerBadRequests checks the 400/405 paths.
func TestServerBadRequests(t *testing.T) {
	_, base, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 2)})

	resp, err := http.Get(base + "/submit")
	if err != nil {
		t.Fatalf("GET /submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit: status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(base+"/submit", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatalf("POST bad json: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	// Valid JSON, invalid transaction (no items).
	code, _ := postSubmit(t, base, SubmitRequest{Compute: jsonDuration(time.Millisecond), Deadline: jsonDuration(time.Second)})
	if code != http.StatusBadRequest {
		t.Fatalf("empty items: status %d, want 400", code)
	}
}

// TestServerDurationCodec checks both accepted deadline encodings.
func TestServerDurationCodec(t *testing.T) {
	var d jsonDuration
	if err := json.Unmarshal([]byte(`"40ms"`), &d); err != nil || time.Duration(d) != 40*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`2.5`), &d); err != nil || time.Duration(d) != 2500*time.Microsecond {
		t.Fatalf("number form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &d); err == nil {
		t.Fatal("garbage duration accepted")
	}
}

// TestServerShedsAtCapacity checks the bounded accept queue: with the one
// slot occupied by a slow transaction, the next submission is shed with a
// fast 503 + Retry-After instead of queueing.
func TestServerShedsAtCapacity(t *testing.T) {
	opts := Options{
		Core:        core.MainMemoryConfig(core.CCA, 3),
		Service:     core.ServiceOptions{Speed: 50}, // slow enough to hold the slot
		MaxInflight: 1,
	}
	_, base, _ := startServer(t, opts)

	slow := make(chan int, 1)
	go func() {
		code, _ := postSubmit(t, base, SubmitRequest{
			Items:    []int{1},
			Compute:  jsonDuration(2 * time.Second), // 40ms wall at speed 50
			Deadline: jsonDuration(time.Hour),
		})
		slow <- code
	}()
	// Wait until the slow submission holds the inflight slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("slow submission never occupied the inflight slot")
		}
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		var m MetricsResponse
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode metrics: %v", err)
		}
		if m.Inflight >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	body, _ := json.Marshal(SubmitRequest{Items: []int{2}, Compute: jsonDuration(time.Millisecond), Deadline: jsonDuration(time.Second)})
	resp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("shed POST: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d body %s, want 503", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed response took %v; shedding must be fast", elapsed)
	}
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("slow submission finished with %d, want 200", code)
	}
}

// TestServerAdmissionRejects checks that an engine-level admission
// rejection surfaces as 503 + Retry-After with state "rejected".
func TestServerAdmissionRejects(t *testing.T) {
	cfg := core.MainMemoryConfig(core.CCA, 4)
	cfg.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
	_, base, _ := startServer(t, Options{Core: cfg})

	items := make([]int, 25)
	for i := range items {
		items[i] = i
	}
	code, out := postSubmit(t, base, SubmitRequest{
		Items:    items,
		Compute:  jsonDuration(time.Millisecond),
		Deadline: jsonDuration(2 * time.Millisecond), // infeasible
	})
	if code != http.StatusServiceUnavailable || out.State != "rejected" {
		t.Fatalf("infeasible submit: status %d state %q, want 503 rejected", code, out.State)
	}
}

// TestServerObservability checks /metrics, /healthz, /debug/vars and
// /debug/pprof respond sensibly.
func TestServerObservability(t *testing.T) {
	_, base, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 5)})
	if code, _ := postSubmit(t, base, SubmitRequest{
		Items: []int{4}, Compute: jsonDuration(time.Millisecond), Deadline: jsonDuration(time.Second),
	}); code != http.StatusOK {
		t.Fatalf("seed submit: %d", code)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	resp.Body.Close()
	if m.Accepted != 1 || m.Engine == nil {
		t.Fatalf("metrics %+v: want accepted=1 with engine counters", m)
	}
	eng, _ := json.Marshal(m.Engine)
	var res struct {
		Committed int `json:"committed"`
	}
	_ = json.Unmarshal(eng, &res)
	if res.Committed != 1 {
		t.Fatalf("engine counters %s: want committed=1", eng)
	}

	for _, path := range []string{"/healthz", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestServerPanicIsolation checks that a handler panic answers 500 on that
// request alone: the engine and subsequent requests are unaffected.
func TestServerPanicIsolation(t *testing.T) {
	s, base, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 6)})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })

	resp, err := http.Get(base + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panic counter %d, want 1", got)
	}
	// The service survived and still commits.
	code, out := postSubmit(t, base, SubmitRequest{
		Items: []int{1}, Compute: jsonDuration(time.Millisecond), Deadline: jsonDuration(time.Second),
	})
	if code != http.StatusOK || out.State != "committed" {
		t.Fatalf("post-panic submit: %d %+v", code, out)
	}
}

// TestServerGracefulShutdown checks the drain sequence: cancelling Serve's
// context wounds the in-flight transaction (its handler answers 503
// dropped), Serve returns nil, and the listener is closed afterwards.
func TestServerGracefulShutdown(t *testing.T) {
	opts := Options{
		Core:         core.MainMemoryConfig(core.CCA, 7),
		Service:      core.ServiceOptions{Speed: 50},
		DrainTimeout: 50 * time.Millisecond,
	}
	_, base, stop := startServer(t, opts)

	inflight := make(chan SubmitResponse, 1)
	codes := make(chan int, 1)
	go func() {
		code, out := postSubmit(t, base, SubmitRequest{
			Items:    []int{1, 2, 3},
			Compute:  jsonDuration(time.Minute), // far longer than the drain budget
			Deadline: jsonDuration(time.Hour),
		})
		codes <- code
		inflight <- out
	}()
	time.Sleep(20 * time.Millisecond) // let the submission reach the engine

	start := time.Now()
	if err := stop(); err != nil {
		t.Fatalf("Serve returned %v, want nil on cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}
	select {
	case code := <-codes:
		out := <-inflight
		if code != http.StatusServiceUnavailable || out.State != "dropped" {
			t.Fatalf("in-flight request answered %d %+v, want 503 dropped", code, out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never answered during drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServerEngineFailureSurfaces checks that a live safety-oracle
// violation stops the service, makes Serve return the failure, and turns
// /healthz into a 503 naming it.
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
			t.Fatal("Serve returned nil after an oracle violation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the oracle violation")
	}
	if s.svc.Err() == nil {
		t.Fatal("Err() nil after an oracle violation")
	}
	// The handler still reports the failure even though the listener is
	// closed: exercise /healthz directly against the mux.
	req, _ := http.NewRequest(http.MethodGet, "/healthz", nil)
	rec := newRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.status != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after violation: status %d, want 503", rec.status)
	}
	if !bytes.Contains(rec.body.Bytes(), []byte("oracle")) {
		t.Fatalf("/healthz body %q does not name the oracle", rec.body.String())
	}
}

// recorder is a minimal ResponseWriter for post-shutdown handler checks.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder             { return &recorder{h: make(http.Header), status: 200} }
func (r *recorder) Header() http.Header  { return r.h }
func (r *recorder) WriteHeader(code int) { r.status = code }
func (r *recorder) Write(b []byte) (int, error) {
	return r.body.Write(b)
}
