package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// answerSeen is what a client was told, reduced to what both protocols can
// say: the status, the HTTP code it travels under (0 on the wire) and
// whether a retry hint came with it.
type answerSeen struct {
	status uint8
	code   int
	retry  bool
}

// parityClient drives one protocol of a dual server.
type parityClient interface {
	// submit sends one request and blocks for its answer.
	submit(t *testing.T, req core.ServiceRequest) answerSeen
	// park submits a request that will not finish on its own, from a
	// connection of its own, and returns the func that disconnects that
	// client mid-flight.
	park(t *testing.T, req core.ServiceRequest) (disconnect func())
	// finish checks what only this protocol can (unmatched frames).
	finish(t *testing.T)
}

type httpParity struct{ base string }

func (h httpParity) body(req core.ServiceRequest) *bytes.Reader {
	items := make([]int, len(req.Items))
	for i, it := range req.Items {
		items[i] = int(it)
	}
	b, _ := json.Marshal(submitRequest{Items: items, Compute: jsonDuration(req.Compute), Deadline: jsonDuration(req.Deadline)})
	return bytes.NewReader(b)
}

func (h httpParity) submit(t *testing.T, req core.ServiceRequest) answerSeen {
	t.Helper()
	resp, err := http.Post(h.base+"/submit", "application/json", h.body(req))
	if err != nil {
		t.Fatalf("POST /submit: %v", err)
	}
	defer resp.Body.Close()
	seen := answerSeen{code: resp.StatusCode, retry: resp.Header.Get("Retry-After") != ""}
	switch resp.StatusCode {
	case http.StatusBadRequest:
		seen.status = wire.StatusInvalid
	case http.StatusInternalServerError:
		seen.status = wire.StatusFailed
	default:
		var out submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode %d response: %v", resp.StatusCode, err)
		}
		var ok bool
		seen.status, ok = map[string]uint8{
			"committed": wire.StatusCommitted, "dropped": wire.StatusDropped,
			"rejected": wire.StatusRejected, "shed": wire.StatusShed,
		}[out.State]
		if !ok {
			t.Fatalf("unknown state %q", out.State)
		}
	}
	return seen
}

func (h httpParity) park(t *testing.T, req core.ServiceRequest) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/submit", h.body(req))
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := tr.RoundTrip(hr); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	return func() { cancel(); <-done; tr.CloseIdleConnections() }
}

func (h httpParity) finish(*testing.T) {}

type wireParity struct {
	addr  string
	probe *wire.Client
}

func wireReq(req core.ServiceRequest) *wire.SubmitReq {
	return &wire.SubmitReq{Items: req.Items, Compute: req.Compute, Deadline: req.Deadline}
}

func (w wireParity) submit(t *testing.T, req core.ServiceRequest) answerSeen {
	t.Helper()
	resp, err := w.probe.Submit(wireReq(req))
	if err != nil {
		t.Fatalf("wire submit: %v", err)
	}
	return answerSeen{status: resp.Status, retry: resp.RetryAfter > 0}
}

func (w wireParity) park(t *testing.T, req core.ServiceRequest) func() {
	t.Helper()
	c, err := wire.Dial(w.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); c.Submit(wireReq(req)) }()
	return func() { c.Close(); <-done }
}

func (w wireParity) finish(t *testing.T) {
	t.Helper()
	if n := w.probe.Unmatched(); n != 0 {
		t.Errorf("wire client read %d frames nobody was waiting for", n)
	}
	w.probe.Close()
}

// requestCounters is the protocol-independent part of /metrics.
type requestCounters struct{ Accepted, Rejected, Shed, BadReqs, Failed int64 }

func countersOf(s *Server) requestCounters {
	m := s.metricsResponse()
	return requestCounters{m.Accepted, m.Rejected, m.Shed, m.BadReqs, m.Failed}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func liveIs(s *Server, n int) func() bool {
	return func() bool { st, ok := s.svc.Stats(); return ok && st.Live == n }
}

// TestCounterParity drives the same script over /submit and over the wire
// listener and requires the same answers and the same request-counter
// deltas from both: every answer that comes back through batcher.done is
// tallied in one place, whichever front-end is waiting for it. The script
// covers each status a client can be given short of an engine failure —
// commit, admission reject, validation refusal, a client that disconnects
// mid-flight (dropped; no HTTP counter saw this before the fold), a submit
// during drain (shed; the wire front-end used to refuse this itself, outside
// the server's counters) — and TestFailedParity covers that one.
func TestCounterParity(t *testing.T) {
	small := core.ServiceRequest{Items: itemSeq(1, 2), Compute: time.Millisecond, Deadline: 10 * time.Second}
	long := core.ServiceRequest{Items: itemSeq(3, 4), Compute: time.Minute, Deadline: time.Hour}
	outOfRange := core.ServiceRequest{Items: itemSeq(10_000), Compute: time.Millisecond, Deadline: time.Second}
	repeated := core.ServiceRequest{Items: itemSeq(3, 3), Compute: time.Millisecond, Deadline: time.Second}

	run := func(t *testing.T, dial func(base, wireAddr string) parityClient) requestCounters {
		cfg := core.MainMemoryConfig(core.CCA, 33)
		// One live transaction at a time: a parked one makes the next
		// arrival an admission reject.
		cfg.Admission = core.AdmissionConfig{Mode: core.RejectNewest, MaxLive: 1}
		s, base, wireAddr, stop := startDualServer(t, Options{
			Core:         cfg,
			Service:      core.ServiceOptions{Speed: 50},
			DrainTimeout: 20 * time.Second,
		})
		c := dial(base, wireAddr)
		expect := func(step string, got answerSeen, status uint8, code int, retry bool) {
			t.Helper()
			if got.code == 0 {
				code = 0 // the wire carries no HTTP code
			}
			if want := (answerSeen{status, code, retry}); got != want {
				t.Errorf("%s: answered %+v, want %+v", step, got, want)
			}
		}

		expect("commit", c.submit(t, small), wire.StatusCommitted, 200, false)

		disconnect := c.park(t, long)
		waitUntil(t, "parked transaction live", liveIs(s, 1))
		expect("admission reject", c.submit(t, small), wire.StatusRejected, 503, true)
		expect("out of range", c.submit(t, outOfRange), wire.StatusInvalid, 400, false)
		expect("item named twice", c.submit(t, repeated), wire.StatusInvalid, 400, false)

		disconnect()
		waitUntil(t, "disconnected client's transaction wounded and tallied", func() bool {
			return liveIs(s, 0)() && countersOf(s).Accepted == 3
		})

		disconnect = c.park(t, long)
		waitUntil(t, "second parked transaction live", liveIs(s, 1))
		stopped := make(chan error, 1)
		go func() { stopped <- stop() }()
		waitUntil(t, "drain begun", s.svc.Draining)
		expect("submit during drain", c.submit(t, small), wire.StatusShed, 503, true)
		disconnect() // lets the drain finish without waiting out its budget
		if err := <-stopped; err != nil {
			t.Fatalf("drain: %v", err)
		}
		c.finish(t)
		return countersOf(s)
	}

	want := requestCounters{Accepted: 4, Rejected: 1, Shed: 1, BadReqs: 2}
	got := map[string]requestCounters{}
	t.Run("http", func(t *testing.T) {
		got["http"] = run(t, func(base, _ string) parityClient { return httpParity{base} })
	})
	t.Run("wire", func(t *testing.T) {
		got["wire"] = run(t, func(_, wireAddr string) parityClient {
			probe, err := wire.Dial(wireAddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return wireParity{wireAddr, probe}
		})
	})
	for proto, c := range got {
		if c != want {
			t.Errorf("%s: request counters %+v, want %+v", proto, c, want)
		}
	}
}

// TestFailedParity: a shard driver that panics with a submission in flight
// answers it Failed on both protocols — 500 over HTTP, StatusFailed on the
// wire, no retry hint on either — and counts it once in http_failed.
func TestFailedParity(t *testing.T) {
	long := core.ServiceRequest{Items: itemSeq(3, 4), Compute: time.Minute, Deadline: time.Hour}
	s, base, wireAddr, _ := startDualServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 34),
		Service:   core.ServiceOptions{Speed: 50},
		Supervise: shard.SuperviseOptions{Enabled: true, Restart: true},
	})
	probe, err := wire.Dial(wireAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clients := []struct {
		name string
		c    parityClient
		code int
	}{
		{"http", httpParity{base}, 500},
		{"wire", wireParity{wireAddr, probe}, 0},
	}
	for i, pc := range clients {
		seen := make(chan answerSeen, 1)
		go func() { seen <- pc.c.submit(t, long) }()
		waitUntil(t, "submission live", liveIs(s, 1))
		if err := s.svc.InjectShardPanic(0, "parity"); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-seen:
			if want := (answerSeen{wire.StatusFailed, pc.code, false}); got != want {
				t.Errorf("%s: answered %+v, want %+v", pc.name, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: in-flight submission never answered after the panic", pc.name)
		}
		if got, want := countersOf(s), (requestCounters{Failed: int64(i + 1)}); got != want {
			t.Errorf("after %s: request counters %+v, want %+v", pc.name, got, want)
		}
		// The restarted shard takes the next protocol's submission.
		waitUntil(t, "shard restarted", func() bool { return s.svc.SupervisionStats().Restarts == i+1 })
	}
	clients[1].c.finish(t)
}
