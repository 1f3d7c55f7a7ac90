package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/wire"
)

// startDualServer runs a server with both the HTTP and the wire
// listener on loopback ports.
func startDualServer(t *testing.T, opts Options) (*Server, string, string, func() error) {
	t.Helper()
	if opts.Service.Speed == 0 {
		opts.Service.Speed = 5000
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeListeners(ctx, httpLn, wireLn) }()
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
	return s, "http://" + httpLn.Addr().String(), wireLn.Addr().String(), stop
}

// TestWireFrontEnd drives the binary protocol against the real engine:
// commits, metrics and health parity with HTTP, and drain semantics.
func TestWireFrontEnd(t *testing.T) {
	s, base, wireAddr, stop := startDualServer(t, Options{
		Core: core.MainMemoryConfig(core.CCA, 21),
	})

	c, err := wire.Dial(wireAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A commit over the wire.
	resp, err := c.Submit(&wire.SubmitReq{
		Items:   itemSeq(1, 2, 3),
		Compute: 500 * time.Microsecond, Deadline: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusCommitted || resp.Missed {
		t.Fatalf("wire submit: %+v, want on-time commit", resp)
	}
	if resp.Response <= 0 || resp.Finish < resp.Arrival {
		t.Fatalf("incoherent timings: %+v", resp)
	}

	// An invalid submission is rejected at the codec with a reason.
	resp, err = c.Submit(&wire.SubmitReq{Items: itemSeq(1), Compute: -1, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusInvalid || !strings.Contains(resp.Err, "compute") {
		t.Fatalf("invalid submit: %+v", resp)
	}

	// Engine-level validation failures surface as StatusInvalid too.
	resp, err = c.Submit(&wire.SubmitReq{Items: itemSeq(10_000), Compute: 1, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusInvalid || !strings.Contains(resp.Err, "outside database") {
		t.Fatalf("out-of-range submit: %+v", resp)
	}

	// Health parity.
	hr, err := c.Health()
	if err != nil || !hr.Healthy || hr.Draining {
		t.Fatalf("health: %+v err %v", hr, err)
	}

	// Metrics parity: the wire metrics frame carries the same JSON
	// document the HTTP endpoint serves.
	body, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var viaWire metricsResponse
	if err := json.Unmarshal(body, &viaWire); err != nil {
		t.Fatalf("wire metrics not metricsResponse JSON: %v\n%s", err, body)
	}
	hres, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var viaHTTP metricsResponse
	if err := json.NewDecoder(hres.Body).Decode(&viaHTTP); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if viaWire.Accepted < 1 || viaHTTP.Accepted < viaWire.Accepted-1 {
		t.Fatalf("metrics disagree: wire %+v http %+v", viaWire, viaHTTP)
	}

	// Drain: stopping the server sheds wire submissions with a
	// Retry-After hint, mirroring HTTP's 503 contract.
	drained := make(chan struct{})
	go func() { defer close(drained); _ = stop() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = c.Submit(&wire.SubmitReq{
			Items: itemSeq(4), Compute: time.Millisecond, Deadline: time.Second,
		})
		if err != nil {
			break // connection closed by the completed shutdown: also fine
		}
		if resp.Status == wire.StatusShed {
			if resp.RetryAfter < 1 {
				t.Fatalf("shed without Retry-After: %+v", resp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never shed a wire submission")
		}
		time.Sleep(time.Millisecond)
	}
	<-drained
	_ = s
}

// TestWireBatchedThroughput pushes concurrent pipelined submissions
// from several connections through the shard inboxes and checks they all
// commit and show up in http_accepted.
func TestWireBatchedThroughput(t *testing.T) {
	s, _, wireAddr, _ := startDualServer(t, Options{
		Core:        core.MainMemoryConfig(core.CCA, 22),
		MaxInflight: 1024,
	})

	const conns = 4
	const perConn = 100
	var wg sync.WaitGroup
	errs := make(chan error, conns*perConn)
	for ci := 0; ci < conns; ci++ {
		c, err := wire.Dial(wireAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(c *wire.Client, g int) {
				defer wg.Done()
				for i := 0; i < perConn/4; i++ {
					a := (g*7 + i) % 30
					b := (g*11 + i + 1) % 30
					if a == b {
						b = (b + 1) % 30
					}
					resp, err := c.Submit(&wire.SubmitReq{
						Items:   itemSeq(a, b),
						Compute: 50 * time.Microsecond, Deadline: 30 * time.Second,
					})
					if err != nil {
						errs <- err
						return
					}
					if resp.Status != wire.StatusCommitted {
						errs <- &net.AddrError{Err: "not committed: " + resp.Err, Addr: ""}
						return
					}
				}
			}(c, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.metricsResponse().Accepted; got != conns*perConn {
		t.Fatalf("accepted %d, want %d", got, conns*perConn)
	}
}

func itemSeq(items ...int) []txn.Item {
	out := make([]txn.Item, len(items))
	for i, it := range items {
		out[i] = txn.Item(it)
	}
	return out
}
