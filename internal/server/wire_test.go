package server

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/wire"
)

// TestWireFrontEnd drives the binary protocol against the real engine:
// commits, metrics and health parity with the status port, and drain
// semantics.
func TestWireFrontEnd(t *testing.T) {
	s, base, wireAddr, stop := startServer(t, Options{
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
	// document the status port serves.
	body, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var viaWire, viaPort metricsResponse
	if err := json.Unmarshal(body, &viaWire); err != nil {
		t.Fatalf("wire metrics not metricsResponse JSON: %v\n%s", err, body)
	}
	if err := json.Unmarshal([]byte(getBody(t, base+"/metrics")), &viaPort); err != nil {
		t.Fatal(err)
	}
	if viaWire.Answers != viaPort.Answers || viaWire.Answers.Committed != 1 || viaWire.Answers.Invalid != 1 {
		t.Fatalf("metrics disagree: wire %+v status port %+v", viaWire.Answers, viaPort.Answers)
	}

	// Drain: stopping the server sheds wire submissions with a
	// Retry-After hint.
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
// commit and show up in the committed answer count.
func TestWireBatchedThroughput(t *testing.T) {
	s, _, wireAddr, _ := startServer(t, Options{
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
	if got := s.metricsResponse().Answers.Committed; got != conns*perConn {
		t.Fatalf("committed %d, want %d", got, conns*perConn)
	}
}

func itemSeq(items ...int) []txn.Item {
	out := make([]txn.Item, len(items))
	for i, it := range items {
		out[i] = txn.Item(it)
	}
	return out
}
