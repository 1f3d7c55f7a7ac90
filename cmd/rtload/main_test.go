package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// startServer brings up an in-process server with opts on a loopback
// wire listener and returns its address.
func startServer(t *testing.T, opts server.Options) string {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeListeners(ctx, nil, wireLn) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return wireLn.Addr().String()
}

// defaultOpts is the server most tests drive.
var defaultOpts = server.Options{
	Core:    core.MainMemoryConfig(core.CCA, 17),
	Service: core.ServiceOptions{Speed: 5000},
}

func runLoad(t *testing.T, args ...string) (Report, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("rtload exited %d: %s", code, errb.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	return rep, errb.String()
}

func TestClosedLoop(t *testing.T) {
	wireAddr := startServer(t, defaultOpts)
	rep, _ := runLoad(t,
		"-target", wireAddr,
		"-mode", "closed", "-workers", "4", "-duration", "400ms",
		"-compute", "50us", "-deadline", "2s", "-report", "json")
	if rep.Mode != "closed" {
		t.Fatalf("report header %+v", rep)
	}
	if rep.Sent == 0 || rep.Committed == 0 {
		t.Fatalf("nothing committed: %+v", rep)
	}
	if rep.Errors > 0 {
		t.Fatalf("client errors: %+v", rep)
	}
	if rep.P99Ms <= 0 || rep.MaxMs < rep.P50Ms {
		t.Fatalf("latency histogram incoherent: %+v", rep)
	}
}

func TestOpenLoopTracksRate(t *testing.T) {
	wireAddr := startServer(t, defaultOpts)
	rep, _ := runLoad(t,
		"-target", wireAddr,
		"-mode", "open", "-rate", "300", "-duration", "600ms",
		"-compute", "50us", "-deadline", "2s", "-report", "json")
	if rep.TargetRate != 300 {
		t.Fatalf("target rate not reported: %+v", rep)
	}
	if rep.Sent == 0 || rep.Committed == 0 {
		t.Fatalf("nothing committed: %+v", rep)
	}
	// Poisson at 300/s for 0.6s: expect on the order of 180 arrivals;
	// anything within a loose 3x band proves the pacer is pacing rather
	// than free-running or stalling.
	if rep.Sent < 60 || rep.Sent > 540 {
		t.Fatalf("open loop sent %d requests at rate 300 over 600ms, outside [60,540]", rep.Sent)
	}
}

func TestTextReport(t *testing.T) {
	wireAddr := startServer(t, defaultOpts)
	var out, errb bytes.Buffer
	code := run([]string{
		"-target", wireAddr,
		"-mode", "closed", "-workers", "2", "-duration", "200ms",
		"-compute", "50us", "-deadline", "2s"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"rtload: closed", "sent ", "committed", "latency ms: p50"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text report missing %q:\n%s", want, text)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "wire"}, // one protocol: the flag is gone
		{"-mode", "sideways"},
		{"-items", "0"},
		{"-items", "50", "-dbsize", "30"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestConnectFailure(t *testing.T) {
	// A port nothing listens on: the eager probe fails at dial time, and
	// rtload exits nonzero without hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	var out, errb bytes.Buffer
	if code := run([]string{"-target", dead, "-duration", "100ms"}, &out, &errb); code != 1 {
		t.Fatalf("dial to dead port: exit %d, want 1", code)
	}
}

// TestOverloadIsShedNotQueued: drive an open loop well past a tiny
// server's capacity and check the surplus comes back as shed (the fast
// StatusShed path), not as errors or unbounded latency.
func TestOverloadIsShedNotQueued(t *testing.T) {
	wireAddr := startServer(t, server.Options{
		Core:        core.MainMemoryConfig(core.CCA, 23),
		Service:     core.ServiceOptions{Speed: 50},
		MaxInflight: 4,
	})
	rep, _ := runLoad(t,
		"-target", wireAddr, "-conns", "2",
		"-mode", "open", "-rate", "2000", "-duration", "500ms",
		"-compute", "20ms", "-deadline", "100ms", "-report", "json")
	if rep.Sent < 100 {
		t.Fatalf("open loop barely ran: %+v", rep)
	}
	answered := rep.Committed + rep.Missed + rep.Rejected + rep.Shed + rep.Dropped
	if answered == 0 {
		t.Fatalf("no answers at all: %+v", rep)
	}
	if rep.Errors > rep.Sent/10 {
		t.Fatalf("overload produced errors, not shedding: %+v", rep)
	}
	t.Logf("overload report: %s", fmt.Sprintf("%+v", rep))
}

// stubServer listens on a loopback port and answers every frame it reads
// with answer(n), n counting frames from 1, until the test ends.
func stubServer(t *testing.T, answer func(n int64) wire.SubmitResp) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var hits atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close() // after the client closes its end
				fr := wire.NewFrameReader(nc, 0)
				var out []byte
				for {
					h, _, err := fr.Next()
					if err != nil {
						return
					}
					resp := answer(hits.Add(1))
					out = wire.AppendSubmitResp(out[:0], h.ID, &resp)
					if _, err := nc.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRetryHonorsOverloadSignal: a stub that sheds the first attempt with
// a retry hint must see the loader come back — the request is resubmitted
// after backoff and counted as retried, not abandoned. A stub that always
// sheds exhausts the budget and the request lands in abandoned.
func TestRetryHonorsOverloadSignal(t *testing.T) {
	shedFirst := stubServer(t, func(n int64) wire.SubmitResp {
		if n == 1 {
			return wire.SubmitResp{Status: wire.StatusShed}
		}
		return wire.SubmitResp{Status: wire.StatusCommitted}
	})
	rep, _ := runLoad(t,
		"-target", shedFirst,
		"-mode", "closed", "-workers", "1", "-duration", "200ms",
		"-retries", "2", "-retry-max", "50ms", "-report", "json")
	if rep.Retried == 0 {
		t.Fatalf("shed answer was not retried: %+v", rep)
	}
	if rep.Abandoned != 0 {
		t.Fatalf("recovered request counted abandoned: %+v", rep)
	}
	if rep.Committed == 0 {
		t.Fatalf("no commits after retry: %+v", rep)
	}

	alwaysShed := stubServer(t, func(int64) wire.SubmitResp { return wire.SubmitResp{Status: wire.StatusShed} })
	rep, _ = runLoad(t,
		"-target", alwaysShed,
		"-mode", "closed", "-workers", "1", "-duration", "150ms",
		"-retries", "1", "-retry-max", "20ms", "-report", "json")
	if rep.Abandoned == 0 || rep.Shed == 0 {
		t.Fatalf("persistent overload not abandoned: %+v", rep)
	}
	if rep.Retried < rep.Abandoned {
		t.Fatalf("each abandoned request should have burned its retry budget: %+v", rep)
	}
}

// TestJournalRecordsAcks drives a WAL-enabled server with -journal set
// and checks the client-side half of crash reconciliation: one JSONL
// line per attempt, every committed ack carrying a distinct server WAL
// sequence, and the abandoned split present (and zero) on a healthy run.
func TestJournalRecordsAcks(t *testing.T) {
	wireAddr := startServer(t, server.Options{
		Core:    core.MainMemoryConfig(core.CCA, 17),
		Service: core.ServiceOptions{Speed: 5000},
		WALFS:   wal.NewMemFS(),
	})
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	rep, _ := runLoad(t,
		"-target", wireAddr,
		"-mode", "closed", "-workers", "4", "-duration", "300ms",
		"-compute", "50us", "-deadline", "2s",
		"-report", "json", "-journal", path)
	if rep.Committed == 0 {
		t.Fatalf("nothing committed: %+v", rep)
	}
	if rep.AbandonedUnsent != 0 || rep.AbandonedAmbiguous != 0 {
		t.Fatalf("abandoned on a healthy run: %+v", rep)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Seq     uint64 `json:"seq"`
		Outcome string `json:"outcome"`
	}
	var lines int64
	var committed int64
	seen := make(map[uint64]bool)
	for _, raw := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var e entry
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("bad journal line %q: %v", raw, err)
		}
		lines++
		switch e.Outcome {
		case "committed", "missed":
			committed++
			if e.Seq == 0 {
				t.Fatalf("committed ack without a WAL seq: %q", raw)
			}
			if seen[e.Seq] {
				t.Fatalf("WAL seq %d acked twice", e.Seq)
			}
			seen[e.Seq] = true
		}
	}
	// One line per attempt: requests plus the extra retry attempts.
	if want := rep.Sent + rep.Retried; lines != want {
		t.Fatalf("%d journal lines, want sent+retried = %d (%+v)", lines, want, rep)
	}
	if committed != rep.Committed {
		t.Fatalf("%d committed journal lines, report says %d", committed, rep.Committed)
	}
}
