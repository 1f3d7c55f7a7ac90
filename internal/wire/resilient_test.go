package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
)

// blackholeBackend accepts submissions and never completes them — the
// server-side stand-in for an engine that has wedged.
type blackholeBackend struct{ stubBackend }

func newBlackholeBackend() *blackholeBackend {
	b := &blackholeBackend{}
	b.accept = func(id uint64, req core.ServiceRequest, c Completer) bool { return true }
	return b
}

// TestRequestTimeoutNoHang: a server that admits but never answers must
// surface errRequestTimeout at the client's deadline instead of hanging
// forever (the pre-hardening behavior).
func TestRequestTimeoutNoHang(t *testing.T) {
	_, addr := startWire(t, newBlackholeBackend(), ServerOptions{})
	c, err := DialOptions(addr, time.Second, ClientOptions{RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Submit(&SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: time.Second})
	if !errors.Is(err, errRequestTimeout) {
		t.Fatalf("err = %v, want errRequestTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// A timed-out request was sent: it is ambiguous, never ErrNotSent.
	if errors.Is(err, ErrNotSent) {
		t.Fatal("timeout classified as not-sent (would invite unsafe resubmission)")
	}
}

// TestSubmitCtxCancel: a per-request context beats the default timeout, and
// the answer that does arrive for the abandoned request is counted as
// unmatched, not silently dropped.
func TestSubmitCtxCancel(t *testing.T) {
	b := &stubBackend{}
	late := make(chan func(), 1)
	b.accept = func(id uint64, _ core.ServiceRequest, c Completer) bool {
		late <- func() { c.Complete(id, core.ServiceOutcome{State: core.StateCommitted}, nil) }
		return true
	}
	_, addr := startWire(t, b, ServerOptions{})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.submitCtx(ctx, &SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: time.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := c.Unmatched(); n != 0 {
		t.Fatalf("%d unmatched frames before the server answered anything", n)
	}
	(<-late)()
	waitFor(t, func() bool { return c.Unmatched() == 1 })
}

// TestClientFailsPendingOnConnDeath: killing the connection under a
// pending request answers it with an error instead of leaving the
// waiter stuck.
func TestClientFailsPendingOnConnDeath(t *testing.T) {
	srv, addr := startWire(t, newBlackholeBackend(), ServerOptions{})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(&SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: time.Second})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the server
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending request succeeded after connection death")
		}
		if errors.Is(err, ErrNotSent) {
			t.Fatalf("sent-but-unanswered classified not-sent: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending request hung after connection death")
	}
}

// TestResilientReconnects: the resilient client survives its server
// connection dying between requests — the next submit redials.
func TestResilientReconnects(t *testing.T) {
	b := &stubBackend{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewServer(b, ServerOptions{})
	s1done := make(chan error, 1)
	go func() { s1done <- s1.Serve(ln) }()

	r := NewResilient(ln.Addr().String(), ResilientOptions{
		DialTimeout: time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	defer r.Close()

	req := &SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: time.Second}
	if _, err := r.Submit(req); err != nil {
		t.Fatalf("first submit: %v", err)
	}

	// Kill every server-side connection; the listener stays up, so a
	// redial succeeds. The client's next write fails before buffering
	// (ErrNotSent) or its register fails — both safe-retry paths.
	s1.Close()
	<-s1done
	s2 := NewServer(b, ServerOptions{})
	s2done := make(chan error, 1)
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Skipf("could not rebind %s: %v", ln.Addr(), err)
	}
	go func() { s2done <- s2.Serve(ln2) }()
	defer func() {
		s2.Close()
		<-s2done
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = r.Submit(req); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if r.redials.Load() == 0 {
		t.Fatal("no redial counted after connection death")
	}
}

// TestResilientNeverRetriesAmbiguous: a request the server may have
// admitted (accepted then timed out) must not be resubmitted — blind
// retry could double-execute a transaction.
func TestResilientNeverRetriesAmbiguous(t *testing.T) {
	var enqueued atomic.Int64
	b := &blackholeBackend{}
	b.accept = func(id uint64, req core.ServiceRequest, c Completer) bool {
		enqueued.Add(1)
		return true
	}
	_, addr := startWire(t, b, ServerOptions{})

	r := NewResilient(addr, ResilientOptions{
		DialTimeout: time.Second,
		Client:      ClientOptions{RequestTimeout: 100 * time.Millisecond},
		BackoffBase: time.Millisecond,
	})
	defer r.Close()

	_, err := r.Submit(&SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: time.Second})
	if !errors.Is(err, errRequestTimeout) {
		t.Fatalf("err = %v, want errRequestTimeout", err)
	}
	if n := enqueued.Load(); n != 1 {
		t.Fatalf("server saw %d submissions, want exactly 1 (no ambiguous retry)", n)
	}
	if n := r.resubmits.Load(); n != 0 {
		t.Fatalf("resubmits = %d, want 0", n)
	}
}

// TestServerIdleTimeout: a connection holding a half-sent frame past the
// idle window is closed and counted — the slow-loris guard.
func TestServerIdleTimeout(t *testing.T) {
	s, addr := startWire(t, &stubBackend{}, ServerOptions{IdleTimeout: 100 * time.Millisecond})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Half a frame: a plausible length prefix, then silence.
	if _, err := nc.Write([]byte{0x40, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection survived the idle window with data pending")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().IdleClosed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle close not counted: %+v", s.Counters())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerIdleTimeoutSparesActive: steady traffic with gaps shorter
// than the idle window is never cut — the deadline rolls per frame.
func TestServerIdleTimeoutSparesActive(t *testing.T) {
	s, addr := startWire(t, &stubBackend{}, ServerOptions{IdleTimeout: 300 * time.Millisecond})
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := &SubmitReq{Items: []txn.Item{1}, Compute: 1, Deadline: time.Second}
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		time.Sleep(150 * time.Millisecond) // below the window, above half of it
	}
	if n := s.Counters().IdleClosed; n != 0 {
		t.Fatalf("active connection idle-closed %d times", n)
	}
}

// deadlineCountingListener hands the server connections that count their
// socket reads and writes and how often each deadline was armed.
type deadlineCountingListener struct {
	net.Listener
	reads, readArms, writes, writeArms atomic.Int64
}

type deadlineCountingConn struct {
	net.Conn
	l *deadlineCountingListener
}

func (l *deadlineCountingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &deadlineCountingConn{nc, l}, nil
}

func (c *deadlineCountingConn) Read(p []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *deadlineCountingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *deadlineCountingConn) SetReadDeadline(t time.Time) error {
	c.l.readArms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineCountingConn) SetWriteDeadline(t time.Time) error {
	c.l.writeArms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// TestServerArmsDeadlinesPerSocketOp: a pipelined burst that reaches the
// server in a few segments costs a deadline per socket read and per socket
// write, not two per frame — the idle budget is for frames the server has
// to wait for, the flush budget for writes that reach the socket.
func TestServerArmsDeadlinesPerSocketOp(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &deadlineCountingListener{Listener: inner}
	_, addr := serveWire(t, ln, &stubBackend{}, ServerOptions{IdleTimeout: time.Minute})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	const frames = 1000
	var burst []byte
	for id := uint64(1); id <= frames; id++ {
		burst = AppendHealthReq(burst, id)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := NewFrameReader(nc, 0)
	for i := 0; i < frames; i++ {
		if h, _, err := fr.Next(); err != nil || h.Type != FrameHealthResp {
			t.Fatalf("answer %d: %+v, %v", i, h, err)
		}
	}
	// The reader is now parked in a socket read for frame 1001, armed once.
	reads, readArms := ln.reads.Load(), ln.readArms.Load()
	writes, writeArms := ln.writes.Load(), ln.writeArms.Load()
	t.Logf("%d frames: %d socket reads, %d read deadlines; %d socket writes, %d write deadlines",
		frames, reads, readArms, writes, writeArms)
	if readArms > reads+1 {
		t.Errorf("%d read deadlines armed for %d socket reads", readArms, reads)
	}
	if writeArms != writes {
		t.Errorf("%d write deadlines armed for %d socket writes", writeArms, writes)
	}
	if reads > frames/4 {
		t.Fatalf("burst took %d socket reads for %d frames: it was not pipelined, the bound above proves nothing", reads, frames)
	}
}
