package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Backend is what the wire server needs from the serving stack. The
// HTTP server implements it with the entry its own handler uses, so both
// front-ends shed, drain and report through exactly the same admission
// machinery. This front-end decides nothing about an answer: it refuses
// only what it cannot queue (a full pipeline, a false Enqueue) and renders
// whatever status its answer target hands it — drain refusals included.
type Backend interface {
	// Answers builds a connection's answer target, once, as the connection
	// opens. Its OnHandle is r's; its Complete classifies each answer, counts
	// it, and hands it with its status to r.Render.
	Answers(r Renderer) Completer
	// Enqueue hands one submission to the serving path. It must not
	// block; false means the request was shed (its shard's inbox is full)
	// and nothing will be called back. On true, c.OnHandle(id, ...) fires
	// exactly once with a cancel handle, and then c.Complete(id, ...)
	// exactly once with the terminal outcome or error. c is the target
	// Answers built for the connection. The request's lists are borrowed for
	// the call: the connection decodes the next frame into them.
	Enqueue(id uint64, req core.ServiceRequest, c Completer) bool
	// RetryAfterSecs is the admission-derived backoff hint attached to
	// shed and rejected responses. It may block briefly (it is only
	// called from connection reader/writer goroutines, never from the
	// engine driver).
	RetryAfterSecs() int
	// Draining reports whether the service has begun its shutdown drain
	// (health frames; submissions during drain are refused by the serving
	// path itself and come back through Complete).
	Draining() bool
	// HealthErr reports nil when the service is live.
	HealthErr() error
	// MetricsBody renders the same JSON document HTTP /metrics serves.
	MetricsBody() ([]byte, error)
}

// Completer receives the answer of an enqueued submission: it is the
// submission's core.AnswerSink and core.HandleSink. Both methods may be
// invoked on the engine's driver goroutine and must not block. OnHandle
// comes first: the driver hands the handle over as it injects the
// submission, before the engine can answer it (a submission answered
// without reaching the engine gets the no-op handle). It may find its
// client already gone and must then cancel the handle itself (conn checks
// its dead flag; core.Waiter is a core.LateCancel).
type Completer interface {
	core.AnswerSink
	core.HandleSink
}

// Renderer is a connection as its answer target sees it: it takes the
// handles and writes answers the target has already classified — Classify's
// status for the (outcome, error) pair.
type Renderer interface {
	core.HandleSink
	Render(id uint64, status uint8, o core.ServiceOutcome, err error)
}

// ServerOptions tune the wire front-end; zero values pick defaults.
type ServerOptions struct {
	// MaxInflightPerConn caps pipelined submissions per connection;
	// excess submits are shed with a Retry-After. Default 1024.
	MaxInflightPerConn int
	// maxFrame bounds one frame. Default defaultMaxFrame.
	maxFrame int
	// flushTimeout bounds each socket write/flush. Default 10s.
	flushTimeout time.Duration
	// IdleTimeout is the rolling per-frame read deadline: a connection
	// that fails to deliver one complete frame within it is closed and
	// counted (slow-loris / half-open guard). The deadline re-arms
	// whenever the server starts waiting on the socket for a frame, so
	// a healthy pipelined connection is never cut no matter how long it
	// lives. Default 2m; negative disables.
	IdleTimeout time.Duration
}

// Counters is a point-in-time view of the wire front-end's traffic.
type Counters struct {
	Conns      int   `json:"conns"`       // currently open connections
	Submits    int64 `json:"submits"`     // submissions handed to the backend
	Shed       int64 `json:"shed"`        // submissions refused before reaching the engine
	BadFrames  int64 `json:"bad_frames"`  // submit frames that failed to decode
	IdleClosed int64 `json:"idle_closed"` // connections cut by the idle read deadline
	Panics     int64 `json:"panics"`      // connection goroutines recovered from a panic
}

// Server serves the wire protocol over persistent pipelined TCP
// connections. Each connection gets a reader goroutine (decode, shed or
// enqueue) and a writer goroutine (encode responses, flushing only when
// its queue momentarily drains — the batching that makes pipelining
// pay). Responses stream back in completion order, not arrival order.
type Server struct {
	b           Backend
	maxInflight int
	maxFrame    int
	flushEvery  time.Duration
	idleEvery   time.Duration // 0 = no idle deadline

	submits    atomic.Int64
	shed       atomic.Int64
	badFrames  atomic.Int64
	idleClosed atomic.Int64
	panics     atomic.Int64

	mu     sync.Mutex
	conns  map[*conn]struct{}
	lns    map[net.Listener]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a wire server over b.
func NewServer(b Backend, opt ServerOptions) *Server {
	if opt.MaxInflightPerConn <= 0 {
		opt.MaxInflightPerConn = 1024
	}
	if opt.maxFrame <= 0 {
		opt.maxFrame = defaultMaxFrame
	}
	if opt.flushTimeout <= 0 {
		opt.flushTimeout = 10 * time.Second
	}
	switch {
	case opt.IdleTimeout == 0:
		opt.IdleTimeout = 2 * time.Minute
	case opt.IdleTimeout < 0:
		opt.IdleTimeout = 0
	}
	return &Server{
		b:           b,
		maxInflight: opt.MaxInflightPerConn,
		maxFrame:    opt.maxFrame,
		flushEvery:  opt.flushTimeout,
		idleEvery:   opt.IdleTimeout,
		conns:       make(map[*conn]struct{}),
		lns:         make(map[net.Listener]struct{}),
	}
}

// Counters snapshots the traffic counters.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	return Counters{
		Conns:      n,
		Submits:    s.submits.Load(),
		Shed:       s.shed.Load(),
		BadFrames:  s.badFrames.Load(),
		IdleClosed: s.idleClosed.Load(),
		Panics:     s.panics.Load(),
	}
}

// Serve accepts connections on ln until the listener fails or the
// server shuts down (which returns nil).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		srv:      s,
		nc:       nc,
		out:      make(chan outFrame, s.maxInflight+64),
		stop:     make(chan struct{}),
		inflight: make(map[uint64]core.SubmitHandle),
	}
	c.answers = s.b.Answers(c)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.wg.Add(2)
	s.mu.Unlock()
	go c.guarded(c.readLoop)
	go c.guarded(c.writeLoop)
}

// Shutdown drains gracefully: it stops accepting, waits (bounded by
// ctx) for every pipelined submission to complete and its response to
// be written, then closes all connections. In-flight transactions are
// resolved by the service's own Drain before this is called, so the
// wait is for response delivery, not for work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for !s.idle() {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-tick.C:
		}
	}

	s.mu.Lock()
	cs := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.close()
	}
	s.wg.Wait()
	return err
}

// Close tears everything down immediately, wounding in-flight work.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return err
}

// idle reports whether every connection has delivered a response for
// every accepted submission.
func (s *Server) idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if !c.drained() {
			return false
		}
	}
	return true
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// --- connection ---------------------------------------------------------

// outFrame is one queued response. It travels by value, and a submit
// answer — nearly every frame — is all it holds, so the response path
// allocates nothing and each connection's queue costs 80 B a slot. Whether
// the answer carries a Retry-After is its status's to say; the writer fills
// it in at encode time.
type outFrame struct {
	id   uint64
	resp SubmitResp
	rare *rareFrame // any other response; nil on a submit answer
}

// rareFrame is a health, metrics or error response: allocated per frame, and
// only for those.
type rareFrame struct {
	typ    uint8
	health HealthResp
	body   []byte // FrameMetricsResp payload
	msg    string // frameError payload
}

type conn struct {
	srv  *Server
	nc   net.Conn
	out  chan outFrame
	stop chan struct{}
	// answers is the connection's answer target (Backend.Answers), built
	// once: every submission of the connection answers through it.
	answers Completer

	closeOnce sync.Once
	closed    atomic.Bool

	mu       sync.Mutex
	dead     bool
	inflight map[uint64]core.SubmitHandle

	enq   atomic.Int64 // responses queued to out
	wrote atomic.Int64 // responses written by the writer
}

func (c *conn) drained() bool {
	c.mu.Lock()
	n := len(c.inflight)
	c.mu.Unlock()
	return n == 0 && c.enq.Load() == c.wrote.Load()
}

// close is idempotent and safe from any goroutine, including the engine
// driver (handle cancellation only enqueues a driver call). The writer
// owns the socket close so queued responses get a best-effort flush.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.mu.Lock()
		c.dead = true
		hs := make([]core.SubmitHandle, 0, len(c.inflight))
		for _, h := range c.inflight {
			hs = append(hs, h)
		}
		c.inflight = make(map[uint64]core.SubmitHandle)
		c.mu.Unlock()
		for _, h := range hs {
			h.Cancel()
		}
		close(c.stop)
		// Wake a reader blocked in Read; the writer closes the socket.
		c.nc.SetReadDeadline(time.Now())
		c.srv.removeConn(c)
	})
}

// track registers a submission id; false means the pipeline is at
// capacity (or the id is already in flight, which is a client bug
// treated the same way).
func (c *conn) track(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || len(c.inflight) >= c.srv.maxInflight {
		return false
	}
	if _, dup := c.inflight[id]; dup {
		return false
	}
	c.inflight[id] = core.SubmitHandle{}
	return true
}

func (c *conn) finish(id uint64) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// send queues a response. The queue is sized so completions can never
// overflow it; overflow therefore means the peer stopped reading while
// still issuing control frames, and the connection is dropped.
func (c *conn) send(f outFrame) {
	if c.closed.Load() {
		return
	}
	select {
	case c.out <- f:
		c.enq.Add(1)
	default:
		c.close()
	}
}

// Render implements Renderer: the classified answer as a SubmitResp. Runs on
// the driver goroutine; must not block, and the Retry-After lookup is
// deferred to the writer for that reason.
func (c *conn) Render(id uint64, status uint8, o core.ServiceOutcome, err error) {
	c.finish(id)
	f := outFrame{id: id}
	f.resp.Status = status
	if err == nil {
		f.resp.Missed = o.Missed
		f.resp.restarts = uint32(o.Restarts)
		f.resp.Arrival = o.Arrival
		f.resp.Finish = o.Finish
		f.resp.Deadline = o.Deadline
		f.resp.Response = o.Response
		f.resp.Seq = o.Seq
	} else {
		f.resp.Err = err.Error()
		if status == StatusShed {
			c.srv.shed.Add(1)
		}
	}
	c.send(f)
}

// OnHandle implements Renderer. If the connection died between enqueue
// and handle delivery, wound the orphan immediately. Otherwise id is still
// in flight: the handle comes before Render, which is what finishes it.
func (c *conn) OnHandle(id uint64, h core.SubmitHandle) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		h.Cancel()
		return
	}
	c.inflight[id] = h
	c.mu.Unlock()
}

func (c *conn) shed(id uint64, reason string) {
	c.srv.shed.Add(1)
	c.send(outFrame{id: id, resp: SubmitResp{Status: StatusShed, Err: reason}})
}

// guarded runs one connection goroutine under a recover barrier: a
// panic (a decode bug tripped by a hostile frame, say) kills only this
// connection, never the process. The deferred close wounds the
// connection's inflight work so every pipelined submission still gets
// its terminal answer — on some other path — rather than leaking.
func (c *conn) guarded(fn func()) {
	defer c.srv.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			c.srv.panics.Add(1)
			c.close()
			c.nc.Close()
		}
	}()
	fn()
}

func (c *conn) readLoop() {
	defer c.close()
	fr := NewFrameReader(c.nc, c.srv.maxFrame)
	var req SubmitReq // reused across frames: the zero-alloc decode path
	for {
		// Rolling idle deadline: each frame the server has to wait for
		// gets a fresh budget, so a peer that stops mid-frame (slow
		// loris) or goes half-open is cut instead of pinning the
		// connection forever. A frame already buffered is not waited
		// for: a pipelined burst arms the deadline once per socket read,
		// not once per frame.
		if c.srv.idleEvery > 0 && !fr.buffered() {
			c.nc.SetReadDeadline(time.Now().Add(c.srv.idleEvery))
		}
		h, p, err := fr.Next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !c.closed.Load() {
				c.srv.idleClosed.Add(1)
			}
			return
		}
		switch h.Type {
		case frameSubmit:
			c.handleSubmit(h.ID, p, &req)
		case frameMetrics:
			body, err := c.srv.b.MetricsBody()
			if err != nil {
				c.send(outFrame{id: h.ID, rare: &rareFrame{typ: frameError, msg: err.Error()}})
				continue
			}
			c.send(outFrame{id: h.ID, rare: &rareFrame{typ: FrameMetricsResp, body: body}})
		case frameHealth:
			hr := HealthResp{Healthy: true, Draining: c.srv.b.Draining()}
			if herr := c.srv.b.HealthErr(); herr != nil {
				hr.Healthy = false
				hr.Err = herr.Error()
			}
			c.send(outFrame{id: h.ID, rare: &rareFrame{typ: FrameHealthResp, health: hr}})
		default:
			c.send(outFrame{id: h.ID, rare: &rareFrame{typ: frameError, msg: "wire: unknown frame type"}})
		}
	}
}

func (c *conn) handleSubmit(id uint64, p []byte, req *SubmitReq) {
	if err := DecodeSubmit(p, req); err != nil {
		c.srv.badFrames.Add(1)
		c.send(outFrame{id: id, resp: SubmitResp{Status: StatusInvalid, Err: err.Error()}})
		return
	}
	if !c.track(id) {
		c.shed(id, "connection pipeline full")
		return
	}
	// The request borrows the decode buffers, which the next frame reuses:
	// Enqueue copies what it keeps.
	sreq := core.ServiceRequest{
		Items:       req.Items,
		Reads:       req.Reads,
		NeedsIO:     req.NeedsIO,
		Compute:     req.Compute,
		Deadline:    req.Deadline,
		Criticality: req.Criticality,
		Class:       req.Class,
	}
	if !c.srv.b.Enqueue(id, sreq, c.answers) {
		c.finish(id)
		c.shed(id, "service overloaded")
		return
	}
	c.srv.submits.Add(1)
}

// Write is the writer's path to the socket: every write bufio passes down —
// a full buffer or a flush, many responses each — gets a fresh flushTimeout.
func (c *conn) Write(p []byte) (int, error) {
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.flushEvery))
	return c.nc.Write(p)
}

func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c, 64<<10)
	var buf []byte
	write := func(f *outFrame) bool {
		buf = c.encode(buf[:0], f)
		if _, err := bw.Write(buf); err != nil {
			return false
		}
		c.wrote.Add(1)
		return true
	}
	for {
		select {
		case f := <-c.out:
			if !write(&f) {
				c.close()
				c.nc.Close()
				return
			}
			// Flush only once the queue momentarily drains: under load,
			// many responses share one syscall.
			if len(c.out) == 0 {
				if err := bw.Flush(); err != nil {
					c.close()
					c.nc.Close()
					return
				}
			}
		case <-c.stop:
			// Best-effort delivery of whatever is already queued.
			for {
				select {
				case f := <-c.out:
					if !write(&f) {
						c.nc.Close()
						return
					}
				default:
					bw.Flush()
					c.nc.Close()
					return
				}
			}
		}
	}
}

func (c *conn) encode(buf []byte, f *outFrame) []byte {
	if r := f.rare; r != nil {
		switch r.typ {
		case FrameMetricsResp:
			return appendMetricsResp(buf, f.id, r.body)
		case FrameHealthResp:
			return AppendHealthResp(buf, f.id, &r.health)
		default:
			return appendError(buf, f.id, r.msg)
		}
	}
	if statusMeta[f.resp.Status].retry {
		ra := c.srv.b.RetryAfterSecs()
		if ra < 0 {
			ra = 1
		}
		if ra > 0xffff {
			ra = 0xffff
		}
		f.resp.RetryAfter = uint16(ra)
	}
	return AppendSubmitResp(buf, f.id, &f.resp)
}
