package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientClosed reports a request issued on (or orphaned by) a closed
// connection.
var ErrClientClosed = errors.New("wire: client closed")

// ErrRequestTimeout reports a request whose response did not arrive
// within the client's request timeout. The request may have been
// admitted by the server — only its answer is missing — so it is NOT
// safe to resubmit blindly.
var ErrRequestTimeout = errors.New("wire: request timed out awaiting response")

// ErrNotSent marks a request the client can prove never reached the
// wire (the connection was already broken before the frame was
// buffered). Requests failing with ErrNotSent are safe to resubmit on
// a fresh connection; every other failure is ambiguous — the server
// may have admitted the transaction — and must not be retried without
// idempotence above the protocol.
var ErrNotSent = errors.New("wire: request not sent")

// ClientOptions tune a wire client; zero values pick defaults.
type ClientOptions struct {
	// RequestTimeout bounds the wait for each request's response. A
	// swallowed response (lost frame, stalled peer, blackholed network)
	// then fails with ErrRequestTimeout instead of hanging forever.
	// Default 30s; negative disables the timeout.
	RequestTimeout time.Duration
}

// defaultRequestTimeout is the per-request answer timeout when
// ClientOptions leaves it zero.
const defaultRequestTimeout = 30 * time.Second

// clientResp is what the reader goroutine delivers to a waiter.
type clientResp struct {
	typ    uint8
	resp   SubmitResp
	health HealthResp
	body   []byte // copied MetricsResp payload
	msg    string // FrameError payload
}

// Client is a pipelined wire-protocol client over one persistent TCP
// connection. It is safe for concurrent use: many goroutines can have
// submissions in flight at once, writes are coalesced by a flusher so
// concurrent submitters share syscalls, and a reader goroutine fans the
// out-of-order responses back to their waiters by request id.
type Client struct {
	nc         net.Conn
	reqTimeout time.Duration // 0 = no timeout
	nextID     atomic.Uint64

	wmu  sync.Mutex // guards bw and wbuf
	bw   *bufWriter
	wbuf []byte

	kick chan struct{}

	mu      sync.Mutex
	waiters map[uint64]chan clientResp
	err     error // set once broken/closed

	unmatched atomic.Int64

	done chan struct{}
	wg   sync.WaitGroup
}

// bufWriter is the minimal buffered-writer surface Client needs; split
// out so tests can interpose.
type bufWriter struct {
	nc  net.Conn
	buf []byte
}

func (w *bufWriter) write(p []byte) {
	w.buf = append(w.buf, p...)
}

func (w *bufWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.nc.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Dial connects to a wire server with default client options.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, timeout, ClientOptions{})
}

// DialOptions connects to a wire server.
func DialOptions(addr string, timeout time.Duration, opt ClientOptions) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newClient(nc, opt), nil
}

// newClient wraps an established connection.
func newClient(nc net.Conn, opt ClientOptions) *Client {
	to := opt.RequestTimeout
	switch {
	case to == 0:
		to = defaultRequestTimeout
	case to < 0:
		to = 0
	}
	c := &Client{
		nc:         nc,
		reqTimeout: to,
		bw:         &bufWriter{nc: nc},
		kick:       make(chan struct{}, 1),
		waiters:    make(map[uint64]chan clientResp),
		done:       make(chan struct{}),
	}
	c.wg.Add(2)
	go c.readLoop()
	go c.flushLoop()
	return c
}

// Close tears the connection down; in-flight requests fail with
// ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	c.wg.Wait()
	return nil
}

// fail marks the client broken, closes the socket and releases every
// waiter. Idempotent; the first error wins.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
		c.nc.Close()
	}
	ws := c.waiters
	c.waiters = make(map[uint64]chan clientResp)
	c.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

func (c *Client) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// register installs a waiter for a fresh request id. Failure here means
// the connection was already broken and the frame was never buffered —
// the one case a caller may safely resubmit, marked with ErrNotSent.
func (c *Client) register() (uint64, chan clientResp, error) {
	id := c.nextID.Add(1)
	ch := make(chan clientResp, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	c.waiters[id] = ch
	c.mu.Unlock()
	return id, ch, nil
}

func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.waiters, id)
	c.mu.Unlock()
}

// enqueue appends one encoded frame to the shared write buffer and
// kicks the flusher. append is the caller-supplied encoder so the hot
// path reuses the client's scratch buffer under the write lock.
func (c *Client) enqueue(enc func(buf []byte) []byte) error {
	c.wmu.Lock()
	c.wbuf = enc(c.wbuf[:0])
	c.bw.write(c.wbuf)
	c.wmu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return nil
}

func (c *Client) flushLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.kick:
			c.wmu.Lock()
			err := c.bw.flush()
			c.wmu.Unlock()
			if err != nil {
				c.fail(fmt.Errorf("wire: write: %w", err))
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	fr := NewFrameReader(c.nc, DefaultMaxFrame)
	for {
		h, p, err := fr.Next()
		if err != nil {
			select {
			case <-c.done:
				err = ErrClientClosed
			default:
			}
			c.fail(err)
			return
		}
		var cr clientResp
		cr.typ = h.Type
		switch h.Type {
		case FrameSubmitResp:
			if err := DecodeSubmitResp(p, &cr.resp); err != nil {
				c.fail(err)
				return
			}
		case FrameHealthResp:
			if err := DecodeHealthResp(p, &cr.health); err != nil {
				c.fail(err)
				return
			}
		case FrameMetricsResp:
			cr.body = append([]byte(nil), p...)
		case FrameError:
			cr.msg = string(p)
		default:
			c.fail(fmt.Errorf("wire: unexpected frame type %#x", h.Type))
			return
		}
		c.mu.Lock()
		ch, ok := c.waiters[h.ID]
		if ok {
			delete(c.waiters, h.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- cr
		} else {
			c.unmatched.Add(1)
		}
	}
}

// Unmatched counts the response frames that arrived for an ID nobody was
// waiting on. A request abandoned by its timeout or context leaves one
// behind when its answer does come; with no abandoned request, anything
// above zero is a server answering a correlation ID twice, or one it was
// never sent.
func (c *Client) Unmatched() int64 { return c.unmatched.Load() }

// await blocks until the response for id arrives, the context is done,
// or the request timeout fires. The waiter channel is buffered, so a
// response racing the unregister is dropped harmlessly rather than
// blocking the reader.
func (c *Client) await(ctx context.Context, id uint64, ch chan clientResp) (clientResp, error) {
	var timeout <-chan time.Time
	if c.reqTimeout > 0 {
		tmr := time.NewTimer(c.reqTimeout)
		defer tmr.Stop()
		timeout = tmr.C
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case cr, ok := <-ch:
		if !ok {
			return clientResp{}, c.brokenErr()
		}
		return cr, nil
	case <-ctxDone:
		c.unregister(id)
		return clientResp{}, ctx.Err()
	case <-timeout:
		c.unregister(id)
		return clientResp{}, ErrRequestTimeout
	}
}

// Submit sends one submission and waits for its response, bounded by
// the client's request timeout. Concurrent calls pipeline over the
// single connection.
func (c *Client) Submit(req *SubmitReq) (SubmitResp, error) {
	return c.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit bounded by ctx as well as the request timeout.
// On ctx cancellation or timeout the request is abandoned client-side;
// the server may still execute it.
func (c *Client) SubmitCtx(ctx context.Context, req *SubmitReq) (SubmitResp, error) {
	id, ch, err := c.register()
	if err != nil {
		return SubmitResp{}, err
	}
	if err := c.enqueue(func(buf []byte) []byte {
		return AppendSubmit(buf, id, req)
	}); err != nil {
		c.unregister(id)
		return SubmitResp{}, err
	}
	cr, err := c.await(ctx, id, ch)
	if err != nil {
		return SubmitResp{}, err
	}
	if cr.typ == FrameError {
		return SubmitResp{}, fmt.Errorf("wire: server error: %s", cr.msg)
	}
	if cr.typ != FrameSubmitResp {
		return SubmitResp{}, fmt.Errorf("wire: unexpected response type %#x", cr.typ)
	}
	return cr.resp, nil
}

// Metrics fetches the server's metrics snapshot (the same JSON document
// the HTTP endpoint serves).
func (c *Client) Metrics() ([]byte, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.enqueue(func(buf []byte) []byte {
		return AppendMetricsReq(buf, id)
	}); err != nil {
		c.unregister(id)
		return nil, err
	}
	cr, err := c.await(context.Background(), id, ch)
	if err != nil {
		return nil, err
	}
	if cr.typ == FrameError {
		return nil, fmt.Errorf("wire: server error: %s", cr.msg)
	}
	if cr.typ != FrameMetricsResp {
		return nil, fmt.Errorf("wire: unexpected response type %#x", cr.typ)
	}
	return cr.body, nil
}

// Health probes the server.
func (c *Client) Health() (HealthResp, error) {
	id, ch, err := c.register()
	if err != nil {
		return HealthResp{}, err
	}
	if err := c.enqueue(func(buf []byte) []byte {
		return AppendHealthReq(buf, id)
	}); err != nil {
		c.unregister(id)
		return HealthResp{}, err
	}
	cr, err := c.await(context.Background(), id, ch)
	if err != nil {
		return HealthResp{}, err
	}
	if cr.typ != FrameHealthResp {
		return HealthResp{}, fmt.Errorf("wire: unexpected response type %#x", cr.typ)
	}
	return cr.health, nil
}
