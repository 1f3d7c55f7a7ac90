package wire

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// errResilientClosed reports a request issued on a closed Resilient.
var errResilientClosed = errors.New("wire: resilient client closed")

// ResilientOptions tune a Resilient client; zero values pick defaults.
type ResilientOptions struct {
	// DialTimeout bounds each (re)connect attempt. Default 5s.
	DialTimeout time.Duration
	// Client configures each underlying connection (request timeout).
	Client ClientOptions
	// maxAttempts bounds the tries per request (first try included).
	// Default 4.
	maxAttempts int
	// BackoffBase is the pre-jitter delay before the second attempt;
	// later attempts double it, capped at BackoffMax. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter (full jitter: uniform in (0, d]).
	// Default 1, so retry schedules are reproducible under test.
	Seed int64
}

func (o *ResilientOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.maxAttempts <= 0 {
		o.maxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Resilient is a wire client that survives its connection: it dials
// lazily, redials with jittered exponential backoff when the
// connection dies, and resubmits a request only when the failure
// proves the server never saw it (ErrNotSent — the connection was
// already broken before the frame was buffered). Ambiguous failures —
// a reset after the frame went out, a response timeout — are returned
// to the caller, because the transaction may have been admitted and
// blind resubmission would double-execute it.
type Resilient struct {
	addr string
	opt  ResilientOptions

	mu     sync.Mutex
	cur    *Client
	closed bool
	rng    *rand.Rand

	redials   atomic.Int64
	resubmits atomic.Int64
}

// NewResilient builds a resilient client for addr. No connection is
// made until the first request.
func NewResilient(addr string, opt ResilientOptions) *Resilient {
	opt.defaults()
	return &Resilient{
		addr: addr,
		opt:  opt,
		rng:  rand.New(rand.NewSource(opt.Seed)),
	}
}

// Close tears down the current connection and refuses further requests.
func (r *Resilient) Close() error {
	r.mu.Lock()
	r.closed = true
	c := r.cur
	r.cur = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

// client returns the live connection, dialing if needed.
func (r *Resilient) client() (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errResilientClosed
	}
	if r.cur != nil {
		return r.cur, nil
	}
	c, err := DialOptions(r.addr, r.opt.DialTimeout, r.opt.Client)
	if err != nil {
		return nil, err
	}
	r.cur = c
	r.redials.Add(1)
	return c, nil
}

// drop forgets c so the next request redials, but only if c is still
// the current connection (a concurrent request may already have
// replaced it).
func (r *Resilient) drop(c *Client) {
	r.mu.Lock()
	if r.cur == c {
		r.cur = nil
	}
	r.mu.Unlock()
	c.Close()
}

// backoff sleeps before attempt n (1-based retry count) with full
// jitter, honoring ctx.
func (r *Resilient) backoff(ctx context.Context, n int) error {
	d := r.opt.BackoffBase << (n - 1)
	if d > r.opt.BackoffMax || d <= 0 {
		d = r.opt.BackoffMax
	}
	r.mu.Lock()
	d = time.Duration(r.rng.Int63n(int64(d))) + 1
	r.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit sends one submission, redialing and resubmitting only across
// provably-unsent failures.
func (r *Resilient) Submit(req *SubmitReq) (SubmitResp, error) {
	return r.submitCtx(context.Background(), req)
}

// submitCtx is Submit bounded by ctx.
func (r *Resilient) submitCtx(ctx context.Context, req *SubmitReq) (SubmitResp, error) {
	var lastErr error
	for attempt := 0; attempt < r.opt.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return SubmitResp{}, lastErr
			}
			return SubmitResp{}, err
		}
		if attempt > 0 {
			if err := r.backoff(ctx, attempt); err != nil {
				return SubmitResp{}, lastErr
			}
		}
		c, err := r.client()
		if err != nil {
			if errors.Is(err, errResilientClosed) {
				return SubmitResp{}, err
			}
			// Dial failure: nothing was sent, always safe to retry.
			lastErr = err
			continue
		}
		resp, err := c.submitCtx(ctx, req)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, ErrNotSent) {
			// Ambiguous: the frame may have reached the server. Drop the
			// connection if it is broken, but surface the error.
			if c.brokenErr() != nil {
				r.drop(c)
			}
			return SubmitResp{}, err
		}
		// Provably unsent: safe to go around again on a fresh connection.
		lastErr = err
		r.drop(c)
		r.resubmits.Add(1)
	}
	return SubmitResp{}, lastErr
}
