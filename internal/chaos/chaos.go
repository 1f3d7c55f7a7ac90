// Package chaos injects deterministic network faults into real TCP
// connections: forced resets, blackhole windows, byte-level throttling,
// delayed writes and mid-frame truncation. It is the wall-clock sibling
// of internal/fault — where fault.Plan perturbs the simulated engine,
// chaos.Plan perturbs the serving path that carries traffic to it.
//
// Determinism is the design center. A Plan never draws randomness at
// fault time: every connection's faults are fully materialized into a
// Schedule when the connection is wrapped, drawn from a named substream
// of the run seed keyed by the connection's accept index (stream
// "chaos/conn/N", via stats.Source). The same (seed, Plan) pair
// therefore always assigns the same faults to the same connections, no
// matter how goroutines interleave — what stays nondeterministic is
// only where in the byte stream the kernel happens to slice reads,
// which the hardened layers above must tolerate anyway.
//
// The zero Plan is a provable no-op: wrapConn and wrapListener return
// their argument unchanged (pointer identity), so a disabled injector
// costs nothing — no wrapper, no allocation, no extra call on the hot
// path.
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// errInjectedReset is the error surfaced on the wrapped side of a
// connection the injector reset. The peer observes a real TCP RST (the
// socket is closed with SO_LINGER 0), not this sentinel.
var errInjectedReset = errors.New("chaos: injected connection reset")

// Plan declares the faults to inject into a listener's connections. The
// zero value injects nothing and wrapping with it is an identity
// operation. Probabilities are per connection (drawn once at accept)
// except WriteDelayProb, which is per write. Durations encode as
// integer nanoseconds in JSON, matching fault.Plan.
type Plan struct {
	// ResetProb is the probability a connection is assigned a forced
	// reset after an exponentially distributed number of transferred
	// bytes (mean ResetAfterMeanBytes, default 16384). The reset closes
	// the socket with SO_LINGER 0 so the peer sees ECONNRESET.
	ResetProb float64 `json:"reset_prob,omitempty"`
	// ResetAfterMeanBytes is the mean byte budget before a planned
	// reset fires (default 16384).
	ResetAfterMeanBytes int64 `json:"reset_after_mean_bytes,omitempty"`

	// TruncateProb is, for connections assigned a reset, the probability
	// the reset additionally truncates the write that crosses the byte
	// budget — the peer receives a partial frame followed by RST, the
	// nastiest failure a length-prefixed protocol can see.
	TruncateProb float64 `json:"truncate_prob,omitempty"`

	// BlackholeProb is the probability a connection is assigned one
	// blackhole window: for BlackholeFor (default 1s), starting an
	// exponentially distributed time after accept (mean
	// BlackholeAfterMean, default 250ms), all reads and writes stall —
	// bytes neither flow nor error, exactly like a dead middlebox.
	BlackholeProb float64 `json:"blackhole_prob,omitempty"`
	// BlackholeAfterMean is the mean delay from accept to the window
	// opening (default 250ms).
	BlackholeAfterMean time.Duration `json:"blackhole_after_mean_ns,omitempty"`
	// BlackholeFor is the window length (default 1s).
	BlackholeFor time.Duration `json:"blackhole_for_ns,omitempty"`

	// ThrottleProb is the probability a connection is throttled to
	// ThrottleBytesPerSec (default 64 KiB/s) in each direction.
	ThrottleProb float64 `json:"throttle_prob,omitempty"`
	// ThrottleBytesPerSec is the throttled rate (default 65536).
	ThrottleBytesPerSec int64 `json:"throttle_bytes_per_sec,omitempty"`

	// WriteDelayProb is the per-write probability of stalling the write
	// by a uniform duration in (0, WriteDelayMax] (default 20ms) —
	// jitter that reorders flush timing without corrupting bytes.
	WriteDelayProb float64 `json:"write_delay_prob,omitempty"`
	// WriteDelayMax bounds one injected write delay (default 20ms).
	WriteDelayMax time.Duration `json:"write_delay_max_ns,omitempty"`
}

// Zero reports whether the plan injects nothing. Wrapping with a zero
// plan returns the wrapped value unchanged.
func (p Plan) Zero() bool {
	return p.ResetProb == 0 && p.BlackholeProb == 0 &&
		p.ThrottleProb == 0 && p.WriteDelayProb == 0
}

// validate reports the first problem with the plan.
func (p Plan) validate() error {
	for name, prob := range map[string]float64{
		"ResetProb":      p.ResetProb,
		"TruncateProb":   p.TruncateProb,
		"BlackholeProb":  p.BlackholeProb,
		"ThrottleProb":   p.ThrottleProb,
		"WriteDelayProb": p.WriteDelayProb,
	} {
		if prob < 0 || prob > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", name, prob)
		}
	}
	if p.ResetAfterMeanBytes < 0 {
		return fmt.Errorf("chaos: ResetAfterMeanBytes %d < 0", p.ResetAfterMeanBytes)
	}
	if p.BlackholeAfterMean < 0 {
		return fmt.Errorf("chaos: BlackholeAfterMean %v < 0", p.BlackholeAfterMean)
	}
	if p.BlackholeFor < 0 {
		return fmt.Errorf("chaos: BlackholeFor %v < 0", p.BlackholeFor)
	}
	if p.ThrottleBytesPerSec < 0 {
		return fmt.Errorf("chaos: ThrottleBytesPerSec %d < 0", p.ThrottleBytesPerSec)
	}
	if p.WriteDelayMax < 0 {
		return fmt.Errorf("chaos: WriteDelayMax %v < 0", p.WriteDelayMax)
	}
	return nil
}

// ParsePlan decodes a JSON plan (strictly: unknown fields are errors,
// catching typos in CLI flags) and validates it.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(strings.NewReader(s))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("chaos: parse plan: %w", err)
	}
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func (p Plan) resetMean() int64 {
	if p.ResetAfterMeanBytes > 0 {
		return p.ResetAfterMeanBytes
	}
	return 16384
}

func (p Plan) blackholeAfter() time.Duration {
	if p.BlackholeAfterMean > 0 {
		return p.BlackholeAfterMean
	}
	return 250 * time.Millisecond
}

func (p Plan) blackholeFor() time.Duration {
	if p.BlackholeFor > 0 {
		return p.BlackholeFor
	}
	return time.Second
}

func (p Plan) throttleBps() int64 {
	if p.ThrottleBytesPerSec > 0 {
		return p.ThrottleBytesPerSec
	}
	return 64 << 10
}

func (p Plan) writeDelayMax() time.Duration {
	if p.WriteDelayMax > 0 {
		return p.WriteDelayMax
	}
	return 20 * time.Millisecond
}

// schedule is one connection's fully materialized fault assignment — a
// pure function of (seed, plan, accept index). Materializing up front
// is what makes chaos runs reproducible: no draw depends on goroutine
// timing, only on the accept order.
type schedule struct {
	// conn is the accept index the schedule was drawn for.
	conn int
	// resetAfter is the total transferred-byte budget (both directions)
	// after which the connection is reset; 0 means no reset planned.
	resetAfter int64
	// truncateWrite cuts short the write that crosses resetAfter, so
	// the peer sees a partial frame before the RST.
	truncateWrite bool
	// blackholeAt/blackholeFor delimit the stall window relative to the
	// wrap time; blackholeFor == 0 means no window.
	blackholeAt  time.Duration
	blackholeFor time.Duration
	// throttleBps caps the transfer rate per direction; 0 = unlimited.
	throttleBps int64
	// writeDelayProb/writeDelayMax inject per-write stalls, drawn from
	// the deterministic per-connection stream seeded by writeSeed.
	writeDelayProb float64
	writeDelayMax  time.Duration
	writeSeed      int64
}

// zero reports whether the schedule injects nothing.
func (sc schedule) zero() bool {
	return sc.resetAfter == 0 && sc.blackholeFor == 0 &&
		sc.throttleBps == 0 && sc.writeDelayProb == 0
}

// scheduleFor materializes the fault schedule for the connection with
// the given accept index. Same (seed, plan, index) ⇒ same schedule; the
// draw order below is fixed and every branch draws the same number of
// variates, so schedules for one connection are independent of the
// plan's other knobs firing or not.
func (p Plan) scheduleFor(seed int64, index int) schedule {
	st := stats.NewSource(seed).Stream(fmt.Sprintf("chaos/conn/%d", index))
	sc := schedule{conn: index}
	if u, v, w := st.Float64(), st.Exponential(float64(p.resetMean())), st.Float64(); u < p.ResetProb {
		sc.resetAfter = 1 + int64(v)
		sc.truncateWrite = w < p.TruncateProb
	}
	if u, v := st.Float64(), st.Exponential(float64(p.blackholeAfter())); u < p.BlackholeProb {
		sc.blackholeAt = time.Duration(v)
		sc.blackholeFor = p.blackholeFor()
	}
	if st.Float64() < p.ThrottleProb {
		sc.throttleBps = p.throttleBps()
	}
	sc.writeDelayProb = p.WriteDelayProb
	sc.writeDelayMax = p.writeDelayMax()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/chaos/write/%d", seed, index)
	sc.writeSeed = int64(h.Sum64())
	return sc
}

// wrapConn applies a schedule to a connection. A zero schedule returns
// nc itself — the passthrough guarantee.
func wrapConn(nc net.Conn, sc schedule) net.Conn {
	if sc.zero() {
		return nc
	}
	return newConn(nc, sc)
}

// wrapListener injects the plan into every connection ln accepts,
// assigning accept index 0, 1, 2, ... in order. A zero plan returns ln
// itself.
func wrapListener(ln net.Listener, seed int64, p Plan) net.Listener {
	if p.Zero() {
		return ln
	}
	return &listener{Listener: ln, seed: seed, plan: p}
}

type listener struct {
	net.Listener
	seed int64
	plan Plan
	next atomic.Int64
}

func (l *listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := l.plan.scheduleFor(l.seed, int(l.next.Add(1))-1)
	return wrapConn(nc, sc), nil
}

// conn wraps a net.Conn with an injected fault schedule. It tracks
// read/write deadlines itself so an injected stall (blackhole,
// throttle, write delay) still honors the deadline the layer above set
// — a server's idle-timeout guard keeps working even when the fault
// injector is the thing stalling the connection.
type conn struct {
	nc    net.Conn
	sc    schedule
	start time.Time

	closed    chan struct{}
	closeOnce sync.Once

	moved      atomic.Int64 // bytes transferred, both directions
	resetFired atomic.Bool

	dmu       sync.Mutex // guards deadlines and the write-delay rng
	rdeadline time.Time
	wdeadline time.Time
	wrng      *rand.Rand
}

// newConn wraps nc with the schedule unconditionally (callers wanting
// the zero-schedule passthrough use wrapConn).
func newConn(nc net.Conn, sc schedule) *conn {
	return &conn{
		nc:     nc,
		sc:     sc,
		start:  time.Now(),
		closed: make(chan struct{}),
		wrng:   rand.New(rand.NewSource(sc.writeSeed)),
	}
}

func (c *conn) deadline(write bool) time.Time {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	if write {
		return c.wdeadline
	}
	return c.rdeadline
}

// stall sleeps for d, waking early on close or on the direction's
// deadline. It returns a timeout error when the deadline cut the sleep
// short, net.ErrClosed when the connection closed under it.
func (c *conn) stall(d time.Duration, write bool) error {
	if d <= 0 {
		return nil
	}
	timedOut := false
	if dl := c.deadline(write); !dl.IsZero() {
		if until := time.Until(dl); until < d {
			d = until
			timedOut = true
		}
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closed:
			return net.ErrClosed
		}
	}
	if timedOut {
		return os.ErrDeadlineExceeded
	}
	return nil
}

// gate enforces the connection-level faults that precede any transfer:
// an already-fired reset and the blackhole window.
func (c *conn) gate(write bool) error {
	select {
	case <-c.closed:
		return net.ErrClosed
	default:
	}
	if c.resetFired.Load() {
		return errInjectedReset
	}
	if c.sc.blackholeFor > 0 {
		since := time.Since(c.start)
		if since >= c.sc.blackholeAt && since < c.sc.blackholeAt+c.sc.blackholeFor {
			if err := c.stall(c.sc.blackholeAt+c.sc.blackholeFor-since, write); err != nil {
				return err
			}
			if c.resetFired.Load() {
				return errInjectedReset
			}
		}
	}
	return nil
}

// throttle paces n transferred bytes at the scheduled rate.
func (c *conn) throttle(n int, write bool) error {
	if c.sc.throttleBps <= 0 || n <= 0 {
		return nil
	}
	d := time.Duration(int64(n) * int64(time.Second) / c.sc.throttleBps)
	return c.stall(d, write)
}

// reset fires the planned reset: the peer gets a real RST (linger 0),
// our side reports errInjectedReset from now on.
func (c *conn) reset() {
	if !c.resetFired.CompareAndSwap(false, true) {
		return
	}
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.nc.Close()
}

func (c *conn) Read(p []byte) (int, error) {
	if err := c.gate(false); err != nil {
		return 0, err
	}
	if c.sc.resetAfter > 0 && c.moved.Load() >= c.sc.resetAfter {
		c.reset()
		return 0, errInjectedReset
	}
	n, err := c.nc.Read(p)
	c.moved.Add(int64(n))
	if n > 0 {
		// Pacing only: data already delivered is returned regardless of
		// whether the stall was cut short by a deadline or close.
		_ = c.throttle(n, false)
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	if err := c.gate(true); err != nil {
		return 0, err
	}
	if c.sc.writeDelayProb > 0 {
		c.dmu.Lock()
		delay := time.Duration(0)
		if c.wrng.Float64() < c.sc.writeDelayProb {
			delay = time.Duration(c.wrng.Int63n(int64(c.sc.writeDelayMax)) + 1)
		}
		c.dmu.Unlock()
		if err := c.stall(delay, true); err != nil {
			return 0, err
		}
	}
	if c.sc.resetAfter > 0 {
		remaining := c.sc.resetAfter - c.moved.Load()
		if remaining <= 0 {
			c.reset()
			return 0, errInjectedReset
		}
		if int64(len(p)) > remaining && c.sc.truncateWrite {
			// Mid-frame truncation: deliver the prefix, then RST.
			n, _ := c.nc.Write(p[:remaining])
			c.moved.Add(int64(n))
			c.reset()
			return n, errInjectedReset
		}
	}
	n, err := c.nc.Write(p)
	c.moved.Add(int64(n))
	if err == nil {
		if terr := c.throttle(n, true); terr != nil {
			return n, terr
		}
	}
	if err == nil && c.sc.resetAfter > 0 && c.moved.Load() >= c.sc.resetAfter {
		// The budget-crossing write is delivered whole (no truncation
		// planned); the reset lands between frames.
		c.reset()
	}
	return n, err
}

func (c *conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.nc.Close()
	})
	return err
}

func (c *conn) LocalAddr() net.Addr  { return c.nc.LocalAddr() }
func (c *conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

func (c *conn) SetDeadline(t time.Time) error {
	c.dmu.Lock()
	c.rdeadline, c.wdeadline = t, t
	c.dmu.Unlock()
	return c.nc.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.dmu.Lock()
	c.rdeadline = t
	c.dmu.Unlock()
	return c.nc.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dmu.Lock()
	c.wdeadline = t
	c.dmu.Unlock()
	return c.nc.SetWriteDeadline(t)
}
