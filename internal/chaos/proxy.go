package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Counters is a point-in-time view of a proxy's traffic and the faults
// it has assigned and fired.
type Counters struct {
	Accepted   int64 `json:"accepted"`
	DialErrors int64 `json:"dial_errors"`
	// Planned fault assignments, by kind (drawn at accept time).
	ResetsPlanned     int64 `json:"resets_planned"`
	TruncatesPlanned  int64 `json:"truncates_planned"`
	BlackholesPlanned int64 `json:"blackholes_planned"`
	Throttled         int64 `json:"throttled"`
	// ResetsFired counts planned resets that actually tripped before
	// the connection ended for another reason.
	ResetsFired int64 `json:"resets_fired"`
}

// Proxy is a chaos TCP proxy: it accepts client connections, dials the
// target for each, and relays bytes both ways through the fault
// schedule drawn for that connection's accept index. Faults are
// injected on the client-facing side, so both request and response
// bytes pass through them; the target sees an ordinary peer that
// sometimes resets, stalls, or trickles.
type Proxy struct {
	ln          net.Listener
	target      string
	seed        int64
	plan        Plan
	dialTimeout time.Duration

	accepted   atomic.Int64
	dialErrors atomic.Int64
	planned    [4]atomic.Int64 // reset, truncate, blackhole, throttle

	mu     sync.Mutex
	conns  map[net.Conn]*conn // tracked pairs: upstream -> wrapped client side
	closed bool
	wg     sync.WaitGroup

	resetsFired atomic.Int64
}

// NewProxy builds a chaos proxy from ln to target. The plan may be
// zero, which makes the proxy a plain relay — useful as the control arm
// of a chaos experiment.
func NewProxy(ln net.Listener, target string, seed int64, plan Plan) (*Proxy, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	return &Proxy{
		ln:          ln,
		target:      target,
		seed:        seed,
		plan:        plan,
		dialTimeout: 5 * time.Second,
		conns:       make(map[net.Conn]*conn),
	}, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Counters snapshots the proxy's traffic counters.
func (p *Proxy) Counters() Counters {
	return Counters{
		Accepted:          p.accepted.Load(),
		DialErrors:        p.dialErrors.Load(),
		ResetsPlanned:     p.planned[0].Load(),
		TruncatesPlanned:  p.planned[1].Load(),
		BlackholesPlanned: p.planned[2].Load(),
		Throttled:         p.planned[3].Load(),
		ResetsFired:       p.resetsFired.Load(),
	}
}

// Serve accepts and relays until the listener fails or Close is called
// (which returns nil).
func (p *Proxy) Serve() error {
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("chaos: accept: %w", err)
		}
		idx := int(p.accepted.Add(1)) - 1
		sc := p.plan.scheduleFor(p.seed, idx)
		if sc.resetAfter > 0 {
			p.planned[0].Add(1)
			if sc.truncateWrite {
				p.planned[1].Add(1)
			}
		}
		if sc.blackholeFor > 0 {
			p.planned[2].Add(1)
		}
		if sc.throttleBps > 0 {
			p.planned[3].Add(1)
		}
		p.wg.Add(1)
		go p.relay(nc, sc)
	}
}

// Close stops accepting and severs every relayed connection, then waits
// for the relay goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	ups := make([]net.Conn, 0, len(p.conns))
	cls := make([]*conn, 0, len(p.conns))
	for up, cl := range p.conns {
		ups = append(ups, up)
		if cl != nil {
			cls = append(cls, cl)
		}
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, up := range ups {
		up.Close()
	}
	for _, cl := range cls {
		cl.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) relay(client net.Conn, sc schedule) {
	defer p.wg.Done()
	up, err := net.DialTimeout("tcp", p.target, p.dialTimeout)
	if err != nil {
		p.dialErrors.Add(1)
		client.Close()
		return
	}
	if tc, ok := client.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if tc, ok := up.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	faulted := wrapConn(client, sc)
	chaosConn, _ := faulted.(*conn)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		up.Close()
		faulted.Close()
		return
	}
	p.conns[up] = chaosConn
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, up)
		p.mu.Unlock()
		if chaosConn != nil && chaosConn.resetFired.Load() {
			p.resetsFired.Add(1)
		}
	}()

	// Two copiers; whichever direction dies first severs the other so
	// neither goroutine leaks. Half-close is deliberately not preserved:
	// the wire protocol never uses it, and chaos semantics are "the
	// connection died", not "one direction finished politely".
	var once sync.Once
	sever := func() {
		once.Do(func() {
			up.Close()
			faulted.Close()
		})
	}
	var inner sync.WaitGroup
	inner.Add(1)
	go func() {
		defer inner.Done()
		io.Copy(up, faulted) // client -> target through the fault path
		sever()
	}()
	io.Copy(faulted, up) // target -> client through the fault path
	sever()
	inner.Wait()
}
