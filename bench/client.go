package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
)

// Correlation IDs say where a request came from, so a trace file reads
// without a side table: phase in bits 48+, connection in bits 40-47,
// per-connection sequence number below.
const (
	phaseWarm = iota + 1
	phaseOpen
	phaseCtl    // health, metrics and the parked backlog
	phaseClosed // the first closed round; round k is phaseClosed+k
	numPhases   = phaseClosed + closedRounds
)

const idxMask = 1<<40 - 1

func makeID(phase, conn, idx int) uint64 {
	return uint64(phase)<<48 | uint64(conn)<<40 | uint64(idx)
}

func parkID(j int) uint64 { return makeID(phaseCtl, 0xff, 1<<20+j) }

// epoch anchors every client timestamp; time.Since reads the monotonic
// clock.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// Pending-table entry states.
const (
	stIdle       = iota // never sent
	stPending           // sent, no answer yet
	stOK                // first answer was StatusCommitted
	stBad               // first answer had another status
	stTimedOut          // closed phase: no answer within closedTimeout
	stUnanswered        // still pending answerGrace after the phase
)

// entry is one request's row in the pending table. The writer stores
// sent and flips idle→pending before the bytes leave; the reader stores
// recv and flips pending→ok/bad. Whoever loses the flip to a terminal
// state learns the request was already resolved.
type entry struct {
	sent  atomic.Int64
	recv  atomic.Int64
	state atomic.Uint32
}

// table is one connection's pending table for one phase, indexed by
// the sequence number in the correlation ID.
type table struct {
	entries []entry
	due     []int64      // open phases: due time of entry i, offset from start
	start   int64        // nanos() at phase start
	ok      atomic.Int64 // correct answers so far
	sentN   atomic.Int64 // requests sent so far

	// Closed phase only: the reader counts answers and wakes the writer
	// once a burst's worth of slots is free.
	wake     chan struct{}
	answered atomic.Int64
	timedOut atomic.Int64
}

// loadConn is one load connection: a writer (the phase functions, run
// on the caller's goroutine) and the reader goroutine started by dial.
type loadConn struct {
	id     int
	nc     net.Conn
	st     *stream
	tables [numPhases]atomic.Pointer[table]

	dupAnswers atomic.Int64 // frames for unknown or already-answered IDs
	readerDone chan struct{}
}

func dialLoad(addr string, id int, st *stream) (*loadConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &loadConn{id: id, nc: nc, st: st, readerDone: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// close shuts the connection and waits for the reader to exit.
func (c *loadConn) close() {
	c.nc.Close()
	<-c.readerDone
}

// readLoop verifies answers: the first frame for a pending ID is the
// answer; anything else is a duplicate.
func (c *loadConn) readLoop() {
	defer close(c.readerDone)
	fr := wire.NewFrameReader(c.nc, 0)
	var resp wire.SubmitResp
	for {
		h, p, err := fr.Next()
		if err != nil {
			return // closed by close, or by the server: the phase sees unanswered requests
		}
		now := nanos()
		var t *table
		if ph := int(h.ID >> 48); ph < numPhases {
			t = c.tables[ph].Load()
		}
		idx := int(h.ID & idxMask)
		if h.Type != wire.FrameSubmitResp || t == nil || idx >= len(t.entries) || int(h.ID>>40&0xff) != c.id {
			c.dupAnswers.Add(1)
			continue
		}
		e := &t.entries[idx]
		if e.state.Load() != stPending {
			c.dupAnswers.Add(1)
			continue
		}
		next := uint32(stOK)
		if wire.DecodeSubmitResp(p, &resp) != nil || resp.Status != wire.StatusCommitted {
			next = stBad
		}
		e.recv.Store(now)
		if !e.state.CompareAndSwap(stPending, next) {
			c.dupAnswers.Add(1) // lost to the closed-phase timeout
			continue
		}
		if next == stOK {
			t.ok.Add(1)
		}
		if t.wake != nil {
			n := t.answered.Add(1)
			if closedWindow-(t.sentN.Load()-n-t.timedOut.Load()) >= closedBurst {
				select {
				case t.wake <- struct{}{}:
				default:
				}
			}
		}
	}
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep
// would round a sub-millisecond wait up to the netpoller's millisecond
// whenever the process is otherwise idle, which at these rates is
// between most arrivals.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early return only makes the loop re-check the clock
}

// send marks entries [i, j) pending and writes their frames in one
// flush.
func (c *loadConn) send(t *table, phase int, buf []byte, i, j int) ([]byte, error) {
	buf = buf[:0]
	for k := i; k < j; k++ {
		buf = c.st.appendFrame(buf, k, makeID(phase, c.id, k))
	}
	now := nanos()
	for k := i; k < j; k++ {
		t.entries[k].sent.Store(now)
		t.entries[k].state.Store(stPending)
	}
	t.sentN.Store(int64(j))
	_, err := c.nc.Write(buf)
	return buf, err
}

// paceOnGrid walks a schedule of due times (offsets from start): it
// wakes on an absolute grid of sendTick, shifted by off, and calls send
// for every batch of arrivals due[i:j] that has come due, the way a
// client-side batching proxy would; it sleeps through grid points with
// nothing due, and stops at dur or at send's first error.
func paceOnGrid(due []int64, start, off int64, dur time.Duration, send func(i, j int) error) error {
	runtime.LockOSThread() // preciseSleep parks this thread, not a P
	defer runtime.UnlockOSThread()
	tick := int64(sendTick)
	for i := 0; i < len(due); {
		now := nanos() - start
		if now >= int64(dur) {
			return nil
		}
		if due[i] > now {
			wake := (due[i]-off+tick-1)/tick*tick + off
			preciseSleep(time.Duration(wake - now))
			continue
		}
		j := i
		for j < len(due) && due[j] <= now {
			j++
		}
		if err := send(i, j); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// runOpen sends the table's schedule on the grid, each connection on
// its own phase of it, every batch in one flush. Arrivals still unsent
// at dur stay idle and count as not sent.
func (c *loadConn) runOpen(t *table, phase int, dur time.Duration) error {
	c.tables[phase].Store(t)
	var buf []byte
	off := int64(sendTick) * int64(c.id) / loadConns
	return paceOnGrid(t.due, t.start, off, dur, func(i, j int) (err error) {
		if buf, err = c.send(t, phase, buf, i, j); err != nil {
			err = fmt.Errorf("conn %d: %w", c.id, err)
		}
		return err
	})
}

// runClosed keeps up to closedWindow requests outstanding for dur,
// refilling the window closedBurst slots at a time: a client that
// answered every response with one small write would make throughput
// hinge on how those writes happen to interleave with the server's
// reads. A request unanswered after closedTimeout frees its slot and
// stays a failure.
func (c *loadConn) runClosed(t *table, phase int, dur time.Duration) error {
	t.wake = make(chan struct{}, 1)
	c.tables[phase].Store(t)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var buf []byte
	low, next := 0, 0
	for {
		now := nanos()
		if now-t.start >= int64(dur) {
			return nil
		}
		// Sent times rise with the index, so the scan can stop at the
		// first pending entry that has not yet timed out.
		for ; low < next; low++ {
			e := &t.entries[low]
			if e.state.Load() != stPending {
				continue
			}
			if now-e.sent.Load() < int64(closedTimeout) {
				break
			}
			if e.state.CompareAndSwap(stPending, stTimedOut) {
				t.timedOut.Add(1)
			}
		}
		outstanding := next - int(t.answered.Load()+t.timedOut.Load())
		free := closedWindow - outstanding
		if free > len(t.entries)-next {
			free = len(t.entries) - next
		}
		if free >= closedBurst || (outstanding == 0 && free > 0) {
			var err error
			if buf, err = c.send(t, phase, buf, next, next+free); err != nil {
				return fmt.Errorf("conn %d: %w", c.id, err)
			}
			next += free
			continue
		}
		select {
		case <-t.wake:
		case <-tick.C:
		}
	}
}

// phaseResult is what one phase's pending tables add up to.
type phaseResult struct {
	due, sent, ok     int
	unanswered, wrong int
	lat, rtt, lag     []float64 // open phases: ms, one per request sent (lat is censored)
	latByWindow       [][]float64
	lastRecv          int64 // nanos() of the last correct answer
}

// add folds another phase's counts into r (the samples are not kept).
func (r *phaseResult) add(o phaseResult) {
	r.sent += o.sent
	r.ok += o.ok
	r.unanswered += o.unanswered
	r.wrong += o.wrong
}

// settle waits until every entry is resolved or grace has passed, marks
// the rest unanswered and adds the tables up. windows > 0 also splits
// the due-time latencies into that many equal windows by due time.
func settle(tables []*table, dur, grace time.Duration, windows int) phaseResult {
	deadline := time.Now().Add(grace)
	lows := make([]int, len(tables)) // entries below are resolved
	for pending := true; pending && time.Now().Before(deadline); {
		pending = false
		for k, t := range tables {
			n := int(t.sentN.Load())
			for lows[k] < n && t.entries[lows[k]].state.Load() != stPending {
				lows[k]++
			}
			pending = pending || lows[k] < n
		}
		if pending {
			time.Sleep(5 * time.Millisecond)
		}
	}
	var r phaseResult
	if windows > 0 {
		r.latByWindow = make([][]float64, windows)
	}
	for _, t := range tables {
		r.due += len(t.due)
		for i := range t.entries {
			e := &t.entries[i]
			e.state.CompareAndSwap(stPending, stUnanswered)
			st := e.state.Load()
			if st == stIdle {
				if t.due == nil {
					break // closed phase: nothing past the last sent entry
				}
				continue
			}
			r.sent++
			switch st {
			case stOK:
				r.ok++
				r.lastRecv = max(r.lastRecv, e.recv.Load())
			case stBad:
				r.wrong++
			default:
				r.unanswered++
			}
			if t.due == nil {
				continue // closed phase: counts only
			}
			sent, lat := e.sent.Load(), censoredMs
			if st == stOK {
				recv := e.recv.Load()
				r.rtt = append(r.rtt, float64(recv-sent)/1e6)
				lat = float64(recv-t.start-t.due[i]) / 1e6
			}
			r.lat = append(r.lat, lat)
			r.lag = append(r.lag, float64(sent-t.start-t.due[i])/1e6)
			if windows > 0 {
				win := int(t.due[i] * int64(windows) / int64(dur))
				r.latByWindow[win] = append(r.latByWindow[win], lat)
			}
		}
	}
	return r
}

// openPhase runs one open-loop phase over the schedule due (one slice
// per connection) and settles it.
func openPhase(conns []*loadConn, phase int, due [][]int64, dur, grace time.Duration, windows int) ([]*table, phaseResult, error) {
	tables := make([]*table, len(conns))
	start := nanos()
	for c := range tables {
		tables[c] = &table{entries: make([]entry, len(due[c])), due: due[c], start: start}
	}
	err := runPhase(conns, func(c *loadConn) error { return c.runOpen(tables[c.id], phase, dur) })
	return tables, settle(tables, dur, grace, windows), err
}

// runPhase runs fn on every connection at once and returns the first
// error.
func runPhase(conns []*loadConn, fn func(c *loadConn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *loadConn) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
