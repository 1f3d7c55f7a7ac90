package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"
)

// aggressive is a plan with every fault class armed, used where tests
// want schedules that actually contain something.
var aggressive = Plan{
	ResetProb:           0.7,
	ResetAfterMeanBytes: 4096,
	TruncateProb:        0.5,
	BlackholeProb:       0.4,
	BlackholeAfterMean:  10 * time.Millisecond,
	BlackholeFor:        20 * time.Millisecond,
	ThrottleProb:        0.3,
	ThrottleBytesPerSec: 1 << 20,
	WriteDelayProb:      0.2,
	WriteDelayMax:       time.Millisecond,
}

// TestScheduleDeterminism is the acceptance criterion: the same (seed,
// plan) pair materializes the identical fault schedule for every
// connection index, and a different seed materializes a different one.
func TestScheduleDeterminism(t *testing.T) {
	const n = 200
	a := make([]schedule, n)
	b := make([]schedule, n)
	for i := 0; i < n; i++ {
		a[i] = aggressive.scheduleFor(42, i)
		b[i] = aggressive.scheduleFor(42, i)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules")
	}
	diff := false
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], aggressive.scheduleFor(43, i)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("seeds 42 and 43 produced identical schedules for all %d connections", n)
	}
	// Coverage sanity: with these probabilities, 200 draws must assign
	// every fault class at least once.
	var resets, truncs, holes, throttles int
	for _, sc := range a {
		if sc.resetAfter > 0 {
			resets++
			if sc.truncateWrite {
				truncs++
			}
		}
		if sc.blackholeFor > 0 {
			holes++
		}
		if sc.throttleBps > 0 {
			throttles++
		}
	}
	if resets == 0 || truncs == 0 || holes == 0 || throttles == 0 {
		t.Fatalf("fault classes not all exercised: resets=%d truncates=%d blackholes=%d throttles=%d",
			resets, truncs, holes, throttles)
	}
}

// TestScheduleIndependentOfOtherKnobs: disabling one fault class must
// not change what another class draws for the same index (fixed draw
// order, fixed draw count per class).
func TestScheduleIndependentOfOtherKnobs(t *testing.T) {
	noReset := aggressive
	noReset.ResetProb = 0
	for i := 0; i < 100; i++ {
		full := aggressive.scheduleFor(7, i)
		part := noReset.scheduleFor(7, i)
		if part.resetAfter != 0 {
			t.Fatalf("conn %d: ResetProb 0 still planned a reset", i)
		}
		if part.blackholeAt != full.blackholeAt || part.blackholeFor != full.blackholeFor ||
			part.throttleBps != full.throttleBps {
			t.Fatalf("conn %d: disabling resets perturbed other draws: %+v vs %+v", i, part, full)
		}
	}
}

// TestZeroPlanPassthrough is the zero-overhead guarantee: wrapping with
// a zero plan or schedule returns the argument itself.
func TestZeroPlanPassthrough(t *testing.T) {
	if !(Plan{}).Zero() {
		t.Fatalf("zero Plan not Zero()")
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if got := wrapConn(c1, schedule{}); got != c1 {
		t.Fatalf("wrapConn(zero) returned a wrapper, want the conn itself")
	}
	// And the allocation side of the claim.
	if n := testing.AllocsPerRun(100, func() {
		_ = wrapConn(c1, schedule{})
	}); n != 0 {
		t.Fatalf("zero-schedule wrapConn allocates %v per call", n)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{ResetProb: -0.1},
		{ResetProb: 1.5},
		{TruncateProb: 2},
		{BlackholeProb: 0.5, BlackholeFor: -time.Second},
		{ThrottleProb: 0.5, ThrottleBytesPerSec: -1},
		{WriteDelayProb: 0.5, WriteDelayMax: -time.Millisecond},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
	if err := aggressive.validate(); err != nil {
		t.Fatalf("aggressive plan rejected: %v", err)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan(`{"reset_prob":0.5,"blackhole_prob":0.1,"blackhole_for_ns":1000000}`)
	if err != nil {
		t.Fatal(err)
	}
	if p.ResetProb != 0.5 || p.BlackholeFor != time.Millisecond {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	if _, err := ParsePlan(`{"reset_prob":7}`); err == nil {
		t.Fatalf("out-of-range probability accepted")
	}
	if _, err := ParsePlan(`{"rest_prob":0.5}`); err == nil {
		t.Fatalf("unknown field accepted")
	}
}

// tcpPair returns a connected loopback TCP pair.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		server, _ = ln.Accept()
		close(done)
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestResetAfterBudget: a planned reset trips once the byte budget is
// crossed; our side sees errInjectedReset, the peer sees a hard error.
func TestResetAfterBudget(t *testing.T) {
	client, server := tcpPair(t)
	w := newConn(client, schedule{resetAfter: 100})
	buf := make([]byte, 64)
	var total int
	var lastErr error
	for i := 0; i < 10; i++ {
		n, err := w.Write(buf)
		total += n
		if err != nil {
			lastErr = err
			break
		}
		// Drain on the peer so the loopback buffers never matter.
		io.ReadFull(server, make([]byte, n))
	}
	if !errors.Is(lastErr, errInjectedReset) {
		t.Fatalf("wanted errInjectedReset after budget, got total=%d err=%v", total, lastErr)
	}
	if !w.resetFired.Load() {
		t.Fatalf("resetFired false after injected reset")
	}
	if _, err := w.Write(buf); !errors.Is(err, errInjectedReset) {
		t.Fatalf("post-reset write error = %v", err)
	}
	if _, err := w.Read(buf); !errors.Is(err, errInjectedReset) {
		t.Fatalf("post-reset read error = %v", err)
	}
	// The peer's next read must fail (RST or EOF depending on timing).
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := server.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("peer never observed the reset")
			}
			return
		}
	}
}

// TestTruncatedWrite: with truncateWrite the budget-crossing write
// delivers exactly the remaining bytes, then resets.
func TestTruncatedWrite(t *testing.T) {
	client, server := tcpPair(t)
	w := newConn(client, schedule{resetAfter: 10, truncateWrite: true})
	n, err := w.Write(bytes.Repeat([]byte{0xAB}, 64))
	if n != 10 || !errors.Is(err, errInjectedReset) {
		t.Fatalf("truncated write = (%d, %v), want (10, errInjectedReset)", n, err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(server)
	if len(got) > 10 {
		t.Fatalf("peer received %d bytes past the truncation point", len(got))
	}
}

// TestBlackholeHonorsDeadline: a read stalled by a blackhole window
// still times out at the deadline the caller set — the slow-loris
// guard above the injector keeps working.
func TestBlackholeHonorsDeadline(t *testing.T) {
	client, _ := tcpPair(t)
	w := newConn(client, schedule{blackholeAt: 0, blackholeFor: 10 * time.Second})
	w.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := w.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackholed read error = %v, want deadline exceeded", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("blackholed read error is not a timeout net.Error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut the blackhole short (%v)", elapsed)
	}
}

// TestBlackholeWakesOnClose: closing the connection releases a stalled
// operation immediately.
func TestBlackholeWakesOnClose(t *testing.T) {
	client, _ := tcpPair(t)
	w := newConn(client, schedule{blackholeAt: 0, blackholeFor: 10 * time.Second})
	errCh := make(chan error, 1)
	go func() {
		_, err := w.Read(make([]byte, 1))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read after close = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("close did not wake the blackholed read")
	}
}

// TestWriteDelaysDeterministic: the per-write delay draws come from the
// schedule's seed, so two conns with the same schedule stall the same
// writes by the same amounts.
func TestWriteDelaysDeterministic(t *testing.T) {
	sc := schedule{writeDelayProb: 0.5, writeDelayMax: time.Millisecond, writeSeed: 99}
	draw := func() []time.Duration {
		c1, c2 := net.Pipe()
		defer c1.Close()
		go io.Copy(io.Discard, c2)
		w := newConn(c1, sc)
		var ds []time.Duration
		for i := 0; i < 32; i++ {
			w.dmu.Lock()
			var d time.Duration
			if w.wrng.Float64() < sc.writeDelayProb {
				d = time.Duration(w.wrng.Int63n(int64(sc.writeDelayMax)) + 1)
			}
			w.dmu.Unlock()
			ds = append(ds, d)
		}
		return ds
	}
	if !reflect.DeepEqual(draw(), draw()) {
		t.Fatalf("write-delay draws differ across conns with the same schedule")
	}
}

// TestProxyRelay: a zero-plan proxy is a faithful relay end to end.
func TestProxyRelay(t *testing.T) {
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			c, err := echo.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()

	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px, err := NewProxy(pln, echo.Addr().String(), 1, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	go px.Serve()
	defer px.Close()

	c, err := net.Dial("tcp", px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("through the looking glass")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("relay corrupted bytes: %q", got)
	}
	if cs := px.Counters(); cs.Accepted != 1 || cs.ResetsPlanned != 0 {
		t.Fatalf("counters = %+v", cs)
	}
}

// TestProxyInjectsReset: with ResetProb 1 and a tiny budget every
// proxied connection dies, and the client observes a hard error rather
// than a hang.
func TestProxyInjectsReset(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()

	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	px, err := NewProxy(pln, sink.Addr().String(), 5, Plan{ResetProb: 1, ResetAfterMeanBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	go px.Serve()
	defer px.Close()

	c, err := net.Dial("tcp", px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	buf := bytes.Repeat([]byte{1}, 256)
	sawErr := false
	for i := 0; i < 1000; i++ {
		if _, err := c.Write(buf); err != nil {
			sawErr = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawErr {
		t.Fatalf("client never observed the injected reset")
	}
	cs := px.Counters()
	if cs.ResetsPlanned == 0 {
		t.Fatalf("no reset planned with ResetProb 1: %+v", cs)
	}
}
