package server

import (
	"bytes"
	"context"
	"encoding/json"

	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/txn"
	"repro/internal/wire"
)

// startDual boots the dual-protocol server and returns both listener
// addresses plus a stop func.
func startDual(t *testing.T, opts Options) (httpAddr, wireAddr string, stop func() error) {
	t.Helper()
	if opts.Service.Speed == 0 {
		opts.Service.Speed = 500
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeListeners(ctx, httpLn, wireLn) }()
	stopped := false
	stop = func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("ServeListeners did not return after cancel")
			return nil
		}
	}
	t.Cleanup(func() { _ = stop() })
	return httpLn.Addr().String(), wireLn.Addr().String(), stop
}

// startChaosProxy puts a seeded chaos proxy in front of target and
// returns its address.
func startChaosProxy(t *testing.T, target string, seed int64, plan chaos.Plan) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := chaos.NewProxy(ln, target, seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("proxy close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestChaosSoak is the capstone: rtload-shaped traffic over both
// protocols through a fault-injecting proxy, under -race in CI. The
// contract it enforces:
//
//   - every submission gets exactly one terminal answer — an outcome or
//     an error, never a hang, never a double answer (each worker counts
//     its answers and the totals must match the issues);
//   - error rates stay bounded: chaos severs connections, but the
//     surviving ones keep committing — a fault schedule must degrade
//     throughput, not correctness;
//   - after drain the process has no leaked goroutines: the proxy, both
//     front-ends, the resilient clients and the engine all wind down.
func TestChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := core.MainMemoryConfig(core.CCA, 42)
	cfg.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
	httpAddr, wireAddr, stop := startDual(t, Options{
		Core:            cfg,
		Service:         core.ServiceOptions{Speed: 500},
		MaxInflight:     128,
		DrainTimeout:    2 * time.Second,
		WireIdleTimeout: 2 * time.Second,
	})

	plan := chaos.Plan{
		ResetProb:           0.25,
		ResetAfterMeanBytes: 4096,
		TruncateProb:        0.5,
		BlackholeProb:       0.1,
		BlackholeAfterMean:  50 * time.Millisecond,
		BlackholeFor:        300 * time.Millisecond,
		ThrottleProb:        0.25,
		ThrottleBytesPerSec: 256 << 10,
		WriteDelayProb:      0.2,
		WriteDelayMax:       5 * time.Millisecond,
	}
	wireProxy := startChaosProxy(t, wireAddr, 7, plan)
	httpProxy := startChaosProxy(t, httpAddr, 8, plan)

	const (
		wireWorkers = 6
		wirePer     = 40
		httpWorkers = 4
		httpPer     = 25
	)
	var (
		issued    atomic.Int64
		answered  atomic.Int64
		committed atomic.Int64
		failed    atomic.Int64 // transport/chaos errors — allowed, bounded
	)

	var wg sync.WaitGroup
	for w := 0; w < wireWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One resilient client per worker: redials after injected
			// resets, resubmits only provably-unsent requests.
			rc := wire.NewResilient(wireProxy, wire.ResilientOptions{
				DialTimeout: 2 * time.Second,
				Client:      wire.ClientOptions{RequestTimeout: 2 * time.Second},
				BackoffBase: 5 * time.Millisecond,
				BackoffMax:  100 * time.Millisecond,
				Seed:        int64(w),
			})
			defer rc.Close()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for i := 0; i < wirePer; i++ {
				issued.Add(1)
				resp, err := rc.Submit(&wire.SubmitReq{
					Items:    []txn.Item{txn.Item(rng.Intn(20)), txn.Item(20 + rng.Intn(10))},
					Compute:  100 * time.Microsecond,
					Deadline: 2 * time.Second,
				})
				answered.Add(1)
				switch {
				case err != nil:
					failed.Add(1)
				case resp.Status == wire.StatusCommitted:
					committed.Add(1)
				}
			}
		}(w)
	}
	for w := 0; w < httpWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 2 * time.Second}
			defer hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(int64(w)*104729 + 1))
			url := "http://" + httpProxy + "/submit"
			for i := 0; i < httpPer; i++ {
				issued.Add(1)
				body, _ := json.Marshal(SubmitRequest{
					Items:    []int{rng.Intn(20), 20 + rng.Intn(10)},
					Compute:  jsonDuration(100 * time.Microsecond),
					Deadline: jsonDuration(2 * time.Second),
				})
				resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
				answered.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				var out SubmitResponse
				if json.NewDecoder(resp.Body).Decode(&out) == nil && out.State == "committed" {
					committed.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()
	select {
	case <-loadDone:
	case <-time.After(120 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("chaos soak wedged: %d/%d answered\n%s",
			answered.Load(), issued.Load(), buf[:n])
	}

	total := int64(wireWorkers*wirePer + httpWorkers*httpPer)
	if issued.Load() != total || answered.Load() != total {
		t.Fatalf("answer accounting broken: issued %d answered %d want %d",
			issued.Load(), answered.Load(), total)
	}
	if committed.Load() == 0 {
		t.Fatalf("nothing committed through chaos: %d failed of %d", failed.Load(), total)
	}
	// Bounded errors: faults sever individual connections, not the
	// service. The plan leaves most connections unfaulted, so a majority
	// of requests must still land.
	if failed.Load() > total*3/4 {
		t.Fatalf("error rate unbounded: %d/%d failed", failed.Load(), total)
	}
	t.Logf("chaos soak: %d committed, %d transport failures of %d", committed.Load(), failed.Load(), total)

	// No-timeout phase: a direct client that abandons nothing, pipelining
	// into the server the chaos just left full of severed connections and
	// wounded transactions. Every request gets its own answer, and every
	// frame the client reads is one somebody waits for — a twice-answered
	// or foreign correlation ID shows up here and nowhere else in-process.
	direct, err := wire.DialOptions(wireAddr, 2*time.Second, wire.ClientOptions{RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	var dwg sync.WaitGroup
	var directAnswers atomic.Int64
	for g := 0; g < 8; g++ {
		dwg.Add(1)
		go func(g int) {
			defer dwg.Done()
			for i := 0; i < 32; i++ {
				if _, err := direct.Submit(&wire.SubmitReq{
					Items:    []txn.Item{txn.Item((g*32 + i) % 30)},
					Compute:  100 * time.Microsecond,
					Deadline: 2 * time.Second,
				}); err == nil {
					directAnswers.Add(1)
				}
			}
		}(g)
	}
	dwg.Wait()
	if got, n := directAnswers.Load(), direct.Unmatched(); got != 8*32 || n != 0 {
		t.Fatalf("no-timeout phase: %d/%d answered, %d unmatched frames", got, 8*32, n)
	}
	direct.Close()

	if err := stop(); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after chaos drain: %d vs baseline %d\n%s", now, baseline, buf[:n])
		}
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
}

// TestShardPanicDegradesNotDead: a supervised shard driver panic turns
// into failed submissions and a degraded-but-200 /healthz; the other
// shards keep serving and drain stays clean.
func TestShardPanicDegradesNotDead(t *testing.T) {
	s, base, stop := startServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 11),
		Shards:    4,
		Supervise: shard.SuperviseOptions{Enabled: true},
	})

	// Healthy and not degraded to start.
	body := getBody(t, base+"/healthz")
	if !strings.HasPrefix(body, "ok") || !strings.Contains(body, "degraded=false") {
		t.Fatalf("healthz before panic: %q", body)
	}

	sv := s.svc
	if err := sv.InjectShardPanic(2, "server chaos"); err != nil {
		t.Fatalf("InjectShardPanic: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sv.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("panic never degraded the service")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /healthz: still 200, still "ok"-prefixed, now degraded.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after contained panic, want 200 (%s)", resp.StatusCode, b)
	}
	if !strings.HasPrefix(string(b), "ok") || !strings.Contains(string(b), "degraded=true") {
		t.Fatalf("healthz body %q, want ok + degraded=true", b)
	}

	// /metrics reports the supervision snapshot.
	var m MetricsResponse
	if err := json.Unmarshal([]byte(getBody(t, base+"/metrics")), &m); err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || m.Supervision == nil || m.Supervision.Failures != 1 {
		t.Fatalf("metrics %+v, want degraded with 1 supervision failure", m)
	}

	// Shards 0, 1, 3 still commit (single-item submissions route direct).
	for _, item := range []int{0, 1, 3} {
		code, out := postSubmit(t, base, SubmitRequest{
			Items:    []int{item},
			Compute:  jsonDuration(time.Millisecond),
			Deadline: jsonDuration(2 * time.Second),
		})
		if code != http.StatusOK || out.State != "committed" {
			t.Fatalf("item %d after shard-2 death: %d %+v", item, code, out)
		}
	}
	// The dead shard's traffic gets an error response, not a hang.
	code, _ := postSubmit(t, base, SubmitRequest{
		Items:    []int{2},
		Compute:  jsonDuration(time.Millisecond),
		Deadline: jsonDuration(2 * time.Second),
	})
	if code == http.StatusOK {
		t.Fatalf("dead shard answered %d, want an error status", code)
	}

	if err := stop(); err != nil {
		t.Fatalf("drain with a dead shard: %v", err)
	}
}

// TestSupervisedRestartServesAgain: with restart enabled the panicked
// shard comes back and its item range commits again, end to end over
// HTTP.
func TestSupervisedRestartServesAgain(t *testing.T) {
	s, base, _ := startServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 12),
		Shards:    2,
		Supervise: shard.SuperviseOptions{Enabled: true, Restart: true},
	})
	sv := s.svc
	if err := sv.InjectShardPanic(1, "restart"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, out := postSubmit(t, base, SubmitRequest{
			Items:    []int{1},
			Compute:  jsonDuration(time.Millisecond),
			Deadline: jsonDuration(2 * time.Second),
		})
		if code == http.StatusOK && out.State == "committed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard never served again: %d %+v (%+v)",
				code, out, sv.SupervisionStats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := sv.SupervisionStats(); st.Restarts < 1 {
		t.Fatalf("supervision stats %+v, want >= 1 restart", st)
	}
	if !sv.Degraded() {
		t.Fatal("degraded flag cleared by restart; must stay sticky")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
