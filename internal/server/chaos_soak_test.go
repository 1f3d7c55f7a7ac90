package server

import (
	"encoding/json"
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

// TestChaosSoak is the capstone: rtload-shaped traffic through a
// fault-injecting proxy, under -race in CI, beside status-port probes
// through a proxy of their own. The contract it enforces:
//
//   - every submission gets exactly one terminal answer — an outcome or
//     an error, never a hang, never a double answer (each worker counts
//     its answers and the totals must match the issues);
//   - error rates stay bounded: chaos severs connections, but the
//     surviving ones keep committing — a fault schedule must degrade
//     throughput, not correctness;
//   - after drain the process has no leaked goroutines: the proxies, the
//     wire front-end, the status port, the resilient clients and the
//     engine all wind down.
func TestChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := core.MainMemoryConfig(core.CCA, 42)
	cfg.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
	_, statusBase, wireAddr, stop := startServer(t, Options{
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
	statusProxy := startChaosProxy(t, strings.TrimPrefix(statusBase, "http://"), 8, plan)

	const (
		wireWorkers  = 10
		wirePer      = 34
		probeWorkers = 2
		probePer     = 25
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
	// Status probes through chaos: every probe ends, answered or failed,
	// and an answer that arrives whole is a metrics document.
	var probesOK atomic.Int64
	for w := 0; w < probeWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{Timeout: 2 * time.Second}
			defer hc.CloseIdleConnections()
			for i := 0; i < probePer; i++ {
				resp, err := hc.Get("http://" + statusProxy + "/metrics")
				if err != nil {
					continue
				}
				var m metricsResponse
				if json.NewDecoder(resp.Body).Decode(&m) == nil && resp.StatusCode == http.StatusOK {
					probesOK.Add(1)
				}
				resp.Body.Close()
			}
		}()
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

	total := int64(wireWorkers * wirePer)
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
	t.Logf("chaos soak: %d committed, %d transport failures of %d; %d of %d status probes answered",
		committed.Load(), failed.Load(), total, probesOK.Load(), probeWorkers*probePer)

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
	s, base, wireAddr, stop := startServer(t, Options{
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
	code, b := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz %d after contained panic, want 200 (%s)", code, b)
	}
	if !strings.HasPrefix(b, "ok") || !strings.Contains(b, "degraded=true") {
		t.Fatalf("healthz body %q, want ok + degraded=true", b)
	}

	// /metrics reports the supervision snapshot.
	var m metricsResponse
	if err := json.Unmarshal([]byte(getBody(t, base+"/metrics")), &m); err != nil {
		t.Fatal(err)
	}
	if !m.Degraded || m.Supervision == nil || m.Supervision.Failures != 1 {
		t.Fatalf("metrics %+v, want degraded with 1 supervision failure", m)
	}

	// Shards 0, 1, 3 still commit (single-item submissions route direct).
	c := dial(t, wireAddr)
	for _, item := range []int{0, 1, 3} {
		out := submit(t, c, core.ServiceRequest{Items: itemSeq(item), Compute: time.Millisecond, Deadline: 2 * time.Second})
		if out.Status != wire.StatusCommitted {
			t.Fatalf("item %d after shard-2 death: %+v", item, out)
		}
	}
	// The dead shard's traffic gets an error answer, not a hang.
	if out := submit(t, c, core.ServiceRequest{Items: itemSeq(2), Compute: time.Millisecond, Deadline: 2 * time.Second}); out.Status == wire.StatusCommitted {
		t.Fatalf("dead shard answered %+v, want an error status", out)
	}

	if err := stop(); err != nil {
		t.Fatalf("drain with a dead shard: %v", err)
	}
}

// TestSupervisedRestartServesAgain: with restart enabled the panicked
// shard comes back and its item range commits again, end to end over the
// wire.
func TestSupervisedRestartServesAgain(t *testing.T) {
	s, _, wireAddr, _ := startServer(t, Options{
		Core:      core.MainMemoryConfig(core.CCA, 12),
		Shards:    2,
		Supervise: shard.SuperviseOptions{Enabled: true, Restart: true},
	})
	sv := s.svc
	if err := sv.InjectShardPanic(1, "restart"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, wireAddr)
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := submit(t, c, core.ServiceRequest{Items: itemSeq(1), Compute: time.Millisecond, Deadline: 2 * time.Second})
		if out.Status == wire.StatusCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard never served again: %+v (%+v)", out, sv.SupervisionStats())
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
