package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSoakOverload drives the server well past saturation with a bursty
// client and checks the graceful-degradation contract end to end:
//
//   - shed requests (engine admission or inflight bound) answer fast —
//     overload must not turn into queueing delay for the shed traffic;
//   - admitted requests keep a bounded p99 response — the engine never
//     builds an unbounded backlog because infeasible work is refused;
//   - after drain the process has no leaked goroutines — every handler,
//     driver and helper wound down.
//
// The test runs under -race in CI.
func TestSoakOverload(t *testing.T) {
	baseline := runtime.NumGoroutine()

	cfg := core.MainMemoryConfig(core.CCA, 42)
	cfg.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
	opts := Options{
		Core: cfg,
		// Speed 50 fixes the wall-clock service time of a transaction
		// (2 items × 2 sim-ms = 80µs wall) independent of machine speed,
		// so 24 tight-loop workers always outrun the engine's capacity and
		// the run reliably saturates — with or without the race detector.
		Service:      core.ServiceOptions{Speed: 50},
		MaxInflight:  32,
		DrainTimeout: 2 * time.Second,
	}
	_, base, stop := startServer(t, opts)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()

	const (
		workers   = 24
		perWorker = 50
	)
	var (
		committed atomic.Int64
		shed      atomic.Int64 // 503 with Retry-After (capacity or admission)
		other     atomic.Int64

		mu       sync.Mutex
		okLatMs  []float64
		badLatMs []float64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				// Bursty: a clump of back-to-back requests, then a lull.
				if i%10 == 0 {
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
				first := rng.Intn(30)
				req := SubmitRequest{
					Items: []int{first, (first + 1 + rng.Intn(29)) % 30},
					// 2 sim-ms per item on one CPU, 20 sim-ms deadline:
					// at most ~5 transactions fit the deadline, so 24
					// concurrent workers guarantee admission shedding.
					Compute:  jsonDuration(2 * time.Millisecond),
					Deadline: jsonDuration(20 * time.Millisecond),
				}
				body, _ := json.Marshal(req)
				start := time.Now()
				resp, err := client.Post(base+"/submit", "application/json", bytes.NewReader(body))
				lat := float64(time.Since(start)) / float64(time.Millisecond)
				if err != nil {
					t.Errorf("worker %d: POST: %v", w, err)
					return
				}
				var out SubmitResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if decErr != nil {
					t.Errorf("worker %d: decode: %v", w, decErr)
					return
				}
				switch {
				case resp.StatusCode == http.StatusOK && out.State == "committed":
					committed.Add(1)
					mu.Lock()
					okLatMs = append(okLatMs, lat)
					mu.Unlock()
				case resp.StatusCode == http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("worker %d: 503 without Retry-After (state %q)", w, out.State)
						return
					}
					shed.Add(1)
					mu.Lock()
					badLatMs = append(badLatMs, lat)
					mu.Unlock()
				default:
					other.Add(1)
					t.Errorf("worker %d: unexpected status %d state %q", w, resp.StatusCode, out.State)
					return
				}
			}
		}()
	}
	wg.Wait()

	if t.Failed() {
		return
	}
	// The run must have actually saturated: both committed and shed
	// traffic in meaningful volume.
	if c := committed.Load(); c < 50 {
		t.Fatalf("only %d commits; the soak never made progress", c)
	}
	if s := shed.Load(); s < 50 {
		t.Fatalf("only %d shed responses; the soak never saturated", s)
	}

	p99 := func(ms []float64) float64 {
		sort.Float64s(ms)
		return ms[len(ms)*99/100]
	}
	mu.Lock()
	okP99, shedP99 := p99(okLatMs), p99(badLatMs)
	mu.Unlock()
	// Bounds are generous (race detector, loaded CI machines): what they
	// rule out is unbounded queueing, where overload pushes latencies
	// toward the test's own lifetime.
	if shedP99 > 2000 {
		t.Fatalf("shed p99 %.1fms; shedding must answer fast under overload", shedP99)
	}
	if okP99 > 5000 {
		t.Fatalf("admitted p99 %.1fms; admitted work queued without bound", okP99)
	}
	t.Logf("soak: %d committed (p99 %.1fms), %d shed (p99 %.1fms)",
		committed.Load(), okP99, shed.Load(), shedP99)

	// Graceful drain, then the goroutine-leak check: everything the server
	// started must wind down. The runtime needs a moment to retire
	// finished goroutines, so poll with a deadline instead of asserting
	// once. A small slack absorbs runtime helpers (GC workers, the race
	// runtime) that come and go.
	if err := stop(); err != nil {
		t.Fatalf("Serve returned %v on drain", err)
	}
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d now vs %d at start\n%s", now, baseline, buf[:n])
		}
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
	}
}
