package server

// Retry-After derivation: a 503's Retry-After header must track the
// admission state — "1" on an idle service, the estimated drain time of
// the live backlog when loaded — instead of the old hardcoded "1".

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRetryAfterTracksLoad(t *testing.T) {
	// Slow service: at Speed 0.001, one 10ms-compute transaction occupies
	// the engine for ~10s of wall time, so the live set persists while we
	// probe. MaxInflight 1 makes the second submission shed.
	opts := Options{
		Core:        core.MainMemoryConfig(core.CCA, 1),
		MaxInflight: 1,
	}
	opts.Service.Speed = 0.001
	s, base, _ := startServer(t, opts)

	// Idle: no live transactions → shed (from capacity) says retry in 1s.
	if got := s.retryAfterSecs(); got != 1 {
		t.Fatalf("idle retryAfterSecs = %d, want 1", got)
	}

	// Occupy the only inflight slot (and the engine) with a long
	// transaction whose client never gives up.
	bg, bgCancel := context.WithCancel(context.Background())
	defer bgCancel()
	launched := make(chan struct{})
	go func() {
		body, _ := json.Marshal(submitRequest{
			Items:    []int{1},
			Compute:  jsonDuration(10 * time.Millisecond),
			Deadline: jsonDuration(time.Hour),
		})
		req, _ := http.NewRequestWithContext(bg, http.MethodPost, base+"/submit", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		close(launched)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-launched

	// Wait until the background submission holds the only inflight slot —
	// a probe before that would be admitted and, at this speed, take ages.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background submission never became inflight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Wait out the stats cache so the estimate sees the live transaction.
	time.Sleep(2 * statsCacheTTL)
	resp, err := http.Post(base+"/submit", "application/json",
		bytes.NewReader(mustJSON(t, submitRequest{
			Items:    []int{2},
			Compute:  jsonDuration(time.Millisecond),
			Deadline: jsonDuration(time.Second),
		})))
	if err != nil {
		t.Fatalf("probe POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe status %d, want 503 (server at capacity)", resp.StatusCode)
	}
	header := resp.Header.Get("Retry-After")
	secs, err := time.ParseDuration(header + "s")
	if err != nil || secs < 2*time.Second {
		t.Fatalf("loaded Retry-After = %q, want >= 2 seconds (live backlog at Speed 0.001)", header)
	}
	// One 20-update × 4ms transaction on one CPU is ~80ms of sim work →
	// 80s of wall time at Speed 0.001, which the clamp caps at 30.
	if secs > 30*time.Second {
		t.Fatalf("Retry-After %v above the 30s clamp", secs)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
