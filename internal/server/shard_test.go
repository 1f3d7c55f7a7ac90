package server

// The server over a sharded service: routing is invisible to clients —
// single-shard and cross-shard submissions commit over plain /submit, and
// /metrics reports the shards merged into one system-wide snapshot.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

func TestServerShardedSubmitAndMetrics(t *testing.T) {
	cfg := core.MainMemoryConfig(core.CCA, 1)
	cfg.Workload.DBSize = 1000
	_, base, _ := startServer(t, Options{
		Core:   cfg,
		Shards: 4,
		Epoch:  10 * time.Millisecond,
	})

	// Single-shard: items 3, 7 both live on shard 3.
	code, out := postSubmit(t, base, SubmitRequest{
		Items:    []int{3, 7},
		Compute:  jsonDuration(time.Millisecond),
		Deadline: jsonDuration(2 * time.Second),
	})
	if code != http.StatusOK || out.State != "committed" {
		t.Fatalf("single-shard submit: status %d, %+v", code, out)
	}

	// Cross-shard: items on shards 0 and 1, epoch-batched.
	code, out = postSubmit(t, base, SubmitRequest{
		Items:    []int{4, 5},
		Compute:  jsonDuration(time.Millisecond),
		Deadline: jsonDuration(5 * time.Second),
	})
	if code != http.StatusOK || out.State != "committed" {
		t.Fatalf("cross-shard submit: status %d, %+v", code, out)
	}

	// /metrics merges the shards: 1 single-shard commit + 2 cross parts.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m struct {
		Engine struct {
			Committed int `json:"committed"`
		} `json:"engine"`
		Live int `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if m.Engine.Committed != 3 {
		t.Fatalf("merged Committed = %d, want 3 (1 direct + 2 cross parts)", m.Engine.Committed)
	}
}

// TestOneServingPath: there is one service type behind the server, so the
// option sets that used to pick between core.Service and shard.Service —
// Shards 0, Shards 1, and supervision without a shard count — serve the
// same traffic the same way on both front-ends, and /metrics differs only
// in the supervision block, which appears exactly when supervision is on.
func TestOneServingPath(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"shards 0", Options{}},
		{"shards 1", Options{Shards: 1}},
		{"supervised, shards 0", Options{Supervise: shard.SuperviseOptions{Enabled: true}}},
	}
	var first string
	for _, v := range variants {
		v.opts.Core = core.MainMemoryConfig(core.CCA, 31)
		s, base, wireAddr, _ := startDualServer(t, v.opts)
		if n := s.svc.Shards(); n != 1 {
			t.Fatalf("%s: built %d shards, want 1", v.name, n)
		}
		var seen []string
		note := func(format string, args ...any) { seen = append(seen, fmt.Sprintf(format, args...)) }

		code, out := postSubmit(t, base, SubmitRequest{
			Items: []int{1, 2, 3}, Compute: jsonDuration(time.Millisecond), Deadline: jsonDuration(10 * time.Second),
		})
		note("http submit: %d %s missed=%v", code, out.State, out.Missed)
		code, _ = postSubmit(t, base, SubmitRequest{
			Items: []int{10_000}, Compute: jsonDuration(time.Millisecond), Deadline: jsonDuration(time.Second),
		})
		note("http out of range: %d", code)

		c, err := wire.Dial(wireAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Submit(&wire.SubmitReq{Items: itemSeq(4, 5), Compute: time.Millisecond, Deadline: 10 * time.Second})
		note("wire submit: status %d missed=%v err %v", resp.Status, resp.Missed, err)
		resp, err = c.Submit(&wire.SubmitReq{Items: itemSeq(10_000), Compute: 1, Deadline: time.Second})
		note("wire out of range: status %d err %v", resp.Status, err)
		hr, err := c.Health()
		note("wire health: healthy=%v draining=%v err %v", hr.Healthy, hr.Draining, err)
		if n := c.Unmatched(); n != 0 {
			t.Errorf("%s: wire client read %d frames nobody was waiting for", v.name, n)
		}
		c.Close()

		note("healthz: %s", getBody(t, base+"/healthz"))

		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(getBody(t, base+"/metrics")), &m); err != nil {
			t.Fatalf("%s: /metrics: %v", v.name, err)
		}
		if _, has := m["supervision"]; has != v.opts.Supervise.Enabled {
			t.Errorf("%s: /metrics supervision block present = %v, want %v", v.name, has, v.opts.Supervise.Enabled)
		}
		delete(m, "supervision")
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var engine struct {
			Committed int `json:"committed"`
		}
		if err := json.Unmarshal(m["engine"], &engine); err != nil {
			t.Fatalf("%s: /metrics engine: %v", v.name, err)
		}
		note("metrics: keys %v committed=%d accepted=%s bad=%s degraded=%s",
			keys, engine.Committed, m["http_accepted"], m["http_bad_requests"], m["degraded"])

		got := strings.Join(seen, "\n")
		if !strings.Contains(got, "http submit: 200 committed missed=false") ||
			!strings.Contains(got, fmt.Sprintf("wire submit: status %d missed=false", wire.StatusCommitted)) ||
			!strings.Contains(got, "committed=2 accepted=2 bad=2") {
			t.Errorf("%s did not serve the traffic:\n%s", v.name, got)
		}
		if first == "" {
			first = got
		} else if got != first {
			t.Errorf("%s served differently from %s:\n%s\n--- vs ---\n%s", v.name, variants[0].name, got, first)
		}
	}
}
