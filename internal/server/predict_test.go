package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMetricsPredictSnapshot: under a conflict-prediction policy /metrics
// carries the predict block (current w, tuner step count, per-pair
// conflict rates); under stock CCA the field is absent.
func TestMetricsPredictSnapshot(t *testing.T) {
	cfg := core.MainMemoryConfig(core.CCAT, 1)
	cfg.Predict = core.DefaultPredictConfig()
	_, base, _ := startServer(t, Options{Core: cfg})

	code, out := postSubmit(t, base, submitRequest{
		Items:    []int{1, 2, 3},
		Compute:  jsonDuration(time.Millisecond),
		Deadline: jsonDuration(500 * time.Millisecond),
	})
	if code != http.StatusOK || out.State != "committed" {
		t.Fatalf("submit under cca-t: status %d, outcome %+v", code, out)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m struct {
		Predict *struct {
			Policy     string          `json:"policy"`
			W          float64         `json:"w"`
			TunerSteps int             `json:"tuner_steps"`
			TopPairs   json.RawMessage `json:"top_pairs"`
		} `json:"predict"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if m.Predict == nil {
		t.Fatal("/metrics under cca-t has no predict block")
	}
	if m.Predict.Policy != string(core.CCAT) {
		t.Fatalf("predict.policy = %q, want %q", m.Predict.Policy, core.CCAT)
	}
	if m.Predict.W <= 0 {
		t.Fatalf("predict.w = %v, want the live penalty weight", m.Predict.W)
	}

	// Stock CCA: no predict block.
	_, base2, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 1)})
	resp2, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if _, ok := raw["predict"]; ok {
		t.Fatal("/metrics under stock CCA carries a predict block")
	}
}
