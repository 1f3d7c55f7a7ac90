package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAblationPredictEndToEnd drives the conflict-prediction ablation the
// way rtexp would — a shrunken grid, all four variants (EDF-HP, CCA,
// CCA-P, CCA-T), rendered tables — and proves it checkpoint/resumes bit
// identically: a sweep killed partway and resumed must aggregate exactly
// like an uninterrupted one.
func TestAblationPredictEndToEnd(t *testing.T) {
	def, ok := ByID("ablation-predict")
	if !ok {
		t.Fatal("ablation-predict not registered")
	}
	names := make([]string, len(def.Variants))
	for i, v := range def.Variants {
		names[i] = v.name
	}
	if got := strings.Join(names, ","); got != "EDF-HP,CCA,CCA-P,CCA-T" {
		t.Fatalf("variants = %s", got)
	}
	def.Xs = []float64{10} // shrink the grid for the test
	opt := Options{Seeds: 2, Count: 120}

	want, err := Run(context.Background(), def, opt)
	if err != nil {
		t.Fatal(err)
	}
	tables := want.Tables()
	if len(tables) == 0 {
		t.Fatal("no tables rendered")
	}
	for _, tb := range tables {
		txt := tb.Text()
		if !strings.Contains(txt, "CCA-P") || !strings.Contains(txt, "CCA-T") {
			t.Fatalf("rendered table misses prediction variants:\n%s", txt)
		}
	}

	// Kill after a few runs, then resume against the same checkpoint.
	path := filepath.Join(t.TempDir(), "predict.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	killOpt := opt
	killOpt.Workers = 1
	killOpt.CheckpointPath = path
	killOpt.Progress = func(done, total int) {
		if done >= 3 {
			cancel()
		}
	}
	if _, err := Run(ctx, def, killOpt); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep returned %v, want context.Canceled", err)
	}
	resumeOpt := opt
	resumeOpt.CheckpointPath = path
	resumeOpt.Resume = true
	got, err := Run(context.Background(), def, resumeOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Agg, got.Agg) {
		t.Fatal("resumed ablation-predict aggregates differ from uninterrupted sweep")
	}
}
