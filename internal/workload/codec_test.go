package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/txn"
)

func TestJSONRoundTrip(t *testing.T) {
	p := BaseDisk()
	p.Count = 40
	p.ReadFraction = 0.3
	p.CriticalityLevels = 2
	w := MustGenerate(p, 9)

	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Txns) != len(w.Txns) || len(got.Types) != len(w.Types) {
		t.Fatal("lengths differ after round trip")
	}
	for i := range w.Txns {
		a, b := w.Txns[i], got.Txns[i]
		if a.Arrival != b.Arrival || a.Deadline != b.Deadline || a.Type != b.Type ||
			a.Compute != b.Compute || a.Criticality != b.Criticality {
			t.Fatalf("txn %d scalar fields differ", i)
		}
		for j := range a.Items {
			if a.Items[j] != b.Items[j] {
				t.Fatalf("txn %d item %d differs", i, j)
			}
		}
		for j := range a.NeedsIO {
			if a.NeedsIO[j] != b.NeedsIO[j] || a.Reads[j] != b.Reads[j] {
				t.Fatalf("txn %d flags differ", i)
			}
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"params":{},"txns":[]}`)); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func brokenWorkload(mutate func(*Workload)) *Workload {
	p := BaseMainMemory()
	p.Count = 3
	w := MustGenerate(p, 1)
	mutate(w)
	return w
}

func TestCheckCatchesCorruption(t *testing.T) {
	cases := map[string]func(*Workload){
		"bad id":            func(w *Workload) { w.Txns[1].ID = 7 },
		"no items":          func(w *Workload) { w.Txns[0].Items = nil },
		"zero compute":      func(w *Workload) { w.Txns[0].Compute = 0 },
		"item out of range": func(w *Workload) { w.Txns[0].Items = []txn.Item{99} },
		"unsorted arrivals": func(w *Workload) { w.Txns[2].Arrival = 0; w.Txns[1].Arrival = time.Hour },
		"deadline<=arrival": func(w *Workload) { w.Txns[0].Deadline = w.Txns[0].Arrival },
		"zero dbsize":       func(w *Workload) { w.Params.DBSize = 0 },
		"needsio mismatch":  func(w *Workload) { w.Txns[0].NeedsIO = []bool{true} },
		"item twice": func(w *Workload) {
			w.Txns[0].Items = []txn.Item{4, 4}
			w.Txns[0].NeedsIO, w.Txns[0].Reads, w.Txns[0].MightFull = nil, nil, nil
		},
	}
	for name, mutate := range cases {
		w := brokenWorkload(mutate)
		if err := w.check(); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestDescribe(t *testing.T) {
	p := BaseDisk()
	p.Count = 50
	w := MustGenerate(p, 3)
	d := w.Describe()
	for _, want := range []string{"transactions: 50", "types: 50", "db: 30", "disk accesses"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}
