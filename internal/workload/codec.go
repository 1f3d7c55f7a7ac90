package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/txn"
)

// jsonWorkload is the serialised form. Durations are nanoseconds (Go's
// native time.Duration encoding) so round-trips are exact.
type jsonWorkload struct {
	Params Params     `json:"params"`
	Types  []jsonType `json:"types"`
	Txns   []jsonSpec `json:"txns"`
}

type jsonType struct {
	ID      int           `json:"id"`
	Items   []int         `json:"items"`
	Compute time.Duration `json:"compute_ns"`
	Class   int           `json:"class,omitempty"`
}

type jsonSpec struct {
	ID          int           `json:"id"`
	Type        int           `json:"type"`
	Arrival     time.Duration `json:"arrival_ns"`
	Deadline    time.Duration `json:"deadline_ns"`
	Items       []int         `json:"items"`
	Compute     time.Duration `json:"compute_ns"`
	NeedsIO     []bool        `json:"needs_io,omitempty"`
	Reads       []bool        `json:"reads,omitempty"`
	Criticality int           `json:"criticality,omitempty"`
	Class       int           `json:"class,omitempty"`
	MightFull   []int         `json:"might_full,omitempty"`
	DecisionIdx int           `json:"decision_index,omitempty"`
}

func itemsToInts(items []txn.Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = int(it)
	}
	return out
}

func intsToItems(ints []int) []txn.Item {
	out := make([]txn.Item, len(ints))
	for i, v := range ints {
		out[i] = txn.Item(v)
	}
	return out
}

// WriteJSON serialises the workload (params, types and instances) so a run
// can be archived and replayed — including across policies, which is how
// the reproduction guarantees both sides of a comparison see identical
// inputs.
func (w *Workload) WriteJSON(out io.Writer) error {
	jw := jsonWorkload{Params: w.Params}
	for _, t := range w.Types {
		jw.Types = append(jw.Types, jsonType{ID: t.ID, Items: itemsToInts(t.Items), Compute: t.Compute, Class: t.Class})
	}
	for i := range w.Txns {
		s := &w.Txns[i]
		jw.Txns = append(jw.Txns, jsonSpec{
			ID: s.ID, Type: s.Type, Arrival: s.Arrival, Deadline: s.Deadline,
			Items: itemsToInts(s.Items), Compute: s.Compute,
			NeedsIO: s.NeedsIO, Reads: s.Reads, Criticality: s.Criticality, Class: s.Class,
			MightFull: itemsToInts(s.MightFull), DecisionIdx: s.DecisionIndex,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(jw)
}

// ReadJSON deserialises and validates a workload written by WriteJSON.
func ReadJSON(in io.Reader) (*Workload, error) {
	var jw jsonWorkload
	if err := json.NewDecoder(in).Decode(&jw); err != nil {
		return nil, fmt.Errorf("workload: decoding: %w", err)
	}
	w := &Workload{Params: jw.Params}
	for _, t := range jw.Types {
		w.Types = append(w.Types, Type{ID: t.ID, Items: intsToItems(t.Items), Compute: t.Compute, Class: t.Class})
	}
	for _, s := range jw.Txns {
		w.Txns = append(w.Txns, Spec{
			ID: s.ID, Type: s.Type, Arrival: s.Arrival, Deadline: s.Deadline,
			Items: intsToItems(s.Items), Compute: s.Compute,
			NeedsIO: s.NeedsIO, Reads: s.Reads, Criticality: s.Criticality, Class: s.Class,
			MightFull: intsToItems(s.MightFull), DecisionIndex: s.DecisionIdx,
		})
	}
	if err := w.Check(); err != nil {
		return nil, err
	}
	return w, nil
}

// Check validates the structural invariants a replayable workload must
// satisfy: dense IDs in arrival order, at least one item per transaction,
// items within the database and none repeated, deadlines after arrival.
func (w *Workload) Check() error {
	if len(w.Txns) == 0 {
		return fmt.Errorf("workload: no transactions")
	}
	if w.Params.DBSize <= 0 {
		return fmt.Errorf("workload: DBSize %d <= 0", w.Params.DBSize)
	}
	var prev time.Duration = -1
	for i := range w.Txns {
		s := &w.Txns[i]
		if s.ID != i {
			return fmt.Errorf("workload: transaction %d has ID %d", i, s.ID)
		}
		if len(s.Items) == 0 {
			return fmt.Errorf("workload: transaction %d has no items", i)
		}
		if s.Compute <= 0 {
			return fmt.Errorf("workload: transaction %d has compute %v", i, s.Compute)
		}
		for _, it := range s.Items {
			if int(it) < 0 || int(it) >= w.Params.DBSize {
				return fmt.Errorf("workload: transaction %d item %d outside [0,%d)", i, it, w.Params.DBSize)
			}
		}
		if txn.NewSet(s.Items...).Len() != len(s.Items) {
			return fmt.Errorf("workload: transaction %d names an item twice", i)
		}
		if len(s.NeedsIO) != 0 && len(s.NeedsIO) != len(s.Items) {
			return fmt.Errorf("workload: transaction %d NeedsIO length %d != %d items", i, len(s.NeedsIO), len(s.Items))
		}
		if len(s.Reads) != 0 && len(s.Reads) != len(s.Items) {
			return fmt.Errorf("workload: transaction %d Reads length %d != %d items", i, len(s.Reads), len(s.Items))
		}
		if len(s.MightFull) > 0 {
			full := txn.NewSet(s.MightFull...)
			for _, it := range s.Items {
				if !full.Contains(it) {
					return fmt.Errorf("workload: transaction %d executes item %d outside its might-set", i, it)
				}
			}
			if s.DecisionIndex < 0 || s.DecisionIndex >= len(s.Items) {
				return fmt.Errorf("workload: transaction %d decision index %d out of range", i, s.DecisionIndex)
			}
		}
		if s.Arrival < prev {
			return fmt.Errorf("workload: transaction %d arrives before its predecessor", i)
		}
		if s.Deadline <= s.Arrival {
			return fmt.Errorf("workload: transaction %d deadline %v not after arrival %v", i, s.Deadline, s.Arrival)
		}
		prev = s.Arrival
	}
	return nil
}

// Describe summarises the workload for human inspection.
func (w *Workload) Describe() string {
	var updates, res float64
	ios := 0
	for i := range w.Txns {
		s := &w.Txns[i]
		updates += float64(len(s.Items))
		res += float64(s.ResourceTime(w.Params.DiskAccessTime)) / float64(time.Second)
		for _, io := range s.NeedsIO {
			if io {
				ios++
			}
		}
	}
	n := float64(len(w.Txns))
	span := w.Txns[len(w.Txns)-1].Arrival - w.Txns[0].Arrival
	rate := 0.0
	if span > 0 {
		rate = (n - 1) / (float64(span) / float64(time.Second))
	}
	return fmt.Sprintf(
		"transactions: %d  types: %d  db: %d objects\n"+
			"mean updates/txn: %.1f  mean resource time: %.1f ms  disk accesses: %d\n"+
			"observed arrival rate: %.2f tr/s  offered CPU load: %.2f\n",
		len(w.Txns), len(w.Types), w.Params.DBSize,
		updates/n, res/n*1000, ios,
		rate, rate*res/n)
}
