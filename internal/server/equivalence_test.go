package server

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/wire"
)

// equivCorpus is a protocol-shape corpus: every optional field present
// and absent, sub-millisecond durations (where a ms/ns unit confusion in
// the codec would show), reads/IO bitmaps crossing the 8-item byte
// boundary.
func equivCorpus() []core.ServiceRequest {
	return []core.ServiceRequest{
		{Items: []txn.Item{1, 2}, Compute: time.Millisecond, Deadline: time.Second},
		{Items: []txn.Item{7}, Reads: []bool{true}, Compute: 250 * time.Microsecond,
			Deadline: 40 * time.Millisecond, Criticality: 2, Class: 1},
		{Items: []txn.Item{0, 3, 6, 9, 12, 15, 18, 21, 24},
			Reads:   []bool{true, false, true, false, true, false, true, false, true},
			NeedsIO: []bool{false, true, false, true, false, true, false, true, false},
			Compute: 1500 * time.Nanosecond, Deadline: 2 * time.Second},
		{Items: []txn.Item{29}, Compute: 3 * time.Millisecond, Deadline: time.Minute, Class: 3},
	}
}

// decodeBinaryPath mirrors the wire connection's decode step.
func decodeBinaryPath(t *testing.T, req core.ServiceRequest) core.ServiceRequest {
	t.Helper()
	wreq := wire.SubmitReq{
		Items: req.Items, Reads: req.Reads, NeedsIO: req.NeedsIO,
		Compute: req.Compute, Deadline: req.Deadline,
		Criticality: req.Criticality, Class: req.Class,
	}
	frame := wire.AppendSubmit(nil, 1, &wreq)
	fr := wire.NewFrameReader(bytes.NewReader(frame), 0)
	_, payload, err := fr.Next()
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	var dec wire.SubmitReq
	if err := wire.DecodeSubmit(payload, &dec); err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	out := core.ServiceRequest{
		Items:       append([]txn.Item(nil), dec.Items...),
		Compute:     dec.Compute,
		Deadline:    dec.Deadline,
		Criticality: dec.Criticality,
		Class:       dec.Class,
	}
	if dec.Reads != nil {
		out.Reads = append([]bool(nil), dec.Reads...)
	}
	if dec.NeedsIO != nil {
		out.NeedsIO = append([]bool(nil), dec.NeedsIO...)
	}
	return out
}

// TestProtocolEquivalence proves the wire protocol is the service itself:
// each corpus request decodes through the binary path to the identical
// core.ServiceRequest, and feeding the submitted stream and the decoded one
// to identical engines (same seed, same config, virtual time driven by
// sequential submission) produces identical terminal outcomes and
// identical final engine counters.
func TestProtocolEquivalence(t *testing.T) {
	corpus := equivCorpus()
	viaBin := make([]core.ServiceRequest, len(corpus))
	for i, req := range corpus {
		viaBin[i] = decodeBinaryPath(t, req)
		if !reflect.DeepEqual(corpus[i], viaBin[i]) {
			t.Fatalf("request %d decodes differently:\n submitted %+v\n binary    %+v",
				i, corpus[i], viaBin[i])
		}
	}

	run := func(reqs []core.ServiceRequest) ([]core.ServiceOutcome, core.ServiceStats) {
		// Disk config: the corpus exercises NeedsIO, which a
		// main-memory-resident service rejects.
		svc, err := core.NewService(core.DiskConfig(core.CCA, 99), core.ServiceOptions{Speed: 5000})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- svc.Run(ctx) }()
		outs := make([]core.ServiceOutcome, len(reqs))
		for i, req := range reqs {
			o, err := svc.Submit(ctx, req)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			outs[i] = o
		}
		st, ok := svc.Stats()
		if !ok {
			t.Fatal("stats unavailable")
		}
		cancel()
		<-done
		return outs, st
	}

	outDirect, stDirect := run(corpus)
	outBin, stBin := run(viaBin)
	for i := range outDirect {
		// Sequential submission makes states and restart counts
		// deterministic; absolute times are wall-driven and may differ.
		if outDirect[i].State != outBin[i].State ||
			outDirect[i].Restarts != outBin[i].Restarts {
			t.Errorf("outcome %d diverged:\n direct %+v\n binary %+v",
				i, outDirect[i], outBin[i])
		}
	}
	if stDirect.Result.Committed != stBin.Result.Committed ||
		stDirect.Result.Dropped != stBin.Result.Dropped {
		t.Fatalf("engine counters diverged:\n direct %+v\n binary %+v",
			stDirect.Result, stBin.Result)
	}
	if stDirect.Result.Committed != len(corpus) {
		t.Fatalf("committed %d, want the whole corpus (%d)", stDirect.Result.Committed, len(corpus))
	}
}
