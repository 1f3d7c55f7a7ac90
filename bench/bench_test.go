package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark's as the
// keep-warm process (warm.go).
func TestMain(m *testing.M) {
	if os.Getenv(warmChildEnv) != "" {
		os.Exit(keepWarmChild())
	}
	os.Exit(m.Run())
}

// TestKeepWarm starts the spinner, checks that it runs one SCHED_IDLE
// thread per CPU, and that stop ends it.
func TestKeepWarm(t *testing.T) {
	k, err := startKeepWarm()
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/stat", k.cmd.Process.Pid))
	idle := 0
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		// The fields after the parenthesised command name; policy is
		// field 41 of the line, 39 of these.
		_, rest, _ := strings.Cut(string(b), ") ")
		if f := strings.Fields(rest); len(f) > 38 && f[38] == fmt.Sprint(schedIdle) {
			idle++
		}
	}
	k.stop()
	if k.threads < 1 || idle != k.threads {
		t.Errorf("%d spinner threads announced, %d SCHED_IDLE threads seen", k.threads, idle)
	}
	if st := k.cmd.ProcessState; st == nil || !st.Exited() {
		t.Errorf("spinner did not exit: %v", st)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{
		{0.50, 3}, {0.20, 1}, {0.21, 2}, {0.99, 5}, {1, 5}, {0, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is a number")
	}
}

// TestSettleCensors builds a pending table by hand: an answered request
// contributes its latency from the due time; an unanswered one, one
// answered with another status, and one that timed out contribute the
// censoring value; a request never sent contributes no sample but stays
// in the count of requests due.
func TestSettleCensors(t *testing.T) {
	const ms = int64(time.Millisecond)
	tb := &table{entries: make([]entry, 5), due: []int64{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms}, start: 1000 * ms}
	set := func(i int, state uint32, sentAt, recvAt int64) {
		tb.entries[i].sent.Store(tb.start + sentAt)
		tb.entries[i].recv.Store(tb.start + recvAt)
		tb.entries[i].state.Store(state)
	}
	set(0, stOK, 0, 3*ms)      // due 0, answered at 3 ms: 3 ms
	set(1, stPending, 2*ms, 0) // never answered
	set(2, stBad, 2*ms, 4*ms)  // answered, wrong status
	set(3, stTimedOut, 3*ms, 0)
	tb.sentN.Store(4) // entry 4 was never sent

	r := settle([]*table{tb}, 5*time.Millisecond, 10*time.Millisecond, 1)
	if r.due != 5 || r.sent != 4 || r.ok != 1 || r.unanswered != 2 || r.wrong != 1 {
		t.Fatalf("due %d sent %d ok %d unanswered %d wrong %d", r.due, r.sent, r.ok, r.unanswered, r.wrong)
	}
	want := []float64{3, censoredMs, censoredMs, censoredMs}
	if len(r.lat) != len(want) {
		t.Fatalf("lat = %v, want %v", r.lat, want)
	}
	for i := range want {
		if r.lat[i] != want[i] {
			t.Errorf("lat[%d] = %v, want %v", i, r.lat[i], want[i])
		}
	}
	if got := tb.entries[1].state.Load(); got != stUnanswered {
		t.Errorf("pending entry left in state %d", got)
	}
	if len(r.latByWindow) != 1 || len(r.latByWindow[0]) != 4 {
		t.Errorf("windows: %v", r.latByWindow)
	}
	if r.lag[1] != 1 { // sent at 2 ms, due at 1 ms
		t.Errorf("lag[1] = %v ms, want 1", r.lag[1])
	}
}

func hashOf(w *workloadSpec, seed int64) string {
	streams := []*stream{genStream(w, seed, 0, 0), genStream(w, seed, 1, 0)}
	return streamHash(genParked(w), streams, genSchedule(seed, 1, w.Rate, time.Second, loadConns))
}

func TestStreamDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := hashOf(w, 7), hashOf(w, 7), hashOf(w, 8)
		if a != b {
			t.Errorf("%s: same seed, different stream hash", w.Name)
		}
		if a == c {
			t.Errorf("%s: different seed, same stream hash", w.Name)
		}
	}
}

// TestStreamShape checks what the workloads promise about their items:
// the stream sent to rtserve is shard-aligned, the traced run's mixed
// stream touches both shards in about tracedCrossShare of its requests.
func TestStreamShape(t *testing.T) {
	type variant struct {
		w          *workloadSpec
		crossShare float64
	}
	var variants []variant
	for i := range workloads {
		variants = append(variants, variant{&workloads[i], 0})
		if workloads[i].Shards > 1 {
			variants = append(variants, variant{&workloads[i], tracedCrossShare})
		}
	}
	for _, v := range variants {
		w := v.w
		st := genStream(w, 3, 0, v.crossShare)
		cross := 0
		for k, req := range st.reqs {
			if len(req.Items) != w.Items {
				t.Fatalf("%s: request %d has %d items", w.Name, k, len(req.Items))
			}
			for j, it := range req.Items {
				if int(it) < 0 || int(it) >= w.ItemHi || (int(it) < w.ItemLo && int(it) >= w.HotItems) {
					t.Fatalf("%s: item %d outside the workload's ranges", w.Name, it)
				}
				if j > 0 && req.Items[j-1] >= it {
					t.Fatalf("%s: items %v not strictly ascending", w.Name, req.Items)
				}
			}
			touched := txn.ShardsTouched(req.Items, w.Shards)
			if multi := touched&(touched-1) != 0; multi != st.cross[k] {
				t.Fatalf("%s: request %d items %v: cross flag %v", w.Name, k, req.Items, st.cross[k])
			}
			if st.cross[k] {
				cross++
			}
		}
		if share := float64(cross) / float64(st.n()); share < v.crossShare*0.8 || share > v.crossShare*1.2 {
			t.Errorf("%s: cross share %.3f, want about %.2f", w.Name, share, v.crossShare)
		}
		// The frame ring decodes back to the requests.
		var got wire.SubmitReq
		if err := wire.DecodeSubmit(st.frame(5)[wire.HeaderLen:], &got); err != nil || got.Items[0] != st.reqs[5].Items[0] {
			t.Errorf("%s: frame 5 decodes to %v (%v)", w.Name, got.Items, err)
		}
	}
}

func TestFrameScannerSplitAndCoalesced(t *testing.T) {
	var frames []byte
	var ids []uint64
	for i := 0; i < 5; i++ {
		id := makeID(phaseOpen, 1, i)
		ids = append(ids, id)
		frames = wire.AppendSubmit(frames, id, &wire.SubmitReq{Items: []txn.Item{txn.Item(i), 9}, Compute: 1, Deadline: 1})
	}
	frames = wire.AppendHealthReq(frames, 77) // a frame with no payload
	ids = append(ids, 77)

	check := func(name string, s *frameScanner, calls int) {
		t.Helper()
		if len(s.stamps) != len(ids) || s.calls != calls {
			t.Fatalf("%s: %d stamps in %d calls, want %d in %d", name, len(s.stamps), s.calls, len(ids), calls)
		}
		for i, st := range s.stamps {
			if st.id != ids[i] {
				t.Errorf("%s: stamp %d has id %#x, want %#x", name, i, st.id, ids[i])
			}
		}
	}

	var whole frameScanner
	whole.scan(frames, 42) // every frame in one read
	check("coalesced", &whole, 1)
	if whole.stamps[0].at != 42 {
		t.Errorf("stamp time %d, want the read's 42", whole.stamps[0].at)
	}

	var bytewise frameScanner
	for i := range frames { // every frame split across many reads
		bytewise.scan(frames[i:i+1], int64(i))
	}
	check("split", &bytewise, len(frames))
	if got := bytewise.stamps[len(ids)-1].at; got != int64(len(frames)-1) {
		t.Errorf("last frame stamped at byte %d, want its last byte %d", got, len(frames)-1)
	}

	var odd frameScanner
	for off := 0; off < len(frames); off += 7 { // boundaries inside headers and payloads
		end := off + 7
		if end > len(frames) {
			end = len(frames)
		}
		odd.scan(frames[off:end], 0)
	}
	check("sevens", &odd, (len(frames)+6)/7)
	odd.scan(nil, 0)
	if odd.calls != (len(frames)+6)/7 {
		t.Error("an empty read counted as a call")
	}
}

func TestStampConnStampsBothDirections(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	sc := &stampConn{Conn: b}
	go func() {
		a.Write(wire.AppendHealthReq(nil, 5))
		buf := make([]byte, 64)
		a.Read(buf)
	}()
	fr := wire.NewFrameReader(sc, 0)
	if h, _, err := fr.Next(); err != nil || h.ID != 5 {
		t.Fatalf("read through stampConn: %v %v", h, err)
	}
	if _, err := sc.Write(wire.AppendHealthResp(nil, 5, &wire.HealthResp{Healthy: true})); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if len(sc.in.stamps) != 1 || len(sc.out.stamps) != 1 || sc.in.stamps[0].id != 5 || sc.out.stamps[0].id != 5 {
		t.Fatalf("stamps in %v out %v", sc.in.stamps, sc.out.stamps)
	}
	if sc.out.stamps[0].at < sc.in.stamps[0].at {
		t.Error("response stamped before its request")
	}
}

// TestTimedFSRoundTrip runs the log through the decorator and reads it
// back through a plain filesystem.
func TestTimedFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys, err := wal.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	log, _, err := wal.Open(wal.Options{FS: timedFS{fsys, rec}})
	if err != nil {
		t.Fatal(err)
	}
	durable := make(chan error, 3)
	for i := 0; i < 3; i++ {
		seq, err := log.AppendSubmit(&wal.SubmitRecord{Items: []int32{int32(i)}, Compute: 1, Deadline: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.AppendOutcome(&wal.OutcomeRecord{Seq: seq}, func(err error) { durable <- err }); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := <-durable; err != nil {
			t.Fatal(err)
		}
	}
	submits, outcomes := 0, 0
	scanned, err := wal.Scan(fsys, func(h wal.Header, _ *wal.SubmitRecord, _ *wal.OutcomeRecord) error {
		if h.Type == wal.RecSubmit {
			submits++
		} else {
			outcomes++
		}
		return nil
	})
	if err != nil || submits != 3 || outcomes != 3 || len(scanned.Unresolved) != 0 {
		t.Fatalf("scan: %d submits, %d outcomes, %d unresolved, %v", submits, outcomes, len(scanned.Unresolved), err)
	}
	if len(rec.durations("wal.fsync")) == 0 || rec.bytes("wal.write") == 0 {
		t.Errorf("decorator recorded %d syncs and %d written bytes", len(rec.durations("wal.fsync")), rec.bytes("wal.write"))
	}
}

func writeResult(t *testing.T, dir, name string, f *resultFile) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []metricDecl{
		{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "capacity_tps", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
	}}
	result := func(seed int64, hash string, p50, tps, setup float64, failed int, invalid string) *resultFile {
		return &resultFile{Seed: seed, HostCPUs: 2, ClientProcs: 4, ServerProcs: 2, RunSeconds: 20, Workloads: []*workloadResult{{
			Name: "wire_open", StreamSHA256: hash, Invalid: invalid, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]metricValue{"p50_ms": {p50, "ms"}, "capacity_tps": {tps, "1/s"}, "setup_s": {setup, "s"}},
		}}}
	}
	dir := t.TempDir()
	base := writeResult(t, dir, "base.json", result(1, "aa", 1.0, 1000, 0.005, 0, ""))
	for _, c := range []struct {
		name string
		f    *resultFile
		code int
		say  string
	}{
		{"same", result(1, "aa", 1.05, 950, 0.005, 0, ""), 0, "ok"},
		{"better", result(1, "aa", 0.5, 2000, 0.001, 0, ""), 0, "ok"},
		{"slower", result(1, "aa", 1.2, 1000, 0.005, 0, ""), 1, "REGRESSION"},
		{"lower-capacity", result(1, "aa", 1.0, 800, 0.005, 0, ""), 1, "REGRESSION"},
		{"under-the-floor", result(1, "aa", 1.0, 1000, 0.008, 0, ""), 0, "ok"}, // 60 % worse, 3 ms
		{"over-the-floor", result(1, "aa", 1.0, 1000, 0.3, 0, ""), 1, "REGRESSION"},
		{"more-failures", result(1, "aa", 1.0, 1000, 0.005, 3, ""), 1, "failed"},
		{"other-seed", result(2, "aa", 1.0, 1000, 0.005, 0, ""), 2, "seeds differ"},
		{"other-stream", result(1, "bb", 1.0, 1000, 0.005, 0, ""), 2, "request streams differ"},
		{"invalid", result(1, "aa", 9.0, 1, 0.005, 0, "client.gen_lag_p99_ms 7.00 > 5"), 0, "unresolved"},
	} {
		var out bytes.Buffer
		code := compareFiles(bf, base, writeResult(t, dir, c.name+".json", c.f), &out)
		if code != c.code || !strings.Contains(out.String(), c.say) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.say, out.String())
		}
	}
	shape := result(1, "aa", 1.0, 1000, 0.005, 0, "")
	shape.HostCPUs = 8
	var out bytes.Buffer
	if code := compareFiles(bf, base, writeResult(t, dir, "shape.json", shape), &out); code != 2 {
		t.Errorf("different host shape: exit %d\n%s", code, out.String())
	}
}

// TestQuietestAndAbsentMetrics pins the statistic over windows and
// rounds, and that a metric with no number is left out of a result.
func TestQuietestAndAbsentMetrics(t *testing.T) {
	nan := math.NaN()
	if got := quietest([]float64{9, 1, nan, 3, 7, 5}, false); got != 2 { // the best two of five: 1 3
		t.Errorf("quietest(lower is better) = %v, want 2", got)
	}
	if got := quietest([]float64{9, 1, 3, 7}, true); got != 8 { // 7 9
		t.Errorf("quietest(higher is better) = %v, want 8", got)
	}
	var w24 []float64
	for i := 24; i > 0; i-- {
		w24 = append(w24, float64(i))
	}
	if got := quietest(w24, false); got != 2 { // an eighth of 24 windows: 1 2 3
		t.Errorf("quietest of 24 windows = %v, want 2", got)
	}
	if !math.IsNaN(quietest([]float64{nan}, false)) {
		t.Error("quietest of no numbers is a number")
	}
	bf := &benchmarkFile{PerLayer: []metricDecl{{Name: "a", Unit: "us"}, {Name: "b", Unit: "us"}}}
	got := withUnits(bf, map[string]float64{"a": 1.5, "b": nan})
	if len(got) != 1 || got["a"] != (metricValue{1.5, "us"}) {
		t.Errorf("withUnits = %v, want a alone", got)
	}
}

// layerApplies says whether a per-layer metric is measured on the
// workload: a layer the workload bypasses is absent from its result,
// not zero.
func layerApplies(name string, w *workloadSpec) bool {
	switch {
	case strings.HasPrefix(name, "wal."):
		return w.WAL
	case strings.HasPrefix(name, "shard."):
		return w.Shards > 1
	case strings.HasPrefix(name, "core.txn_us_live"):
		return w.Parked > 0
	}
	return true
}

// TestSmokeAllWorkloads runs every workload end to end with short
// phases and checks that every metric BENCHMARK.json names is emitted
// with its unit, and nothing it does not name.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rtserve")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	env := &environment{root: root, outDir: filepath.Join(root, "bench", "out")}
	if env.bf, err = loadBenchmarkFile(root); err != nil {
		t.Fatal(err)
	}
	if err := env.build(); err != nil {
		t.Fatal(err)
	}
	if len(env.bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(env.bf.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if env.bf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, env.bf.Workloads[i].Name, w.Name)
		}
		check := func(kind string, decls []metricDecl, got map[string]metricValue, applies func(string) bool) {
			named := map[string]bool{}
			for _, d := range decls {
				named[d.Name] = true
				v, ok := got[d.Name]
				switch {
				case !applies(d.Name):
					if ok {
						t.Errorf("%s: %s metric %s reported for a layer the workload bypasses", w.Name, kind, d.Name)
					}
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", w.Name, kind, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
			}
			for name := range got {
				if !named[name] {
					t.Errorf("%s: %s metric %s is not named in BENCHMARK.json", w.Name, kind, name)
				}
			}
		}
		for _, traced := range []bool{false, true} {
			if !traced && i > 0 {
				continue // the same seven from the same code on every workload
			}
			wr, err := runWorkload(env, w, 1, 500*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d requests failed", w.Name, traced, wr.Failed, wr.Attempted)
			}
			decls := env.bf.EndToEnd
			if traced {
				decls = env.bf.PerLayer
				// server.self_p50_us is left out when the noise of a run
				// this short makes it negative.
				if _, ok := wr.PerLayer["server.self_p50_us"]; !ok {
					wr.PerLayer["server.self_p50_us"] = metricValue{Unit: "us"}
				}
				check("per-layer", decls, wr.PerLayer, func(n string) bool { return layerApplies(n, w) })
				if wr.EndToEnd != nil {
					t.Errorf("%s: a traced run reported end-to-end metrics", w.Name)
				}
				if w.Shards > 1 && (wr.CrossProbe == nil || wr.CrossProbe.CrossSent == 0) {
					t.Errorf("%s: no cross-shard probe in the result", w.Name)
				}
			} else {
				check("end-to-end", decls, wr.EndToEnd, func(string) bool { return true })
				for _, d := range decls {
					if v := wr.EndToEnd[d.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, d.Name, v)
					}
				}
			}
			// The contract line carries every declared metric of its mode.
			var line struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(wr.contractLine(env.bf, traced)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != wr.Attempted || len(line.Metrics) != len(decls) {
				t.Errorf("%s: contract line (traced %v): correct %v, %d metrics, want %d", w.Name, traced, line.Correct, len(line.Metrics), len(decls))
			}
		}
	}
}
