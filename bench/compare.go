package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// comparable reports why two result files cannot be held against each
// other, or "".
func comparable(a, b *resultFile) string {
	switch {
	case a.HostCPUs != b.HostCPUs || a.ClientProcs != b.ClientProcs || a.ServerProcs != b.ServerProcs:
		return fmt.Sprintf("host shapes differ: %d cpus, GOMAXPROCS %d/%d against %d cpus, GOMAXPROCS %d/%d",
			a.HostCPUs, a.ClientProcs, a.ServerProcs, b.HostCPUs, b.ClientProcs, b.ServerProcs)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seeds differ: %d against %d", a.Seed, b.Seed)
	case a.RunSeconds != b.RunSeconds:
		return fmt.Sprintf("run lengths differ: %d s against %d s", a.RunSeconds, b.RunSeconds)
	}
	return ""
}

// worsening is by how much b is worse than a, in the metric's own unit
// and direction; negative when b is better.
func worsening(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return a - b
	}
	return b - a
}

// compareFiles holds result file b against a with each end-to-end
// metric's bound and direction from BENCHMARK.json: a metric regressed
// when it is worse by more than both its bound's share of a's value and
// its floor in regressionFloors. More failed requests than in a is a
// regression too. It returns the process exit code: 0 no regression,
// 1 regression, 2 not comparable.
func compareFiles(bf *benchmarkFile, pathA, pathB string, out io.Writer) int {
	a, err := loadResult(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadResult(pathB)
	if err != nil {
		return fail(err)
	}
	if why := comparable(a, b); why != "" {
		fmt.Fprintln(out, "not comparable:", why)
		return 2
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	code := 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		switch {
		case wb == nil:
			fmt.Fprintf(out, "%-13s only in %s\n", wa.Name, pathA)
			continue
		case wa.StreamSHA256 != wb.StreamSHA256:
			fmt.Fprintf(out, "%-13s not comparable: request streams differ (%.12s against %.12s)\n", wa.Name, wa.StreamSHA256, wb.StreamSHA256)
			code = 2
			continue
		case wa.Invalid != "" || wb.Invalid != "":
			fmt.Fprintf(out, "%-13s unresolved: invalid run (%s%s)\n", wa.Name, wa.Invalid, wb.Invalid)
			continue
		}
		regressed := func() {
			if code == 0 {
				code = 1
			}
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(out, "%-13s %-15s %12d -> %12d of %d and %d attempted  REGRESSION\n", wa.Name, "failed", wa.Failed, wb.Failed, wa.Attempted, wb.Attempted)
			regressed()
		}
		for _, d := range bf.EndToEnd {
			va, oka := wa.EndToEnd[d.Name]
			vb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				fmt.Fprintf(out, "%-13s %-15s unresolved: not measured on both sides\n", wa.Name, d.Name)
				continue
			}
			worse := worsening(d, va.Value, vb.Value)
			allowed := math.Max(d.Bound*math.Abs(va.Value), regressionFloors[d.Name])
			verdict := "ok"
			if worse > allowed {
				verdict = "REGRESSION"
				regressed()
			}
			fmt.Fprintf(out, "%-13s %-15s %12.4f -> %12.4f %-5s worse by %+9.4f (allowed %.4f)  %s\n",
				wa.Name, d.Name, va.Value, vb.Value, d.Unit, worse, allowed, verdict)
		}
	}
	return code
}
