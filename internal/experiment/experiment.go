// Package experiment defines and runs the paper's evaluation: one
// Definition per parameter sweep, each rendering the tables/series of the
// figures it reproduces (Figures 4.a–4.f and 5.a–5.f, plus the Table 1/2
// parameter listings and this repository's extension ablations).
//
// Run is an orchestration layer, not a fixed fan-out. Per (point, variant)
// cell it either runs a fixed seed count (the paper's methodology) or, in
// adaptive mode (Options.TargetCI > 0), keeps scheduling deterministic
// per-seed runs until the 95% confidence half-width of the primary metric
// falls below a relative target or a seed cap is hit. Runs fan out over a
// goroutine worker pool — the simulator itself is single-threaded and
// deterministic per seed, so experiments use every core while aggregates
// stay exactly reproducible: results are always folded in seed order, so
// neither the worker count nor the adaptive schedule can change a single
// bit of the output. A run is a pure function of its configuration and
// seed, so rerunning a sweep from its seeds reproduces it. Cancellation
// via the context drains the worker pool without goroutine leaks.
//
// A run that fails on its own — a panic, or an engine error such as an
// oracle violation under Options.Oracle — is recorded as a failed seed in
// Result.Failures instead of aborting the whole sweep. Only an invalid
// configuration or an inspect rejection is fatal: inspect is how
// invariant tests report violations.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/stats"
)

// Variant is one curve of a figure: a name ("EDF-HP", "CCA", "5 TPS") and a
// config builder evaluated at each sweep point.
type Variant struct {
	name      string
	configure func(x float64, seed int64) core.Config
}

// Figure renders one paper figure (or table) from a completed sweep.
type Figure struct {
	ID     string
	Title  string
	render func(def *Definition, r *Result) *report.Table
	// plot, when set, renders the figure as an ASCII chart in addition
	// to the table (the terminal equivalent of the paper's graphs).
	plot func(def *Definition, r *Result) *plot.Chart
}

// Definition is one parameter sweep reproducing one or more figures.
type Definition struct {
	ID       string
	Title    string
	XLabel   string
	Xs       []float64
	Seeds    int
	Variants []Variant
	Figures  []Figure
}

// Result holds the aggregated metrics of a sweep: Agg[xi][vi] aggregates
// the completed seed runs of variant vi at sweep point xi (exactly the
// fixed seed count, or the adaptive schedule's final n for the cell).
type Result struct {
	def *Definition
	Agg [][]*metrics.Aggregate
	// Converged[xi][vi] reports whether the cell met the adaptive
	// precision target (always true for fixed-seed runs; false for cells
	// stopped by the MaxSeeds cap).
	Converged [][]bool
	// Failures lists every seed run that failed (ordered by point,
	// variant, seed). A failed seed is excluded from its cell's
	// aggregate; the sweep as a whole still succeeds.
	Failures []RunFailure
}

// RunFailure describes one seed run that failed.
type RunFailure struct {
	xi      int
	X       float64
	vi      int
	Variant string
	Seed    int64
	Message string
}

// Options tune a run without changing what it measures.
type Options struct {
	// Seeds overrides the definition's seed count (0 keeps it). In
	// adaptive mode this is the initial batch per cell.
	Seeds int
	// Count overrides the per-run transaction count (0 keeps the
	// config's; used by tests and benchmarks to shrink runs).
	Count int
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// Progress, if set, receives (done, total) after every finished
	// run. In adaptive mode total grows as cells extend their
	// seed schedule. Called from Run's goroutine.
	Progress func(done, total int)

	// TargetCI, when > 0, enables adaptive replication: each cell keeps
	// adding seeds until the CI95 half-width of the primary metric is at
	// most TargetCI × |mean| (e.g. 0.05 = 5% of the mean), or MaxSeeds
	// runs have been spent. A cell whose metric is exactly zero across
	// all seeds counts as converged.
	TargetCI float64
	// MaxSeeds caps the per-cell seed count in adaptive mode
	// (0 = 4× the initial batch).
	MaxSeeds int
	// metric picks the accumulator whose confidence interval drives
	// adaptive convergence (nil = miss percent).
	metric func(*metrics.Aggregate) *stats.Accumulator

	// Oracle attaches the runtime safety oracle (core.EnableOracle) to
	// every engine before it runs; a detected violation fails the run
	// (and is recorded like any other run failure).
	Oracle bool
	// Fault, when non-zero, overrides every run's fault-injection plan
	// (core.Config.Fault). Variants that set their own plan keep it when
	// this is zero.
	Fault fault.Plan
	// Admission, when its Mode is set, overrides every run's admission
	// controller (core.Config.Admission).
	Admission core.AdmissionConfig

	// instrument, if set, is called after each engine is built and
	// before it runs (e.g. to attach a trace recorder). Called
	// concurrently from worker goroutines.
	instrument func(xi, vi int, seed int64, e *core.Engine)
	// inspect, if set, is called after each run completes; a non-nil
	// error cancels the sweep. Called concurrently from worker
	// goroutines.
	inspect func(xi, vi int, seed int64, e *core.Engine, res metrics.Result) error
	// CellDone, if set, receives each cell's final state (seed count and
	// whether it met the precision target) as soon as the cell finishes.
	// Called from Run's goroutine.
	CellDone func(xi, vi, n int, converged bool)
}

// convergenceMetric returns the convergence accumulator selector.
func (o *Options) convergenceMetric() func(*metrics.Aggregate) *stats.Accumulator {
	if o.metric != nil {
		return o.metric
	}
	return func(a *metrics.Aggregate) *stats.Accumulator { return &a.MissPercent }
}

// job identifies one seed run of one cell.
type job struct {
	xi, vi int
	seed   int64
}

type outcome struct {
	job
	res metrics.Result
	// failure is the run's failure message ("" on success): a panic or
	// an engine/oracle/watchdog error.
	failure string
	// err is a fatal error that aborts the sweep (config or inspect).
	err error
}

// cellState tracks one (point, variant) cell's adaptive schedule.
type cellState struct {
	// res holds completed results by seed (1-based).
	res map[int]metrics.Result
	// failed holds seeds whose run failed; a failed seed counts as
	// finished for scheduling but is excluded from fold.
	failed map[int]RunFailure
	// goal is the number of seeds currently requested for the cell.
	goal int
	// final marks the cell finished (converged or capped).
	final bool
	// converged reports whether the precision target was met.
	converged bool
}

// completeUpTo reports whether seeds 1..n are all finished (completed or
// recorded as failed).
func (c *cellState) completeUpTo(n int) bool {
	for s := 1; s <= n; s++ {
		if _, ok := c.res[s]; ok {
			continue
		}
		if _, ok := c.failed[s]; !ok {
			return false
		}
	}
	return true
}

// fold aggregates seeds 1..n in seed order (the canonical fold order that
// makes every execution bit-identical). Failed seeds are skipped: their
// runs produced no result.
func (c *cellState) fold(n int) *metrics.Aggregate {
	agg := &metrics.Aggregate{}
	for s := 1; s <= n; s++ {
		if res, ok := c.res[s]; ok {
			agg.Add(res)
		}
	}
	return agg
}

// converged reports whether the accumulator meets the relative CI target.
func converged(acc *stats.Accumulator, target float64) bool {
	return acc.N() >= 2 && acc.RelCI95() <= target
}

// Run executes the sweep and aggregates per (point, variant). The context
// cancels the sweep: no further runs are scheduled, in-flight runs drain
// and Run returns the context's error.
func Run(ctx context.Context, def Definition, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seeds := def.Seeds
	if opt.Seeds > 0 {
		seeds = opt.Seeds
	}
	if seeds <= 0 {
		return nil, fmt.Errorf("experiment %s: seed count %d <= 0", def.ID, seeds)
	}
	adaptive := opt.TargetCI > 0
	maxSeeds := 0
	if adaptive {
		if seeds < 2 {
			seeds = 2 // a confidence interval needs at least two runs
		}
		maxSeeds = opt.MaxSeeds
		if maxSeeds <= 0 {
			maxSeeds = 4 * seeds
		}
		if seeds > maxSeeds {
			seeds = maxSeeds
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	metric := opt.convergenceMetric()

	nx, nv := len(def.Xs), len(def.Variants)
	if nx == 0 || nv == 0 {
		return nil, fmt.Errorf("experiment %s: no sweep points or variants", def.ID)
	}
	cells := make([]cellState, nx*nv)
	for i := range cells {
		cells[i] = cellState{res: make(map[int]metrics.Result), failed: make(map[int]RunFailure), goal: seeds}
	}

	// Seed the schedule: per-cell jobs for the initial goal. A cell
	// decides to finish or extend once its runs complete (advance).
	var pending []job
	for idx := range cells {
		for s := 1; s <= seeds; s++ {
			pending = append(pending, job{xi: idx / nv, vi: idx % nv, seed: int64(s)})
		}
	}
	done, total := 0, len(pending)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		pending = nil
	}
	// advance drives a cell's state machine at deterministic points: only
	// when every seed up to the current goal has completed does it decide
	// to finish or extend, so the final schedule is a pure function of
	// the results, never of worker timing.
	advance := func(idx int) {
		c := &cells[idx]
		for !c.final && firstErr == nil && c.completeUpTo(c.goal) {
			if !adaptive {
				c.final, c.converged = true, true
			} else if acc := metric(c.fold(c.goal)); converged(acc, opt.TargetCI) {
				c.final, c.converged = true, true
			} else if c.goal >= maxSeeds {
				c.final, c.converged = true, false
			}
			if c.final {
				if opt.CellDone != nil {
					opt.CellDone(idx/nv, idx%nv, c.goal, c.converged)
				}
				return
			}
			// Extend by half the current schedule (at least one seed).
			next := c.goal + c.goal/2
			if next <= c.goal {
				next = c.goal + 1
			}
			if next > maxSeeds {
				next = maxSeeds
			}
			for s := c.goal + 1; s <= next; s++ {
				total++
				pending = append(pending, job{xi: idx / nv, vi: idx % nv, seed: int64(s)})
			}
			c.goal = next
		}
	}

	// Worker pool. Workers only ever read def/opt and own their engine;
	// all bookkeeping happens on this goroutine's collector loop.
	jobCh := make(chan job)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				res, failure, err := runOne(&def, &opt, j)
				outCh <- outcome{job: j, res: res, failure: failure, err: err}
			}
		}()
	}

	handle := func(o outcome) {
		if o.err != nil {
			fail(fmt.Errorf("experiment %s: %s at %s=%v seed %d: %w",
				def.ID, def.Variants[o.vi].name, def.XLabel, def.Xs[o.xi], o.seed, o.err))
			return
		}
		idx := o.xi*nv + o.vi
		if o.failure != "" {
			cells[idx].failed[int(o.seed)] = RunFailure{
				xi: o.xi, X: def.Xs[o.xi], vi: o.vi, Variant: def.Variants[o.vi].name,
				Seed: o.seed, Message: o.failure,
			}
		} else {
			cells[idx].res[int(o.seed)] = o.res
		}
		done++
		if opt.Progress != nil {
			opt.Progress(done, total)
		}
		advance(idx)
	}

	// Collector: dispatch pending jobs and fold outcomes until the
	// schedule drains, an error occurs, or the context cancels. In-flight
	// runs always drain before Run returns, so nothing leaks.
	inflight := 0
	canceled := false
	ctxDone := ctx.Done()
	for inflight > 0 || (len(pending) > 0 && !canceled && firstErr == nil) {
		var sendCh chan job
		var next job
		if len(pending) > 0 && !canceled && firstErr == nil {
			sendCh, next = jobCh, pending[0]
		}
		select {
		case sendCh <- next:
			pending = pending[1:]
			inflight++
		case o := <-outCh:
			inflight--
			handle(o)
		case <-ctxDone:
			canceled = true
			ctxDone = nil
		}
	}
	close(jobCh)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if canceled {
		return nil, fmt.Errorf("experiment %s: %w", def.ID, ctx.Err())
	}

	r := &Result{
		def:       &def,
		Agg:       make([][]*metrics.Aggregate, nx),
		Converged: make([][]bool, nx),
	}
	for xi := 0; xi < nx; xi++ {
		r.Agg[xi] = make([]*metrics.Aggregate, nv)
		r.Converged[xi] = make([]bool, nv)
		for vi := 0; vi < nv; vi++ {
			c := &cells[xi*nv+vi]
			r.Agg[xi][vi] = c.fold(c.goal)
			r.Converged[xi][vi] = c.converged
			// Failures in canonical (point, variant, seed) order so the
			// report is deterministic regardless of worker timing.
			if len(c.failed) > 0 {
				seeds := make([]int, 0, len(c.failed))
				for s := range c.failed {
					seeds = append(seeds, s)
				}
				sort.Ints(seeds)
				for _, s := range seeds {
					r.Failures = append(r.Failures, c.failed[s])
				}
			}
		}
	}
	return r, nil
}

// runOne executes a single seed run on a worker goroutine. It returns
// either a result, a failure message (a panic anywhere between engine
// construction and run completion, or an engine error such as an oracle
// or watchdog violation), or a fatal error (an invalid configuration, an
// inspect rejection) that aborts the sweep.
func runOne(def *Definition, opt *Options, j job) (metrics.Result, string, error) {
	cfg := def.Variants[j.vi].configure(def.Xs[j.xi], j.seed)
	if opt.Count > 0 {
		cfg.Workload.Count = opt.Count
	}
	if !opt.Fault.Zero() {
		cfg.Fault = opt.Fault
	}
	if opt.Admission.Mode != core.AdmitAll {
		cfg.Admission = opt.Admission
	}
	e, err := core.New(cfg)
	if err != nil {
		return metrics.Result{}, "", err
	}
	if opt.Oracle {
		e.EnableOracle()
	}
	var res metrics.Result
	var runErr error
	// One bad seed must not take down a multi-hour sweep: recover panics
	// from the instrumentation hook and the engine itself and record them
	// as the seed's failure. The message excludes the stack so reruns of
	// a deterministic panic produce identical failure records.
	func() {
		defer func() {
			if p := recover(); p != nil {
				runErr = fmt.Errorf("panic: %v", p)
			}
		}()
		if opt.instrument != nil {
			opt.instrument(j.xi, j.vi, j.seed, e)
		}
		res, runErr = e.Run()
	}()
	if runErr != nil {
		return metrics.Result{}, runErr.Error(), nil
	}
	if opt.inspect != nil {
		if err := opt.inspect(j.xi, j.vi, j.seed, e, res); err != nil {
			return metrics.Result{}, "", err
		}
	}
	return res, "", nil
}

// Summary returns the across-seed mean result at a sweep point/variant.
func (r *Result) Summary(xi, vi int) metrics.Result { return r.Agg[xi][vi].Summary() }

// Tables renders every figure of the definition.
func (r *Result) Tables() []*report.Table {
	out := make([]*report.Table, 0, len(r.def.Figures))
	for _, f := range r.def.Figures {
		out = append(out, f.render(r.def, r))
	}
	return out
}

// Charts renders every figure that defines a chart.
func (r *Result) Charts() []*plot.Chart {
	var out []*plot.Chart
	for _, f := range r.def.Figures {
		if f.plot != nil {
			out = append(out, f.plot(r.def, r))
		}
	}
	return out
}
