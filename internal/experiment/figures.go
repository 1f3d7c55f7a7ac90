package experiment

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Standard variant builders.

func mmVariant(p core.PolicyKind, mutate func(*core.Config, float64)) func(float64, int64) core.Config {
	return func(x float64, seed int64) core.Config {
		cfg := core.MainMemoryConfig(p, seed)
		mutate(&cfg, x)
		return cfg
	}
}

func diskVariant(p core.PolicyKind, mutate func(*core.Config, float64)) func(float64, int64) core.Config {
	return func(x float64, seed int64) core.Config {
		cfg := core.DiskConfig(p, seed)
		mutate(&cfg, x)
		return cfg
	}
}

func setRate(c *core.Config, x float64)   { c.Workload.ArrivalRate = x }
func setDBSize(c *core.Config, x float64) { c.Workload.DBSize = int(x) }

func highVarianceRate(c *core.Config, x float64) {
	c.Workload.Classes = workload.HighVariance().Classes
	c.Workload.ArrivalRate = x
}

// costlyRecoveryWeight configures CCA at the given arrival rate in the
// costly-recovery regime, with x as the penalty weight: two CPUs, a 40 ms
// abort cost and rollback proportional to twice the victim's executed work
// — the setting where the weight matters, unlike the paper's 4 ms abort.
func costlyRecoveryWeight(rate float64) func(float64, int64) core.Config {
	return mmVariant(core.CCA, func(c *core.Config, w float64) {
		c.PenaltyWeight = w
		c.Workload.ArrivalRate = rate
		c.NumCPUs = 2
		c.AbortCost = 40 * time.Millisecond
		c.RecoveryProportionalFactor = 2
	})
}

// conditionalWorkload configures the decision-point ablation: sparse claim
// sets where branch refinement can change scheduling decisions.
func conditionalWorkload(pessimistic bool) func(*core.Config, float64) {
	return func(c *core.Config, x float64) {
		c.Workload.ArrivalRate = x
		c.Workload.DBSize = 80
		c.Workload.UpdatesMean = 6
		c.Workload.UpdatesStd = 2
		c.Workload.DiskAccessProb = 0.25
		c.Workload.DecisionPoints = true
		c.PessimisticAnalysis = pessimistic
	}
}

// Generic renderers.

// curveTable renders one metric for every variant across the sweep, with
// 95% confidence half-widths and the replication count behind each mean
// (which varies per cell under adaptive precision).
func curveTable(title, xLabel string, metric string, pick func(*metrics.Aggregate) *stats.Accumulator) func(*Definition, *Result) *report.Table {
	return func(def *Definition, r *Result) *report.Table {
		cols := []string{xLabel}
		for _, v := range def.Variants {
			cols = append(cols, v.name+" "+metric, "±95% (n)")
		}
		t := report.NewTable(title, cols...)
		for xi, x := range def.Xs {
			row := []string{trimFloat(x)}
			for vi := range def.Variants {
				acc := pick(r.Agg[xi][vi])
				row = append(row, report.F(acc.Mean()), report.CIn(acc.CI95(), acc.N()))
			}
			t.AddRow(row...)
		}
		return t
	}
}

// improvementTable renders the paper's improvement metric of variant 1
// (CCA) over variant 0 (EDF-HP) in miss percent and mean lateness.
func improvementTable(title, xLabel string) func(*Definition, *Result) *report.Table {
	return func(def *Definition, r *Result) *report.Table {
		t := report.NewTable(title, xLabel, "miss% improvement", "lateness improvement")
		for xi, x := range def.Xs {
			base, cand := r.Summary(xi, 0), r.Summary(xi, 1)
			imp := metrics.ImprovementOver(base, cand)
			t.AddRow(trimFloat(x), report.F(imp.MissPercent), report.F(imp.MeanLateness))
		}
		return t
	}
}

// curveChart renders the same data as curveTable as an ASCII chart.
func curveChart(title, xLabel, yLabel string, pick func(*metrics.Aggregate) *stats.Accumulator) func(*Definition, *Result) *plot.Chart {
	return func(def *Definition, r *Result) *plot.Chart {
		c := &plot.Chart{Title: title, XLabel: xLabel, YLabel: yLabel, Xs: def.Xs}
		for vi, v := range def.Variants {
			ys := make([]float64, len(def.Xs))
			for xi := range def.Xs {
				ys[xi] = pick(r.Agg[xi][vi]).Mean()
			}
			c.Series = append(c.Series, plot.Series{Name: v.name, Ys: ys})
		}
		return c
	}
}

// improvementChart charts the improvement of variant 1 over variant 0.
func improvementChart(title, xLabel string) func(*Definition, *Result) *plot.Chart {
	return func(def *Definition, r *Result) *plot.Chart {
		c := &plot.Chart{Title: title, XLabel: xLabel, YLabel: "improvement %", Xs: def.Xs}
		miss := make([]float64, len(def.Xs))
		late := make([]float64, len(def.Xs))
		for xi := range def.Xs {
			imp := metrics.ImprovementOver(r.Summary(xi, 0), r.Summary(xi, 1))
			miss[xi] = imp.MissPercent
			late[xi] = imp.MeanLateness
		}
		c.Series = []plot.Series{
			{Name: "miss% improvement", Ys: miss},
			{Name: "lateness improvement", Ys: late},
		}
		return c
	}
}

// curveFigure bundles a curve table and its chart.
func curveFigure(id, figTitle, tableTitle, xLabel, metric string, pick func(*metrics.Aggregate) *stats.Accumulator) Figure {
	return Figure{
		ID:     id,
		Title:  figTitle,
		render: curveTable(tableTitle, xLabel, metric, pick),
		plot:   curveChart(tableTitle, xLabel, metric, pick),
	}
}

// improvementFigure bundles an improvement table and its chart.
func improvementFigure(id, figTitle, tableTitle, xLabel string) Figure {
	return Figure{
		ID:     id,
		Title:  figTitle,
		render: improvementTable(tableTitle, xLabel),
		plot:   improvementChart(tableTitle, xLabel),
	}
}

// classTable renders per-compute-class miss percentages for every variant
// (used by the high-variance experiment to show which class suffers).
func classTable(title, xLabel string) func(*Definition, *Result) *report.Table {
	return func(def *Definition, r *Result) *report.Table {
		// Discover the class set from the first point.
		classes := []int{}
		for c := range r.Agg[0][0].ClassMiss {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		cols := []string{xLabel}
		for _, v := range def.Variants {
			for _, c := range classes {
				cols = append(cols, fmt.Sprintf("%s c%d miss%%", v.name, c))
			}
		}
		t := report.NewTable(title, cols...)
		for xi, x := range def.Xs {
			row := []string{trimFloat(x)}
			for vi := range def.Variants {
				for _, c := range classes {
					acc := r.Agg[xi][vi].ClassMiss[c]
					if acc == nil {
						row = append(row, "-")
						continue
					}
					row = append(row, report.F(acc.Mean()))
				}
			}
			t.AddRow(row...)
		}
		return t
	}
}

func missAcc(a *metrics.Aggregate) *stats.Accumulator     { return &a.MissPercent }
func latenessAcc(a *metrics.Aggregate) *stats.Accumulator { return &a.MeanLatenessMs }
func restartsAcc(a *metrics.Aggregate) *stats.Accumulator { return &a.RestartsPerTxn }
func rejectedAcc(a *metrics.Aggregate) *stats.Accumulator { return &a.Rejected }

func trimFloat(x float64) string {
	if x == float64(int(x)) {
		return fmt.Sprintf("%d", int(x))
	}
	return fmt.Sprintf("%.2g", x)
}

func seq(from, to, step float64) []float64 {
	var xs []float64
	for x := from; x <= to+1e-9; x += step {
		xs = append(xs, x)
	}
	return xs
}

// All returns every experiment definition: the paper's Figures 4 and 5
// (grouped by sweep) plus the extension ablations.
func All() []Definition {
	edfVsCCAmm := []Variant{
		{name: "EDF-HP", configure: mmVariant(core.EDFHP, setRate)},
		{name: "CCA", configure: mmVariant(core.CCA, setRate)},
	}
	edfVsCCAdisk := []Variant{
		{name: "EDF-HP", configure: diskVariant(core.EDFHP, setRate)},
		{name: "CCA", configure: diskVariant(core.CCA, setRate)},
	}

	return []Definition{
		{
			ID:       "mm-rate",
			Title:    "Main memory: effect of arrival rate (paper §4.1, Figures 4.a-4.c)",
			XLabel:   "arrival rate (tr/s)",
			Xs:       seq(1, 10, 1),
			Seeds:    10,
			Variants: edfVsCCAmm,
			Figures: []Figure{
				curveFigure("4a", "Figure 4.a — miss percent, EDF-HP vs CCA (main memory)",
					"Figure 4.a — miss percent (main memory)", "rate", "miss%", missAcc),
				improvementFigure("4b", "Figure 4.b — improvement of CCA over EDF-HP (main memory)",
					"Figure 4.b — improvement of CCA over EDF-HP (%)", "rate"),
				curveFigure("4c", "Figure 4.c — restarts per transaction (main memory)",
					"Figure 4.c — restarts per transaction (main memory)", "rate", "restarts/txn", restartsAcc),
				curveFigure("4lat", "Mean lateness, EDF-HP vs CCA (main memory; supports Figure 4.b)",
					"Mean lateness (ms, main memory)", "rate", "lateness", latenessAcc),
			},
		},
		{
			ID:     "mm-variance",
			Title:  "Main memory: high execution-time variance (paper §4.2, Figures 4.d-4.e)",
			XLabel: "arrival rate (tr/s)",
			Xs:     seq(0.2, 1.8, 0.2),
			Seeds:  10,
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, highVarianceRate)},
				{name: "CCA", configure: mmVariant(core.CCA, highVarianceRate)},
			},
			Figures: []Figure{
				curveFigure("4d", "Figure 4.d — miss percent with 0.4/4/40 ms update classes",
					"Figure 4.d — miss percent (high variance)", "rate", "miss%", missAcc),
				improvementFigure("4e", "Figure 4.e — improvement with high variance",
					"Figure 4.e — improvement of CCA over EDF-HP (%)", "rate"),
				{ID: "4class", Title: "Per-class miss percent (extension: which update-time class suffers)",
					render: classTable("Per-class miss percent (high variance; classes 0.4/4/40 ms)", "rate")},
			},
		},
		{
			ID:     "mm-dbsize",
			Title:  "Main memory: effect of database size at 10 tr/s (paper §4.3, Figure 4.f)",
			XLabel: "database size",
			Xs:     seq(100, 1000, 100),
			Seeds:  10,
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, func(c *core.Config, x float64) { setDBSize(c, x); c.Workload.ArrivalRate = 10 })},
				{name: "CCA", configure: mmVariant(core.CCA, func(c *core.Config, x float64) { setDBSize(c, x); c.Workload.ArrivalRate = 10 })},
			},
			Figures: []Figure{
				curveFigure("4f", "Figure 4.f — miss percent vs database size (main memory, rate 10)",
					"Figure 4.f — miss percent vs DB size (rate 10)", "DBsize", "miss%", missAcc),
			},
		},
		{
			ID:     "mm-weight",
			Title:  "Main memory: stability of penalty-weight (paper §4.4, Figure 5.a)",
			XLabel: "penalty-weight",
			Xs:     []float64{0, 0.5, 1, 2, 5, 10, 15, 20},
			Seeds:  10,
			Variants: []Variant{
				{name: "5 TPS", configure: mmVariant(core.CCA, func(c *core.Config, w float64) { c.PenaltyWeight = w; c.Workload.ArrivalRate = 5 })},
				{name: "8 TPS", configure: mmVariant(core.CCA, func(c *core.Config, w float64) { c.PenaltyWeight = w; c.Workload.ArrivalRate = 8 })},
			},
			Figures: []Figure{
				curveFigure("5a", "Figure 5.a — miss percent vs penalty-weight (main memory, 5 and 8 tr/s)",
					"Figure 5.a — miss percent vs penalty-weight (main memory)", "w", "miss%", missAcc),
			},
		},
		{
			ID:       "disk-rate",
			Title:    "Disk resident: effect of arrival rate (paper §5.1, Figures 5.b-5.d)",
			XLabel:   "arrival rate (tr/s)",
			Xs:       seq(1, 7, 1),
			Seeds:    30,
			Variants: edfVsCCAdisk,
			Figures: []Figure{
				curveFigure("5b", "Figure 5.b — miss percent, EDF-HP vs CCA (disk resident)",
					"Figure 5.b — miss percent (disk resident)", "rate", "miss%", missAcc),
				curveFigure("5c", "Figure 5.c — restarts per transaction (disk resident)",
					"Figure 5.c — restarts per transaction (disk resident)", "rate", "restarts/txn", restartsAcc),
				improvementFigure("5d", "Figure 5.d — improvement of CCA over EDF-HP (disk resident)",
					"Figure 5.d — improvement of CCA over EDF-HP (%)", "rate"),
				curveFigure("5lat", "Mean lateness, EDF-HP vs CCA (disk; supports Figure 5.d)",
					"Mean lateness (ms, disk resident)", "rate", "lateness", latenessAcc),
			},
		},
		{
			ID:     "disk-dbsize",
			Title:  "Disk resident: effect of database size at 4 tr/s (paper §5.2, Figure 5.e)",
			XLabel: "database size",
			Xs:     seq(100, 600, 100),
			Seeds:  30,
			Variants: []Variant{
				{name: "EDF-HP", configure: diskVariant(core.EDFHP, func(c *core.Config, x float64) { setDBSize(c, x); c.Workload.ArrivalRate = 4 })},
				{name: "CCA", configure: diskVariant(core.CCA, func(c *core.Config, x float64) { setDBSize(c, x); c.Workload.ArrivalRate = 4 })},
			},
			Figures: []Figure{
				curveFigure("5e", "Figure 5.e — miss percent vs database size (disk resident, rate 4)",
					"Figure 5.e — miss percent vs DB size (disk, rate 4)", "DBsize", "miss%", missAcc),
			},
		},
		{
			ID:     "disk-weight",
			Title:  "Disk resident: stability of penalty-weight (paper §5.3, Figure 5.f)",
			XLabel: "penalty-weight",
			Xs:     []float64{0, 0.5, 1, 2, 5, 10, 15, 20},
			Seeds:  30,
			Variants: []Variant{
				{name: "4 TPS", configure: diskVariant(core.CCA, func(c *core.Config, w float64) { c.PenaltyWeight = w; c.Workload.ArrivalRate = 4 })},
			},
			Figures: []Figure{
				curveFigure("5f", "Figure 5.f — miss percent vs penalty-weight (disk resident, 4 tr/s)",
					"Figure 5.f — miss percent vs penalty-weight (disk)", "w", "miss%", missAcc),
			},
		},

		// --- extension ablations (DESIGN.md §4) -----------------------
		{
			ID:     "ablation-policies",
			Title:  "Ablation: every implemented policy on the main-memory base workload",
			XLabel: "arrival rate (tr/s)",
			Xs:     []float64{2, 4, 6, 8, 10},
			Seeds:  10,
			Variants: []Variant{
				{name: "CCA", configure: mmVariant(core.CCA, setRate)},
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, setRate)},
				{name: "EDF-WP", configure: mmVariant(core.EDFWP, setRate)},
				{name: "LSF-HP", configure: mmVariant(core.LSFHP, setRate)},
				{name: "EDF-CR", configure: mmVariant(core.EDFCR, setRate)},
				{name: "AED", configure: mmVariant(core.AED, setRate)},
				{name: "PCP", configure: mmVariant(core.PCP, setRate)},
				{name: "FCFS", configure: mmVariant(core.FCFS, setRate)},
			},
			Figures: []Figure{
				curveFigure("ab-pol-miss", "Ablation — miss percent across policies",
					"Ablation — miss percent across policies (main memory)", "rate", "miss%", missAcc),
				curveFigure("ab-pol-late", "Ablation — mean lateness across policies",
					"Ablation — mean lateness across policies (ms)", "rate", "lateness", latenessAcc),
			},
		},
		{
			ID:     "ablation-recovery",
			Title:  "Ablation: recovery cost proportional to executed work (paper §6)",
			XLabel: "proportional factor",
			Xs:     []float64{0, 0.5, 1, 2, 4},
			Seeds:  10,
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, func(c *core.Config, x float64) { c.RecoveryProportionalFactor = x; c.Workload.ArrivalRate = 8 })},
				{name: "CCA", configure: mmVariant(core.CCA, func(c *core.Config, x float64) { c.RecoveryProportionalFactor = x; c.Workload.ArrivalRate = 8 })},
			},
			Figures: []Figure{
				{ID: "ab-rec-miss", Title: "Ablation — miss percent vs recovery cost factor",
					render: curveTable("Ablation — miss percent vs proportional recovery factor (rate 8)", "factor", "miss%", missAcc)},
				{ID: "ab-rec-imp", Title: "Ablation — CCA improvement vs recovery cost factor",
					render: improvementTable("Ablation — improvement of CCA over EDF-HP (%)", "factor")},
			},
		},
		{
			ID:     "ablation-mp",
			Title:  "Ablation: multiprocessor extension (paper §6 future work)",
			XLabel: "CPUs",
			Xs:     []float64{1, 2, 4},
			Seeds:  10,
			// Load scales with the CPU count; the database is enlarged to
			// 4000 objects because on the 30-object base database almost
			// every pair of transactions conflicts, so CCA's
			// compatibility rule (correctly) serialises execution and
			// extra CPUs cannot help — multiprocessor parallelism only
			// exists under low-to-moderate contention (pairwise conflict
			// probability ≈ 1-(1-20/4000)^20 ≈ 10%).
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, func(c *core.Config, x float64) {
					c.NumCPUs = int(x)
					c.Workload.DBSize = 4000
					c.Workload.ArrivalRate = 8 * x
				})},
				{name: "CCA", configure: mmVariant(core.CCA, func(c *core.Config, x float64) {
					c.NumCPUs = int(x)
					c.Workload.DBSize = 4000
					c.Workload.ArrivalRate = 8 * x
				})},
			},
			Figures: []Figure{
				{ID: "ab-mp-miss", Title: "Ablation — miss percent vs CPU count (rate = 8 tr/s per CPU, 4000-object DB)",
					render: curveTable("Ablation — miss percent vs CPUs (rate 8/CPU, DB 4000)", "CPUs", "miss%", missAcc)},
			},
		},
		{
			ID:     "ablation-readlocks",
			Title:  "Ablation: shared read locks (paper §6 future work)",
			XLabel: "read fraction",
			Xs:     []float64{0, 0.25, 0.5, 0.75},
			Seeds:  10,
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, func(c *core.Config, x float64) { c.Workload.ReadFraction = x; c.Workload.ArrivalRate = 8 })},
				{name: "CCA", configure: mmVariant(core.CCA, func(c *core.Config, x float64) { c.Workload.ReadFraction = x; c.Workload.ArrivalRate = 8 })},
			},
			Figures: []Figure{
				{ID: "ab-read-miss", Title: "Ablation — miss percent vs read fraction",
					render: curveTable("Ablation — miss percent vs read fraction (rate 8)", "read frac", "miss%", missAcc)},
			},
		},
		{
			ID:     "ablation-conditional",
			Title:  "Ablation: conditionally-conflicting transactions (decision points; paper §6's unsimulated case)",
			XLabel: "arrival rate (tr/s)",
			Xs:     seq(10, 20, 2),
			Seeds:  15,
			// Sparse claim sets (6 updates over 80 objects, heavier IO)
			// are where refinement can matter: a transaction's untaken
			// branch is then a meaningful fraction of its claim.
			Variants: []Variant{
				{name: "CCA pre-analysis", configure: diskVariant(core.CCA, conditionalWorkload(false))},
				{name: "CCA pessimistic", configure: diskVariant(core.CCA, conditionalWorkload(true))},
				{name: "EDF-HP", configure: diskVariant(core.EDFHP, conditionalWorkload(false))},
			},
			Figures: []Figure{
				curveFigure("ab-cond-miss", "Ablation — miss percent with decision-point workloads",
					"Ablation — conditional conflicts: refined vs pessimistic analysis (disk)", "rate", "miss%", missAcc),
				curveFigure("ab-cond-late", "Ablation — mean lateness with decision-point workloads",
					"Ablation — conditional conflicts: mean lateness (ms)", "rate", "lateness", latenessAcc),
			},
		},
		{
			ID:     "ablation-multidisk",
			Title:  "Ablation: striping the database over multiple disks",
			XLabel: "arrival rate (tr/s)",
			Xs:     seq(3, 9, 1),
			Seeds:  15,
			Variants: []Variant{
				{name: "CCA 1-disk", configure: diskVariant(core.CCA, setRate)},
				{name: "CCA 2-disk", configure: diskVariant(core.CCA, func(c *core.Config, x float64) { setRate(c, x); c.NumDisks = 2 })},
				{name: "EDF-HP 2-disk", configure: diskVariant(core.EDFHP, func(c *core.Config, x float64) { setRate(c, x); c.NumDisks = 2 })},
			},
			Figures: []Figure{
				curveFigure("ab-disk2-miss", "Ablation — miss percent with 1 vs 2 disks",
					"Ablation — miss percent, 1 vs 2 disks (disk resident)", "rate", "miss%", missAcc),
			},
		},
		{
			ID:     "ablation-firm",
			Title:  "Ablation: firm deadlines (late transactions dropped; Haritsa's model)",
			XLabel: "arrival rate (tr/s)",
			Xs:     seq(4, 12, 2),
			Seeds:  10,
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, func(c *core.Config, x float64) { setRate(c, x); c.FirmDeadlines = true })},
				{name: "CCA", configure: mmVariant(core.CCA, func(c *core.Config, x float64) { setRate(c, x); c.FirmDeadlines = true })},
				{name: "AED", configure: mmVariant(core.AED, func(c *core.Config, x float64) { setRate(c, x); c.FirmDeadlines = true })},
			},
			Figures: []Figure{
				curveFigure("ab-firm-miss", "Ablation — miss percent (dropped+late) under firm deadlines",
					"Ablation — miss percent under firm deadlines (main memory)", "rate", "miss%", missAcc),
			},
		},
		{
			ID:     "ablation-overload",
			Title:  "Ablation: overload control past saturation (admission robustness extension)",
			XLabel: "arrival rate (tr/s)",
			Xs:     seq(10, 30, 5),
			Seeds:  10,
			// The main-memory base workload saturates one CPU around
			// 12.5 tr/s; past that, admitting everything lets the live
			// set grow without bound and every policy's miss percent
			// races to 100. Shedding infeasible arrivals trades a few
			// certain rejections for a backlog the CPU can still serve.
			Variants: []Variant{
				{name: "EDF-HP", configure: mmVariant(core.EDFHP, setRate)},
				{name: "CCA", configure: mmVariant(core.CCA, setRate)},
				{name: "CCA+reject", configure: mmVariant(core.CCA, func(c *core.Config, x float64) {
					setRate(c, x)
					c.Admission = core.AdmissionConfig{Mode: core.RejectInfeasible}
				})},
			},
			Figures: []Figure{
				curveFigure("ab-over-miss", "Ablation — miss percent past saturation, with and without admission control",
					"Ablation — overload: miss percent (rejected counts as missed)", "rate", "miss%", missAcc),
				{ID: "ab-over-rej", Title: "Ablation — rejected transactions per run under admission control",
					render: curveTable("Ablation — overload: rejections per run", "rate", "rejected", rejectedAcc)},
				curveFigure("ab-over-late", "Ablation — mean lateness of served transactions past saturation",
					"Ablation — overload: mean lateness of commits (ms)", "rate", "lateness", latenessAcc),
			},
		},
		{
			ID:     "ablation-weight",
			Title:  "Ablation: penalty-weight under costly recovery (2 CPUs, 40 ms abort, recovery factor 2)",
			XLabel: "penalty-weight",
			Xs:     []float64{0, 0.5, 1, 2, 5, 10, 15, 20},
			Seeds:  10,
			Variants: []Variant{
				{name: "8 TPS", configure: costlyRecoveryWeight(8)},
				{name: "10 TPS", configure: costlyRecoveryWeight(10)},
			},
			Figures: []Figure{
				curveFigure("ab-weight-miss", "Ablation — miss percent vs penalty-weight under costly recovery (8 and 10 tr/s)",
					"Ablation — miss percent vs penalty-weight (2 CPUs, costly recovery)", "w", "miss%", missAcc),
			},
		},
		{
			ID:     "ablation-diskqueue",
			Title:  "Ablation: priority (EDF) disk queueing instead of FCFS",
			XLabel: "arrival rate (tr/s)",
			Xs:     seq(2, 7, 1),
			Seeds:  15,
			// Under CCA the IOwait rule keeps the disk queue essentially
			// empty (at most the primary's own access), so the queue
			// discipline is irrelevant there; the comparison is made
			// under EDF-HP, whose noncontributing executions do queue
			// concurrent disk requests.
			Variants: []Variant{
				{name: "EDFHP/FCFS-disk", configure: diskVariant(core.EDFHP, setRate)},
				{name: "EDFHP/prio-disk", configure: diskVariant(core.EDFHP, func(c *core.Config, x float64) {
					setRate(c, x)
					c.DiskDiscipline = 1 // disk.priority
				})},
			},
			Figures: []Figure{
				{ID: "ab-dq-miss", Title: "Ablation — miss percent, FCFS vs priority disk queue (EDF-HP)",
					render: curveTable("Ablation — EDF-HP miss percent, FCFS vs priority disk queue", "rate", "miss%", missAcc)},
			},
		},
	}
}

// ByID returns the definition whose ID matches, or whose figure list
// contains the given figure ID ("4a" or "fig4a").
func ByID(id string) (Definition, bool) {
	if len(id) > 3 && id[:3] == "fig" {
		id = id[3:]
	}
	for _, d := range All() {
		if d.ID == id {
			return d, true
		}
		for _, f := range d.Figures {
			if f.ID == id {
				return d, true
			}
		}
	}
	return Definition{}, false
}

// Table1 renders the paper's Table 1 (main-memory base parameters) from the
// canonical configuration.
func Table1() *report.Table {
	cfg := core.MainMemoryConfig(core.CCA, 1)
	return paramTable("Table 1 — base parameters (main memory)", cfg)
}

// Table2 renders the paper's Table 2 (disk-resident base parameters).
func Table2() *report.Table {
	cfg := core.DiskConfig(core.CCA, 1)
	t := paramTable("Table 2 — base parameters (disk resident)", cfg)
	t.AddRow("Disk access time (ms)", fmt.Sprintf("%v", cfg.Workload.DiskAccessTime.Milliseconds()))
	t.AddRow("Disk access probability", "1/10")
	return t
}

func paramTable(title string, cfg core.Config) *report.Table {
	w := cfg.Workload
	t := report.NewTable(title, "Parameter", "Value")
	t.AddRow("Transaction type", fmt.Sprintf("%d", w.TxnTypes))
	t.AddRow("Update per transaction (mean, std)", fmt.Sprintf("(%.0f, %.0f)", w.UpdatesMean, w.UpdatesStd))
	t.AddRow("Computation/update (ms)", fmt.Sprintf("%v", w.ComputePerUpdate.Milliseconds()))
	t.AddRow("Database size", fmt.Sprintf("%d", w.DBSize))
	t.AddRow("Min-slack (% of runtime)", fmt.Sprintf("%.0f%%", 100*w.MinSlack))
	t.AddRow("Max-slack (% of runtime)", fmt.Sprintf("%.0f%%", 100*w.MaxSlack))
	t.AddRow("Abort cost (ms)", fmt.Sprintf("%v", cfg.AbortCost.Milliseconds()))
	t.AddRow("Weight of penalty of conflict", fmt.Sprintf("%.0f", cfg.PenaltyWeight))
	t.AddRow("CPU capacity (tr/s, no aborts)", report.F(w.CPUCapacity()))
	return t
}
