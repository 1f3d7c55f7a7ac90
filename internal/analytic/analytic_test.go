// Package analytic checks the simulator against closed-form queueing
// approximations of its no-contention limits. The paper sanity-checks its
// simulator with capacity arithmetic (§4.1, §4.2, §5); these tests extend
// that practice: when data contention is removed (huge database) and
// scheduling is FCFS, the CPU is an M/G/1 queue and the simulator's
// measured response times must match Pollaczek–Khinchine.
package analytic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// utilization returns ρ = λ·E[S] for arrival rate λ (per second) and mean
// service time E[S] (seconds).
func utilization(lambda, meanService float64) float64 {
	return lambda * meanService
}

// mm1Response returns the mean response time (wait + service, seconds) of
// an M/M/1 queue: W = 1/(μ − λ) with μ = 1/E[S]. It panics at or above
// saturation.
func mm1Response(lambda, meanService float64) float64 {
	mu := 1 / meanService
	if lambda >= mu {
		panic(fmt.Sprintf("analytic: M/M/1 unstable: λ=%v ≥ μ=%v", lambda, mu))
	}
	return 1 / (mu - lambda)
}

// mg1Wait returns the mean waiting time (excluding service, seconds) of an
// M/G/1 queue via Pollaczek–Khinchine: Wq = λ·E[S²] / (2(1−ρ)).
func mg1Wait(lambda, meanService, meanServiceSq float64) float64 {
	rho := utilization(lambda, meanService)
	if rho >= 1 {
		panic(fmt.Sprintf("analytic: M/G/1 unstable: ρ=%v", rho))
	}
	return lambda * meanServiceSq / (2 * (1 - rho))
}

// mg1Response returns the mean response time of an M/G/1 queue.
func mg1Response(lambda, meanService, meanServiceSq float64) float64 {
	return mg1Wait(lambda, meanService, meanServiceSq) + meanService
}

// md1Response returns the mean response time of an M/D/1 queue
// (deterministic service): Wq = ρ·E[S] / (2(1−ρ)).
func md1Response(lambda, service float64) float64 {
	return mg1Response(lambda, service, service*service)
}

// littleL returns the mean number in system by Little's law, L = λ·W.
func littleL(lambda, response float64) float64 { return lambda * response }

// serviceMoments returns E[S] and E[S²] (seconds, seconds²) for the
// simulated transaction service time S = N·c, where N is the per-type
// update count — a normal(mean, std) rounded to the nearest integer and
// clamped to [1, dbSize] — and c is the per-update compute time in
// seconds. The moments are computed exactly over the discrete distribution.
func serviceMoments(mean, std float64, dbSize int, computeSec float64) (es, es2 float64) {
	var p1, pn, pn2 float64
	for n := 1; n <= dbSize; n++ {
		p := clampedNormalPMF(mean, std, 1, dbSize, n)
		p1 += p
		pn += p * float64(n)
		pn2 += p * float64(n) * float64(n)
	}
	// p1 sums to 1 up to floating error; normalise defensively.
	pn /= p1
	pn2 /= p1
	return pn * computeSec, pn2 * computeSec * computeSec
}

// clampedNormalPMF returns P(N = n) where N = clamp(round(X), lo, hi) and
// X ~ Normal(mean, std).
func clampedNormalPMF(mean, std float64, lo, hi, n int) float64 {
	cdf := func(x float64) float64 {
		if std == 0 {
			if x >= mean {
				return 1
			}
			return 0
		}
		return 0.5 * (1 + math.Erf((x-mean)/(std*math.Sqrt2)))
	}
	switch {
	case n == lo:
		// Everything rounding to <= lo clamps up to lo.
		return cdf(float64(lo) + 0.5)
	case n == hi:
		return 1 - cdf(float64(hi)-0.5)
	default:
		return cdf(float64(n)+0.5) - cdf(float64(n)-0.5)
	}
}

// meanUpdates returns E[N] for the clamped update-count distribution.
func meanUpdates(mean, std float64, dbSize int) float64 {
	es, _ := serviceMoments(mean, std, dbSize, 1)
	return es
}

func TestUtilization(t *testing.T) {
	if got := utilization(5, 0.08); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("rho = %v, want 0.4", got)
	}
}

func TestMM1Response(t *testing.T) {
	// mu = 10/s, lambda = 5/s -> W = 1/5 = 0.2s.
	if got := mm1Response(5, 0.1); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("W = %v, want 0.2", got)
	}
}

func TestMM1UnstablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("saturated M/M/1 did not panic")
		}
	}()
	mm1Response(10, 0.1)
}

func TestMD1Response(t *testing.T) {
	// rho = 0.4, S = 80ms: Wq = 0.4*0.08/(2*0.6) = 26.67ms; W = 106.67ms.
	got := md1Response(5, 0.08)
	want := 0.08 + 5*0.08*0.08/(2*0.6)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("W = %v, want %v", got, want)
	}
}

func TestMG1ReducesToMM1(t *testing.T) {
	// Exponential service: E[S^2] = 2 E[S]^2; M/G/1 == M/M/1.
	s := 0.05
	lambda := 8.0
	mg1 := mg1Response(lambda, s, 2*s*s)
	mm1 := mm1Response(lambda, s)
	if math.Abs(mg1-mm1) > 1e-12 {
		t.Fatalf("M/G/1 %v != M/M/1 %v for exponential service", mg1, mm1)
	}
}

func TestMG1UnstablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("saturated M/G/1 did not panic")
		}
	}()
	mg1Wait(20, 0.05, 0.005)
}

func TestLittleL(t *testing.T) {
	if got := littleL(5, 0.2); got != 1.0 {
		t.Fatalf("L = %v, want 1", got)
	}
}

func TestServiceMomentsDeterministic(t *testing.T) {
	// std = 0: exactly 20 updates of 4ms.
	es, es2 := serviceMoments(20, 0, 1000, 0.004)
	if math.Abs(es-0.08) > 1e-9 {
		t.Fatalf("E[S] = %v, want 0.08", es)
	}
	if math.Abs(es2-0.08*0.08) > 1e-9 {
		t.Fatalf("E[S^2] = %v, want 0.0064", es2)
	}
}

func TestServiceMomentsClampedNormal(t *testing.T) {
	// Compare against the workload generator's empirical moments.
	p := workload.BaseMainMemory()
	p.DBSize = 1000
	p.TxnTypes = 4000
	p.Count = 1
	w := workload.MustGenerate(p, 1)
	var sum, sum2 float64
	for _, ty := range w.Types {
		s := float64(len(ty.Items)) * 0.004
		sum += s
		sum2 += s * s
	}
	n := float64(len(w.Types))
	es, es2 := serviceMoments(20, 10, 1000, 0.004)
	if math.Abs(es-sum/n) > 0.01*es {
		t.Fatalf("E[S] analytic %v vs empirical %v", es, sum/n)
	}
	if math.Abs(es2-sum2/n) > 0.03*es2 {
		t.Fatalf("E[S^2] analytic %v vs empirical %v", es2, sum2/n)
	}
}

func TestMeanUpdatesUnclampedCenter(t *testing.T) {
	// With generous bounds the clamped mean stays near the normal mean.
	if got := meanUpdates(20, 5, 1000); math.Abs(got-20) > 0.1 {
		t.Fatalf("E[N] = %v, want ~20", got)
	}
	// Tight clamping at the paper's DBSize=30 pulls the mean below 20.
	if got := meanUpdates(20, 10, 30); got >= 20 || got < 15 {
		t.Fatalf("clamped E[N] = %v, want in [15, 20)", got)
	}
}

// TestSimulatorMatchesMD1 cross-validates the engine against queueing
// theory: with contention removed (huge database, thousands of types) and
// deterministic service under non-preemptive FCFS, the CPU is an M/D/1
// queue and the measured mean response time must match
// Pollaczek–Khinchine.
func TestSimulatorMatchesMD1(t *testing.T) {
	cfg := core.MainMemoryConfig(core.FCFS, 1)
	cfg.Workload.DBSize = 50000
	cfg.Workload.TxnTypes = 5000
	cfg.Workload.UpdatesStd = 0 // deterministic 20 updates -> S = 80ms
	cfg.Workload.ArrivalRate = 5
	cfg.Workload.Count = 2000

	want := md1Response(5, 0.08) * 1000 // ms

	var got float64
	const seeds = 4
	for seed := int64(1); seed <= seeds; seed++ {
		cfg.Seed = seed
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Restarts != 0 || res.LockWaits > 3 {
			t.Fatalf("seed %d: contention not negligible (restarts=%d waits=%d)", seed, res.Restarts, res.LockWaits)
		}
		got += res.MeanResponseMs
	}
	got /= seeds
	if math.Abs(got-want) > 0.08*want {
		t.Fatalf("mean response %v ms vs M/D/1 prediction %v ms (>8%% off)", got, want)
	}
}

// TestSimulatorMatchesMG1 as above with the clamped-normal update count.
func TestSimulatorMatchesMG1(t *testing.T) {
	cfg := core.MainMemoryConfig(core.FCFS, 1)
	cfg.Workload.DBSize = 50000
	cfg.Workload.TxnTypes = 5000
	cfg.Workload.ArrivalRate = 5
	cfg.Workload.Count = 2000

	es, es2 := serviceMoments(20, 10, cfg.Workload.DBSize, 0.004)
	want := mg1Response(5, es, es2) * 1000

	var got float64
	const seeds = 4
	for seed := int64(1); seed <= seeds; seed++ {
		cfg.Seed = seed
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		got += res.MeanResponseMs
	}
	got /= seeds
	if math.Abs(got-want) > 0.10*want {
		t.Fatalf("mean response %v ms vs M/G/1 prediction %v ms (>10%% off)", got, want)
	}
}

// TestLittleLawOnSimulator: L = λ·W on the simulator's own measurements.
// The time-averaged number of live transactions (AvgLiveTxns, integrated
// event by event) must equal the observed throughput times the mean
// response time — an exact identity for a finite drained run, so it
// doubles as a check of the engine's integration bookkeeping.
func TestLittleLawOnSimulator(t *testing.T) {
	for _, p := range []core.PolicyKind{core.FCFS, core.CCA, core.EDFHP} {
		cfg := core.MainMemoryConfig(p, 2)
		cfg.Workload.ArrivalRate = 8
		cfg.Workload.Count = 500
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		lambda := float64(res.Committed) / res.Elapsed.Seconds()
		wSec := res.MeanResponseMs / 1000
		want := littleL(lambda, wSec)
		if math.Abs(res.AvgLiveTxns-want) > 0.01*want {
			t.Fatalf("%s: L = %v, λW = %v (Little's law violated)", p, res.AvgLiveTxns, want)
		}
	}
}

func BenchmarkServiceMoments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		serviceMoments(20, 10, 1000, 0.004)
	}
}
