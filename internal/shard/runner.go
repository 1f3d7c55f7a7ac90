// Package shard partitions the item space across N engine shards, each an
// unchanged single-threaded deterministic kernel, and coordinates them
// through deterministic cross-shard epochs.
//
// The partition is modular: item i lives on shard i % N (txn.ShardOf —
// the same rule the engine uses to stripe items across disks). A
// transaction whose pre-analysis footprint lies on one shard is submitted
// directly to that shard and executes exactly as it would unsharded. A
// transaction whose footprint spans shards is split into per-shard
// sub-transactions and committed through epoch batching: at every fixed
// simulated-time boundary all shards rendezvous (sim.Lockstep), and the
// pending cross-shard work is injected in canonical (arrival, ID) order.
//
// Determinism survives parallelism because the shards share nothing
// between boundaries — each is a sequential discrete-event kernel with its
// own calendar, lock table, store and disks — and everything exchanged
// at a boundary is ordered canonically, never by goroutine arrival. The
// outcome is therefore a pure function of (config, workload, shard count,
// epoch interval), independent of GOMAXPROCS; with N=1 the single shard
// holds the whole workload and the run is bit-identical to the unsharded
// engine (the equivalence suite asserts both properties).
package shard

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaultEpoch is the cross-shard epoch interval when Options.Epoch is 0.
// It trades cross-shard latency (a cross transaction waits for the next
// boundary before starting anywhere) against barrier overhead.
const defaultEpoch = 10 * time.Millisecond

// Options configure a sharded run.
type Options struct {
	// Shards is the number of engine shards (1..64).
	Shards int
	// Epoch is the simulated-time interval between cross-shard boundaries
	// (0 = defaultEpoch).
	Epoch time.Duration
}

// CrossSummary reports the fate of the cross-shard transactions at the
// logical level (a logical transaction commits iff every sub-transaction
// committed).
type CrossSummary struct {
	Total     int
	Committed int
	Missed    int
	// Partial counts logical transactions where some sub-transactions
	// committed and others did not. The runner has no cross-shard atomic
	// commit (no 2PC): a firm-deadline drop or admission rejection on one
	// shard does not undo the siblings. Partial > 0 quantifies how often
	// that mattered.
	Partial int
}

// Result is the outcome of a sharded run.
type Result struct {
	// Metrics are the merged engine-level counters (metrics.MergeRuns over
	// the shards). Each cross-shard sub-transaction counts as one engine
	// transaction here; use Cross for logical-level accounting.
	Metrics metrics.Result
	// outcomes holds one logical outcome per workload transaction, indexed
	// by its workload ID.
	outcomes []core.ServiceOutcome
	// Cross summarises the cross-shard transactions.
	Cross CrossSummary
	// Epochs is the number of boundaries the run took.
	Epochs int
}

// crossEntry is one logical cross-shard transaction: its original spec,
// its precomputed per-shard split, and (after injection) the per-part
// outcomes, in part order.
type crossEntry struct {
	spec     workload.Spec
	parts    []workload.ShardPart
	outcomes []core.ServiceOutcome
}

// Runner executes one pre-generated workload across N shards in virtual
// time. It is single-use: build with New, call Run once.
type Runner struct {
	cfg     core.Config
	sched   sim.EpochSchedule
	engines []*core.Engine
	// global maps each shard's static (pre-partitioned) transaction index
	// back to its workload ID.
	global [][]int
	cross  []*crossEntry
	n      int // len(wl.Txns)
	// predict is true when the shards run a conflict-prediction policy
	// (CCA-P/CCA-T) and there is more than one shard: at every epoch
	// boundary the per-shard statistics tables are merged in ascending
	// shard order and the same frozen merged view is installed on every
	// shard, so each shard prices conflicts against the global picture.
	// With one shard the merge is skipped entirely — the run stays
	// bit-identical to the unsharded engine.
	predict bool
}

// New partitions the workload and builds one engine per shard. The
// configuration is shared by all shards: the same policy, CPU count and
// disk array per shard (a shard is a full engine instance), the same
// database size (items keep their global numbering; each shard only ever
// touches its own residue class).
func New(cfg core.Config, wl *workload.Workload, opt Options) (*Runner, error) {
	if opt.Shards < 1 || opt.Shards > 64 {
		return nil, fmt.Errorf("shard: %d shards (want 1..64)", opt.Shards)
	}
	epoch := opt.Epoch
	if epoch == 0 {
		epoch = defaultEpoch
	}
	if epoch < 0 {
		return nil, fmt.Errorf("shard: negative epoch interval %v", epoch)
	}
	if wl == nil {
		return nil, fmt.Errorf("shard: nil workload")
	}
	r := &Runner{
		cfg:    cfg,
		sched:  sim.EpochSchedule{Interval: sim.Time(epoch)},
		global: make([][]int, opt.Shards),
		n:      len(wl.Txns),
	}
	perShard := make([][]workload.Spec, opt.Shards)
	for i := range wl.Txns {
		s := &wl.Txns[i]
		if home, cross := s.HomeShard(opt.Shards); !cross {
			sc := *s
			sc.ID = len(perShard[home])
			perShard[home] = append(perShard[home], sc)
			r.global[home] = append(r.global[home], s.ID)
		} else {
			// wl.Txns is arrival-ordered with dense IDs, so appending here
			// yields the canonical (arrival, ID) injection order for free.
			r.cross = append(r.cross, &crossEntry{spec: *s, parts: s.SplitShards(opt.Shards)})
		}
	}
	for i := 0; i < opt.Shards; i++ {
		swl := &workload.Workload{Params: cfg.Workload, Types: wl.Types, Txns: perShard[i]}
		e, err := core.NewShardEngine(cfg, swl)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.engines = append(r.engines, e)
	}
	r.predict = opt.Shards > 1 && r.engines[0].PredictTable() != nil
	return r, nil
}

// Engines exposes the per-shard kernels (tests, diagnostics).
func (r *Runner) Engines() []*core.Engine { return r.engines }

// Run executes the sharded workload to completion and returns the merged
// result. Within an epoch the shards run concurrently (one goroutine each,
// via the lockstep barrier); everything the caller observes afterwards is
// nevertheless deterministic — see the package comment.
func (r *Runner) Run() (Result, error) {
	for _, e := range r.engines {
		e.StartRun()
	}
	ls := sim.NewLockstep(len(r.engines))
	next := 0 // next cross entry to inject
	epochs := 0
	for k := 1; ; k++ {
		b := r.sched.Boundary(k)
		if err := ls.Round(func(i int) error { return r.engines[i].StepTo(b) }); err != nil {
			return Result{}, err
		}
		epochs = k
		// All shards are quiescent at exactly b: merge the prediction
		// statistics and inject the cross-shard work that has arrived, in
		// canonical order.
		if r.predict {
			r.mergePredict()
		}
		for next < len(r.cross) && r.cross[next].spec.Arrival <= time.Duration(b) {
			r.inject(r.cross[next], time.Duration(b))
			next++
		}
		if next < len(r.cross) {
			continue // future arrivals pending; keep stepping
		}
		done, pending := true, false
		for _, e := range r.engines {
			if !e.Done() {
				done = false
			}
			if e.PendingEvents() > 0 {
				pending = true
			}
		}
		if done {
			break
		}
		if !pending {
			return Result{}, fmt.Errorf("shard: stalled at epoch %d (t=%v): live transactions with empty calendars", k, time.Duration(b))
		}
	}
	res := Result{outcomes: make([]core.ServiceOutcome, r.n), Epochs: epochs}
	for i, e := range r.engines {
		if _, err := e.FinishRun(); err != nil {
			return Result{}, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	runs := make([]*metrics.Run, len(r.engines))
	for i, e := range r.engines {
		rn := e.RunSnapshot()
		runs[i] = &rn
	}
	merged := metrics.MergeRuns(runs...)
	res.Metrics = merged.Result()
	for i, e := range r.engines {
		all := e.TxnOutcomes()
		for li, gid := range r.global[i] {
			res.outcomes[gid] = all[li]
		}
	}
	for _, c := range r.cross {
		o := foldParts(c.spec.Arrival, c.spec.Deadline, c.outcomes)
		res.outcomes[c.spec.ID] = o
		res.Cross.Total++
		committed := 0
		for _, po := range c.outcomes {
			if po.State == core.StateCommitted {
				committed++
			}
		}
		switch {
		case o.State == core.StateCommitted:
			res.Cross.Committed++
			if o.Missed {
				res.Cross.Missed++
			}
		default:
			res.Cross.Missed++
			if committed > 0 {
				res.Cross.Partial++
			}
		}
	}
	return res, nil
}

// mergePredict folds the per-shard conflict-statistics tables into one
// merged table (ascending shard order — the canonical order, so the merge
// is a pure function of the shard states, not goroutine timing) and
// installs the same frozen view on every shard. Shards keep recording into
// their own tables; only the read side is globalised. Runs on the runner
// goroutine between lockstep rounds, so no shard is evaluating.
func (r *Runner) mergePredict() {
	merged := r.engines[0].PredictTable().Clone()
	for _, e := range r.engines[1:] {
		merged.Merge(e.PredictTable())
	}
	for _, e := range r.engines {
		e.SetPredictView(merged)
	}
}

// inject submits one logical cross-shard transaction's parts, in ascending
// shard order, at the epoch boundary `now`. The completion slots are answered
// inside the shards' event processing (on their round goroutines); each
// writes only its own outcome slot, and the lockstep barrier orders every
// write before the runner reads them, so no lock is needed.
func (r *Runner) inject(c *crossEntry, now time.Duration) {
	c.outcomes = make([]core.ServiceOutcome, len(c.parts))
	for pi := range c.parts {
		p := &c.parts[pi]
		spec := p.Spec // Arrival and Deadline are this injection's; the engine copies it
		spec.Arrival = now
		if r.cfg.FirmDeadlines && spec.Deadline < now {
			// The deadline passed while the transaction waited for the
			// boundary; a past deadline event is unschedulable. Clamping to
			// now preserves the semantics: it is dropped immediately.
			spec.Deadline = now
		}
		pi := pi
		r.engines[p.Shard].SubmitSpec(&spec, func(o core.ServiceOutcome, _ error) {
			c.outcomes[pi] = o
		})
	}
}

// foldParts folds one cross-shard transaction's part outcomes into its
// logical outcome — the one definition both the virtual Runner and the
// wall-clock Service report: committed iff every part committed (finish =
// latest part, missed against the logical deadline); otherwise rejected
// dominates dropped, and a part without a terminal state (its shard
// answered with an error) counts as dropped; restarts sum.
func foldParts(arrival, deadline time.Duration, parts []core.ServiceOutcome) core.ServiceOutcome {
	o := core.ServiceOutcome{
		State:    core.StateCommitted,
		Arrival:  arrival,
		Deadline: deadline,
	}
	for _, po := range parts {
		o.Restarts += po.Restarts
		switch po.State {
		case core.StateRejected:
			o.State = core.StateRejected
		case core.StateCommitted:
			if po.Finish > o.Finish {
				o.Finish = po.Finish
			}
		default:
			if o.State != core.StateRejected {
				o.State = core.StateDropped
			}
		}
	}
	if o.State == core.StateCommitted {
		o.Response = o.Finish - o.Arrival
		o.Missed = o.Finish > o.Deadline
	} else {
		o.Finish = 0
		o.Response = 0
		o.Missed = true
	}
	return o
}
