// Package predict maintains online per-type-pair conflict statistics for
// the conflict-prediction scheduling policies (CCA-P, CCA-T in
// internal/core).
//
// A Table counts scheduler decisions — blocks, wounds, restarts, commits —
// per unordered pair of transaction types (the key space of the workload
// generator's type table), bucketed into fixed-width windows of simulated
// time. Reads weight each bucket by Decay^age, so stale history ages out;
// buckets older than the ring (Windows buckets) weigh zero and are dropped
// lazily.
//
// Determinism is the design constraint, not an afterthought:
//
//   - state is pure integer counts keyed by absolute window index, so the
//     final table depends only on the multiset of recorded events, never on
//     their order within a window;
//   - reads (Rate, count, TopPairs) are pure functions of (state, now) — no
//     mutation, no wall clock — so concurrent readers are safe and a query
//     at time t returns the same value no matter when buckets were shifted;
//   - Merge adds counts bucket-wise by absolute window, so merging N
//     per-shard tables is bit-identical to one table that recorded all N
//     event streams (the shard runner's epoch-boundary exchange relies on
//     this).
package predict

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Kind is the class of recorded scheduler event.
type Kind uint8

const (
	// Block: a requester waited for a holder on a data conflict.
	Block Kind = iota
	// Wound: a requester aborted a holder on a data conflict.
	Wound
	// Restart: a transaction was aborted (for any reason) and will rerun.
	Restart
	// Commit: a transaction committed while its pair peer was partially
	// executed (the conflict-rate denominator).
	Commit

	// numKinds is the number of event kinds.
	numKinds = 4
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Block:
		return "block"
	case Wound:
		return "wound"
	case Restart:
		return "restart"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Defaults for the zero fields of Config.
const (
	defaultWindow  = 50 * time.Millisecond
	defaultWindows = 8
	// MaxWindows bounds the ring so the decay power table and the
	// serialization stay small.
	MaxWindows = 64
)

// Config sizes a Table.
type Config struct {
	// Types is the number of transaction types; pairs are unordered
	// (type_i, type_j), so the table has Types·(Types+1)/2 cells.
	Types int
	// Window is the bucket width in simulated time (0 = defaultWindow).
	Window time.Duration
	// Windows is the ring length: events older than Windows·Window weigh
	// zero and are discarded (0 = defaultWindows; max MaxWindows).
	Windows int
	// Decay is the per-window weight multiplier in [0, 1]: an event aged a
	// windows contributes Decay^a. Decay 0 disables the table — nothing is
	// retained and every rate reads 0 (the degenerate-equivalence knob).
	Decay float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = defaultWindow
	}
	if c.Windows <= 0 {
		c.Windows = defaultWindows
	}
	return c
}

// validate reports the first problem with the configuration (after
// defaulting zero fields).
func (c Config) validate() error {
	c = c.withDefaults()
	if c.Types <= 0 {
		return fmt.Errorf("predict: Types %d <= 0", c.Types)
	}
	if c.Windows > MaxWindows {
		return fmt.Errorf("predict: Windows %d > %d", c.Windows, MaxWindows)
	}
	if math.IsNaN(c.Decay) || c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("predict: Decay %v outside [0, 1]", c.Decay)
	}
	return nil
}

// Table is the per-type-pair statistics table. Writes (Record, Merge) must
// be externally serialized; reads are pure and safe concurrently with each
// other (but not with writes).
type Table struct {
	cfg    Config
	cells  int
	powers []float64 // powers[a] = Decay^a for a < Windows
	// base[c] is the absolute window index of cell c's bucket 0 (its newest
	// bucket); -1 while the cell has never recorded. Bucket j covers window
	// base[c]−j.
	base []int64
	// counts is cells × Windows × numKinds, flat.
	counts []uint32
}

// New builds an empty table; it panics on an invalid configuration
// (callers validate configs at the API boundary, not per table).
func New(c Config) *Table {
	if err := c.validate(); err != nil {
		panic(err)
	}
	c = c.withDefaults()
	t := &Table{
		cfg:    c,
		cells:  c.Types * (c.Types + 1) / 2,
		powers: make([]float64, c.Windows),
		counts: make([]uint32, c.Types*(c.Types+1)/2*c.Windows*numKinds),
	}
	t.base = make([]int64, t.cells)
	for i := range t.base {
		t.base[i] = -1
	}
	p := 1.0
	for i := range t.powers {
		t.powers[i] = p
		p *= c.Decay
	}
	return t
}

// clampType folds an out-of-range type (service submissions default to 0,
// which is always valid; anything else is a caller bug we degrade on
// rather than panic in the scheduling hot path) into the keyed range.
func (t *Table) clampType(ty int) int {
	if ty < 0 {
		return 0
	}
	if ty >= t.cfg.Types {
		return t.cfg.Types - 1
	}
	return ty
}

// cellOf returns the triangular index of the unordered pair (a, b).
func (t *Table) cellOf(a, b int) int {
	a, b = t.clampType(a), t.clampType(b)
	if a > b {
		a, b = b, a
	}
	return b*(b+1)/2 + a
}

// windowOf returns the absolute window index of a simulated instant.
func (t *Table) windowOf(now time.Duration) int64 {
	if now < 0 {
		now = 0
	}
	return int64(now / t.cfg.Window)
}

func (t *Table) bucket(cell, j int) []uint32 {
	off := (cell*t.cfg.Windows + j) * numKinds
	return t.counts[off : off+numKinds]
}

// shiftTo advances cell's bucket 0 to window w (w ≥ base), discarding
// buckets that age past the ring.
func (t *Table) shiftTo(cell int, w int64) {
	b := t.base[cell]
	if b < 0 {
		t.base[cell] = w
		return
	}
	if w <= b {
		return
	}
	shift := w - b
	K := t.cfg.Windows
	if shift >= int64(K) {
		row := t.counts[cell*K*numKinds : (cell+1)*K*numKinds]
		for i := range row {
			row[i] = 0
		}
	} else {
		for j := K - 1; j >= int(shift); j-- {
			copy(t.bucket(cell, j), t.bucket(cell, j-int(shift)))
		}
		for j := 0; j < int(shift); j++ {
			bk := t.bucket(cell, j)
			for i := range bk {
				bk[i] = 0
			}
		}
	}
	t.base[cell] = w
}

// Record counts one event of kind k for the pair (a, b) at simulated
// instant now. With Decay 0 the table retains nothing.
func (t *Table) Record(k Kind, a, b int, now time.Duration) {
	if t.cfg.Decay == 0 {
		return
	}
	cell := t.cellOf(a, b)
	w := t.windowOf(now)
	t.shiftTo(cell, w)
	if age := t.base[cell] - w; age > 0 {
		// An event behind the cell's newest window (merge-fed tables only;
		// a single engine's clock never runs backwards): file it into its
		// own bucket, or drop it once it is past the ring — exactly what a
		// timely Record would have converged to.
		if age >= int64(t.cfg.Windows) {
			return
		}
		t.bucket(cell, int(age))[k]++
		return
	}
	t.bucket(cell, 0)[k]++
}

// count returns the decayed count of kind k in cell at now.
func (t *Table) count(cell int, k Kind, now time.Duration) float64 {
	b := t.base[cell]
	if b < 0 {
		return 0
	}
	w := t.windowOf(now)
	var sum float64
	for j := 0; j < t.cfg.Windows; j++ {
		c := t.bucket(cell, j)[k]
		if c == 0 {
			continue
		}
		age := w - (b - int64(j))
		if age < 0 || age >= int64(t.cfg.Windows) {
			continue
		}
		sum += float64(c) * t.powers[age]
	}
	return sum
}

// rate computes the conflict rate of one cell: decayed (blocks + wounds)
// over decayed (blocks + wounds + commits); 0 with no observations.
// Restarts are tracked (count) but deliberately excluded — a wound already
// counted the conflict, and restarts also arise from faults and deadline
// drops that say nothing about this pair.
func (t *Table) rate(cell int, now time.Duration) float64 {
	conf := t.count(cell, Block, now) + t.count(cell, Wound, now)
	if conf == 0 {
		return 0
	}
	return conf / (conf + t.count(cell, Commit, now))
}

// Rate returns the observed conflict rate for the pair (a, b) in [0, 1] as
// of now. Pure; safe for concurrent readers.
func (t *Table) Rate(a, b int, now time.Duration) float64 {
	return t.rate(t.cellOf(a, b), now)
}

// Merge adds src's counts into t, bucket-aligned by absolute window; both
// tables must share one configuration. Merging per-shard tables in any
// fixed order yields a table bit-identical to one that recorded every
// shard's events itself (integer sums are order-free).
func (t *Table) Merge(src *Table) {
	if src == nil {
		return
	}
	if t.cfg != src.cfg {
		panic(fmt.Sprintf("predict: merging mismatched tables (%+v vs %+v)", t.cfg, src.cfg))
	}
	K := t.cfg.Windows
	for cell := 0; cell < t.cells; cell++ {
		sb := src.base[cell]
		if sb < 0 {
			continue
		}
		nb := sb
		if t.base[cell] > nb {
			nb = t.base[cell]
		}
		t.shiftTo(cell, nb)
		off := nb - sb // ≥ 0: src bucket j lands at t bucket j+off
		for j := 0; j < K; j++ {
			jt := j + int(off)
			if jt >= K {
				break
			}
			dst, s := t.bucket(cell, jt), src.bucket(cell, j)
			for i := range dst {
				dst[i] += s[i]
			}
		}
	}
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := New(t.cfg)
	copy(c.base, t.base)
	copy(c.counts, t.counts)
	return c
}

// pairOf inverts cellOf: the (lo, hi) pair of a triangular index.
func (t *Table) pairOf(cell int) (int, int) {
	hi := int((math.Sqrt(float64(8*cell+1)) - 1) / 2)
	// Float inversion can land one off at large indices; correct exactly.
	for hi*(hi+1)/2 > cell {
		hi--
	}
	for (hi+1)*(hi+2)/2 <= cell {
		hi++
	}
	return cell - hi*(hi+1)/2, hi
}

// ActivePairs returns how many pairs have a nonzero decayed observation
// count (of any kind) as of now.
func (t *Table) ActivePairs(now time.Duration) int {
	n := 0
	for cell := 0; cell < t.cells; cell++ {
		if t.base[cell] < 0 {
			continue
		}
		total := 0.0
		for k := Kind(0); k < numKinds; k++ {
			total += t.count(cell, k, now)
		}
		if total > 0 {
			n++
		}
	}
	return n
}

// PairRate is one pair's observability snapshot (for /metrics).
type PairRate struct {
	// A ≤ B are the pair's transaction types.
	A int `json:"a"`
	B int `json:"b"`
	// Rate is the observed conflict rate in [0, 1].
	Rate float64 `json:"rate"`
	// Conflicts and Commits are the decayed numerator and denominator
	// complement behind Rate.
	Conflicts float64 `json:"conflicts"`
	Commits   float64 `json:"commits"`
}

// TopPairs returns the n pairs with the highest conflict rate (ties broken
// by conflict count, then pair index — a total order, so the result is
// deterministic). Pairs with no conflicts are omitted.
func (t *Table) TopPairs(now time.Duration, n int) []PairRate {
	var out []PairRate
	for cell := 0; cell < t.cells; cell++ {
		if t.base[cell] < 0 {
			continue
		}
		conf := t.count(cell, Block, now) + t.count(cell, Wound, now)
		if conf == 0 {
			continue
		}
		a, b := t.pairOf(cell)
		out = append(out, PairRate{
			A: a, B: b,
			Rate:      t.rate(cell, now),
			Conflicts: conf,
			Commits:   t.count(cell, Commit, now),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		if out[i].Conflicts != out[j].Conflicts {
			return out[i].Conflicts > out[j].Conflicts
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].A < out[j].A
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
