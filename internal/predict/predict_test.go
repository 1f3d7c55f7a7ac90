package predict

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{Types: 8, Window: 10 * time.Millisecond, Windows: 4, Decay: 0.5}
}

// event is one recorded observation for the property tests.
type event struct {
	k    Kind
	a, b int
	at   time.Duration
}

func randomEvents(rng *rand.Rand, n, types int, span time.Duration) []event {
	evs := make([]event, n)
	at := time.Duration(0)
	for i := range evs {
		at += time.Duration(rng.Int63n(int64(span / time.Duration(n))))
		evs[i] = event{
			k:  Kind(rng.Intn(numKinds)),
			a:  rng.Intn(types),
			b:  rng.Intn(types),
			at: at,
		}
	}
	return evs
}

func record(t *Table, evs []event) {
	for _, ev := range evs {
		t.Record(ev.k, ev.a, ev.b, ev.at)
	}
}

// cellState is one cell of a table's canonical form.
type cellState struct {
	cell   int
	base   int64
	counts []uint32
}

// tableState is a table's canonical form: its configuration and each cell
// with a count, with its window base and its counts. A cell whose counts are
// all zero is left out, because every read of it is 0 and the next Record
// re-bases it, so two tables with equal forms answer every query alike.
type tableState struct {
	cfg   Config
	cells []cellState
}

func canonical(tab *Table) tableState {
	st := tableState{cfg: tab.cfg}
	n := tab.cfg.Windows * numKinds
	for cell := 0; cell < tab.cells; cell++ {
		row := tab.counts[cell*n : (cell+1)*n]
		for _, c := range row {
			if c != 0 {
				st.cells = append(st.cells, cellState{cell, tab.base[cell], append([]uint32(nil), row...)})
				break
			}
		}
	}
	return st
}

func sameTable(a, b *Table) bool { return reflect.DeepEqual(canonical(a), canonical(b)) }

// TestOrderDeterministic: the final table depends only on the multiset of
// recorded events, not their order — even across windows (a stale event is
// filed into its historical bucket, or dropped once it is past the ring,
// exactly as a timely record would have converged to).
func TestOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		evs := randomEvents(rng, 200, 8, 300*time.Millisecond)
		ref := New(testConfig())
		record(ref, evs)

		shuffled := append([]event(nil), evs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := New(testConfig())
		record(got, shuffled)
		if !sameTable(ref, got) {
			t.Fatalf("trial %d: shuffled event order produced a different table", trial)
		}
	}
}

// TestReadsArePure: queries mutate nothing — any interleaving of reads at
// any instants returns the same values, and reads never perturb later
// writes.
func TestReadsArePure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	evs := randomEvents(rng, 300, 8, 200*time.Millisecond)
	tab := New(testConfig())
	record(tab, evs)
	pristine := tab.Clone()

	nows := []time.Duration{0, 40 * time.Millisecond, 123 * time.Millisecond, 200 * time.Millisecond, time.Hour}
	type key struct {
		a, b int
		at   time.Duration
	}
	first := map[key]float64{}
	for pass := 0; pass < 3; pass++ {
		for _, now := range nows {
			for a := 0; a < 8; a++ {
				for b := 0; b < 8; b++ {
					r := tab.Rate(a, b, now)
					k := key{a, b, now}
					if pass == 0 {
						first[k] = r
					} else if r != first[k] {
						t.Fatalf("Rate(%d,%d,%v) moved from %v to %v across read passes", a, b, now, first[k], r)
					}
				}
			}
			tab.TopPairs(now, 4)
			tab.ActivePairs(now)
		}
	}
	if !sameTable(pristine, tab) {
		t.Fatal("reads mutated the table")
	}
}

// TestDecaySemantics pins the decay law: an event aged a windows weighs
// Decay^a, and weighs zero once it leaves the ring.
func TestDecaySemantics(t *testing.T) {
	cfg := testConfig() // Window 10ms, 4 windows, decay 0.5
	tab := New(cfg)
	tab.Record(Wound, 1, 2, 5*time.Millisecond) // window 0

	cases := []struct {
		now  time.Duration
		want float64
	}{
		{7 * time.Millisecond, 1},     // age 0
		{15 * time.Millisecond, 0.5},  // age 1
		{25 * time.Millisecond, 0.25}, // age 2
		{39 * time.Millisecond, 0.125},
		{40 * time.Millisecond, 0}, // age 4: out of the ring
		{time.Hour, 0},
	}
	for _, c := range cases {
		if got := tab.count(tab.cellOf(2, 1), Wound, c.now); got != c.want {
			t.Errorf("count at %v = %v, want %v", c.now, got, c.want)
		}
	}
}

// TestDecayZeroRetainsNothing: the degenerate-equivalence knob.
func TestDecayZeroRetainsNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Decay = 0
	tab := New(cfg)
	for i := 0; i < 100; i++ {
		tab.Record(Wound, i%8, (i*3)%8, time.Duration(i)*time.Millisecond)
		tab.Record(Commit, i%8, (i*3)%8, time.Duration(i)*time.Millisecond)
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if r := tab.Rate(a, b, 50*time.Millisecond); r != 0 {
				t.Fatalf("Rate(%d,%d) = %v with Decay 0", a, b, r)
			}
		}
	}
	if n := tab.ActivePairs(time.Hour); n != 0 {
		t.Fatalf("%d active pairs with Decay 0", n)
	}
}

// TestMergeEqualsSingle: recording a stream split across N tables and
// merging them (in any canonical order, at any boundary cadence) is
// bit-identical to one table that recorded everything — the shard runner's
// correctness condition.
func TestMergeEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nshards := 1 + rng.Intn(5)
		evs := randomEvents(rng, 400, 8, 500*time.Millisecond)

		single := New(testConfig())
		record(single, evs)

		shards := make([]*Table, nshards)
		for i := range shards {
			shards[i] = New(testConfig())
		}
		for i, ev := range evs {
			shards[i%nshards].Record(ev.k, ev.a, ev.b, ev.at)
		}
		merged := New(testConfig())
		for _, s := range shards {
			merged.Merge(s)
		}
		if !sameTable(single, merged) {
			t.Fatalf("trial %d: merged %d-shard tables differ from the single-table run", trial, nshards)
		}

		// Epoch cadence: merging partial snapshots repeatedly into a fresh
		// view each boundary must agree too (the runner rebuilds the view
		// from scratch each epoch).
		view := New(testConfig())
		for _, s := range shards {
			view.Merge(s)
		}
		if !sameTable(single, view) {
			t.Fatalf("trial %d: rebuilt view differs", trial)
		}
	}
}

// TestMergeCommutes: shard order must not matter for the merged counts
// (the runner fixes ascending shard order; this pins that the choice is
// cosmetic, not load-bearing).
func TestMergeCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	evs := randomEvents(rng, 300, 8, 400*time.Millisecond)
	a, b := New(testConfig()), New(testConfig())
	for i, ev := range evs {
		if i%2 == 0 {
			a.Record(ev.k, ev.a, ev.b, ev.at)
		} else {
			b.Record(ev.k, ev.a, ev.b, ev.at)
		}
	}
	ab := New(testConfig())
	ab.Merge(a)
	ab.Merge(b)
	ba := New(testConfig())
	ba.Merge(b)
	ba.Merge(a)
	if !sameTable(ab, ba) {
		t.Fatal("merge order changed the table")
	}
}

// TestRateDefinition pins the rate law: conflicts/(conflicts+commits) with
// restarts excluded.
func TestRateDefinition(t *testing.T) {
	tab := New(testConfig())
	now := 5 * time.Millisecond
	tab.Record(Wound, 1, 2, now)
	tab.Record(Block, 1, 2, now)
	tab.Record(Commit, 1, 2, now)
	tab.Record(Commit, 1, 2, now)
	tab.Record(Restart, 1, 2, now)
	if got, want := tab.Rate(1, 2, now), 2.0/4.0; got != want {
		t.Fatalf("Rate = %v, want %v", got, want)
	}
	// Unordered pair: (2,1) reads the same cell.
	if tab.Rate(2, 1, now) != tab.Rate(1, 2, now) {
		t.Fatal("pair key is ordered")
	}
	if tab.Rate(3, 3, now) != 0 {
		t.Fatal("untouched pair has nonzero rate")
	}
}

// TestCloneIndependent: a clone shares no state with its origin.
func TestCloneIndependent(t *testing.T) {
	tab := New(testConfig())
	tab.Record(Wound, 0, 1, time.Millisecond)
	c := tab.Clone()
	c.Record(Wound, 0, 1, time.Millisecond)
	if tab.count(tab.cellOf(0, 1), Wound, time.Millisecond) != 1 {
		t.Fatal("clone write visible in origin")
	}
	if c.count(c.cellOf(0, 1), Wound, time.Millisecond) != 2 {
		t.Fatal("clone did not record")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Types: 0},
		{Types: 1, Decay: -0.5},
		{Types: 1, Decay: 1.5},
		{Types: 1, Windows: MaxWindows + 1},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
	ok := Config{Types: 50, Decay: 0.5}
	if err := ok.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
