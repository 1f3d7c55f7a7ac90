package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/txn"
)

// conflictIndex incrementally maintains the conflict state the scheduler
// queries at every scheduling point, so that CCA's continuous priority
// evaluation (penaltyOfConflict) and the IOwait-schedule compatibility test
// run in time proportional to the transactions that actually overlap
// instead of rescanning every live transaction's bitset
// (O(live × DBSize/64) per query).
//
// The index consists of:
//
//   - items, one record per data item holding two inverted indexes: has,
//     the partially executed transactions that have accessed (locked) the
//     item — updated on lock acquisition, commit release and abort release,
//     and itself the lock table (locks.go) — and its mirror might, the live transactions whose might-access set
//     contains the item — updated on arrival, Engine.setMight and departure,
//     and kept only for evalConflictClocked policies.
//   - plist, the paper's P-list: the live transactions with at least one
//     accessed item, as a dense slice for cheap iteration (the paper
//     observes it averages 1–2 members).
//   - hot, the conflict neighbourhood of the P-list: exactly the live
//     transactions whose might-set meets the has-set of some *other*
//     member — the only transactions whose penalty of conflict can be
//     non-zero, hence the only ones a dispatch pass has to re-evaluate
//     (see Engine.refreshPriorities). It is maintained, not rebuilt: each
//     transaction counts its (item, holder) pairs in Txn.hotRefs, and a
//     change to one item's has or might list adjusts the counts of that
//     item's claimants only (shiftHot). A transaction's own locks never
//     count — its penalty excludes itself — so traffic without conflicts
//     keeps the set empty and pays nothing for it. A transaction whose
//     count falls to zero leaves the set and is queued for the one
//     re-evaluation that returns it to its constant.
//   - gen, a generation counter bumped by every has-set change: while it
//     and the simulated clock stand still every penalty is provably
//     constant (a running overlapper's service time grows only with the
//     clock), which is the key the dispatch pass's evaluation memo uses.
//
// With the index, penaltyOfConflict walks the holders of the items the
// transaction might access (deduplicated with a visit stamp — no
// allocation), and the IOwait-schedule test intersects against the P-list
// only. Under Config.CheckInvariants verify rebuilds the index by brute force
// and Engine.verifyPriorities compares every penalty with the full scan
// (Engine.penaltyOfConflictScan) at every scheduling point.

// itemHolders is one inverted-index entry: the transactions listed against
// one item. The first is stored inline: without shared locks an item never
// has a second holder, and a cold item rarely a second claimant, so the
// common case allocates no per-item slice at all.
type itemHolders struct {
	first *Txn   // nil = none
	extra []*Txn // the others, grown on demand
}

func (h *itemHolders) remove(t *Txn) {
	n := len(h.extra)
	if h.first == t {
		h.first = nil
		if n > 0 {
			h.first = h.extra[n-1]
		}
	} else {
		i := slices.Index(h.extra, t)
		if i < 0 {
			return
		}
		h.extra[i] = h.extra[n-1]
	}
	if n > 0 {
		// Clear the vacated slot: a stale pointer past len would keep a
		// finished transaction (and its bitsets) reachable.
		h.extra[n-1] = nil
		h.extra = h.extra[:n-1]
	}
}

// each calls fn for every listed transaction.
func (h *itemHolders) each(fn func(*Txn)) {
	if h.first == nil {
		return
	}
	fn(h.first)
	for _, t := range h.extra {
		fn(t)
	}
}

// itemRecord is the index's per-item state; both directions share it so a
// might-set walk finds the item's holders on the cache line it already
// touched.
type itemRecord struct {
	has   itemHolders // partially executed transactions that accessed the item
	might itemHolders // live transactions that might access it
}

type conflictIndex struct {
	items []itemRecord
	// plist holds the live transactions with a non-empty has-set; each
	// member's plistIdx is its position (swap-remove keeps it dense).
	plist []*Txn
	// gen increments on every has-set mutation and at the end of every
	// rollback section; evaluation memos carry the generation they were
	// computed at.
	gen uint64
	// stamp is the visit marker for the penalty walk's deduplication.
	stamp uint64

	// hot is the P-list's conflict neighbourhood: the live transactions
	// with hotRefs > 0, each at position hotIdx (swap-remove keeps it dense).
	hot []*Txn

	// slab is the unused rest of the current overflow chunk (listAdd).
	slab []*Txn
}

// overflowCap is the capacity an entry's overflow list starts with, and
// overflowChunk how many such lists one allocation supplies: an item's
// first overflow is carved from a shared chunk, so a run that touches
// thousands of contended items allocates a handful of chunks, not a slice
// per item. A list outgrowing overflowCap falls back to append's growth.
const (
	overflowCap   = 4
	overflowChunk = 256
)

// listAdd lists t in h.
func (ci *conflictIndex) listAdd(h *itemHolders, t *Txn) {
	if h.first == nil {
		h.first = t
		return
	}
	if h.extra == nil {
		if len(ci.slab) < overflowCap {
			ci.slab = make([]*Txn, overflowChunk*overflowCap)
		}
		h.extra, ci.slab = ci.slab[:0:overflowCap], ci.slab[overflowCap:]
	}
	h.extra = append(h.extra, t)
}

// newConflictIndex returns an empty index over a database of dbSize items.
// gen starts at 1 so a zero Txn.evalGen never matches a live generation.
func newConflictIndex(dbSize int) *conflictIndex {
	return &conflictIndex{items: make([]itemRecord, dbSize), gen: 1}
}

// mightAdd lists t against every item of its might-set and counts the
// holders, other than t itself, it finds there.
func (ci *conflictIndex) mightAdd(e *Engine, t *Txn) {
	refs := 0
	count := func(p *Txn) {
		if p != t {
			refs++
		}
	}
	for _, it := range t.mightItems {
		rec := &ci.items[int(it)]
		ci.listAdd(&rec.might, t)
		rec.has.each(count)
	}
	ci.shiftHot(e, t, refs)
}

// mightRemove undoes mightAdd (departure, or setMight switching sets).
func (ci *conflictIndex) mightRemove(e *Engine, t *Txn) {
	for _, it := range t.mightItems {
		ci.items[int(it)].might.remove(t)
	}
	ci.shiftHot(e, t, -t.hotRefs)
}

// shiftHot adds d to t's count of (item, holder) pairs and moves t into or
// out of the hot set as the count leaves or reaches zero. A leaver's stored
// priority still carries the penalty it no longer has, so it is queued for
// one re-evaluation.
func (ci *conflictIndex) shiftHot(e *Engine, t *Txn, d int) {
	was := t.hotRefs
	t.hotRefs += d
	switch {
	case was == 0 && d > 0:
		t.hotIdx = len(ci.hot)
		ci.hot = append(ci.hot, t)
	case was > 0 && t.hotRefs == 0:
		last := len(ci.hot) - 1
		moved := ci.hot[last]
		ci.hot[t.hotIdx] = moved
		moved.hotIdx = t.hotIdx
		ci.hot[last] = nil
		ci.hot = ci.hot[:last]
		t.evalValid = false
		e.markStale(t)
	}
}

// shiftClaimants adds d to the count of every claimant of rec's item other
// than holder, whose lock on it was just taken (d = 1) or released (d = -1).
func (ci *conflictIndex) shiftClaimants(e *Engine, rec *itemRecord, holder *Txn, d int) {
	rec.might.each(func(c *Txn) {
		if c != holder {
			ci.shiftHot(e, c, d)
		}
	})
}

// hasAdd records that t has accessed (locked) a new item. Callers must not
// report an item already in t.has.
func (ci *conflictIndex) hasAdd(e *Engine, t *Txn, it txn.Item) {
	rec := &ci.items[int(it)]
	ci.listAdd(&rec.has, t)
	ci.shiftClaimants(e, rec, t, 1)
	if t.plistIdx < 0 {
		t.plistIdx = len(ci.plist)
		ci.plist = append(ci.plist, t)
	}
	ci.gen++
}

// deindexHas removes every item of t.has from the inverted index and t
// from the P-list (abort release, commit, drop). It reads t.has but does
// not clear it; callers that empty the set (abort, drop) do so afterwards.
func (ci *conflictIndex) deindexHas(e *Engine, t *Txn) {
	if t.plistIdx < 0 {
		return
	}
	for _, it := range t.items {
		if t.has.contains(it) {
			rec := &ci.items[int(it)]
			rec.has.remove(t)
			ci.shiftClaimants(e, rec, t, -1)
		}
	}
	last := len(ci.plist) - 1
	moved := ci.plist[last]
	ci.plist[t.plistIdx] = moved
	moved.plistIdx = t.plistIdx
	ci.plist = ci.plist[:last]
	t.plistIdx = -1
	ci.gen++
}

// penalty computes the paper's TL for t from the inverted index: the sum
// over the distinct partially executed holders of items t might access.
// The visit stamp deduplicates holders of several overlapping items
// without allocating.
func (ci *conflictIndex) penalty(e *Engine, t *Txn) time.Duration {
	ci.stamp++
	var sum time.Duration
	visit := func(p *Txn) {
		if p == t || p.seenStamp == ci.stamp {
			return
		}
		p.seenStamp = ci.stamp
		sum += e.serviceNow(p)
		if e.cfg.penaltyIncludesRollback {
			sum += e.rollbackCost(p)
		}
	}
	for _, it := range t.mightItems {
		ci.items[int(it)].has.each(visit)
	}
	return sum
}

// verify recomputes the whole index by brute force and panics on any
// divergence. It runs only under Config.CheckInvariants, giving every
// invariant-enabled engine test full coverage of the incremental updates.
func (ci *conflictIndex) verify(e *Engine) {
	inPlist := make(map[*Txn]bool, len(ci.plist))
	for i, t := range ci.plist {
		if t.plistIdx != i {
			panic(fmt.Sprintf("core: T%d plistIdx %d but sits at %d", t.id(), t.plistIdx, i))
		}
		if inPlist[t] {
			panic(fmt.Sprintf("core: T%d on the P-list twice", t.id()))
		}
		inPlist[t] = true
	}
	live := 0
	for t := e.live.head; t != nil; t = t.liveNext {
		if pe := t.partiallyExecuted(); pe != inPlist[t] {
			panic(fmt.Sprintf("core: conflict index P-list disagrees for T%d (partially executed %v)", t.id(), pe))
		}
		if inPlist[t] {
			live++
		}
	}
	if live != len(ci.plist) {
		panic(fmt.Sprintf("core: P-list has %d members, %d of which are live", len(ci.plist), live))
	}
	ci.verifyInverted(e, "has", func(r *itemRecord) *itemHolders { return &r.has },
		func(t *Txn) bitset { return t.has })
	ci.verifyInverted(e, "might", func(r *itemRecord) *itemHolders { return &r.might },
		func(t *Txn) bitset {
			if !e.tracksMight() {
				return nil // the mirror index is not kept: every list must be empty
			}
			return t.might
		})
}

// verifyInverted checks one direction of the index against the sets it
// mirrors: every entry names a live transaction whose set contains the
// item, no entry repeats, and the entry count equals the sets' total size —
// together, the lists are exactly the sets, inverted.
func (ci *conflictIndex) verifyInverted(e *Engine, name string, dir func(*itemRecord) *itemHolders, set func(*Txn) bitset) {
	entries := 0
	for i := range ci.items {
		hs := dir(&ci.items[i])
		if hs.first == nil && len(hs.extra) > 0 {
			panic(fmt.Sprintf("core: %s index item %d has overflow entries but no first", name, i))
		}
		seen := make(map[*Txn]bool, 1+len(hs.extra))
		hs.each(func(t *Txn) {
			if seen[t] {
				panic(fmt.Sprintf("core: %s index item %d lists T%d twice", name, i, t.id()))
			}
			seen[t] = true
			if b := set(t); !t.inLive || b == nil || !b.contains(txn.Item(i)) {
				panic(fmt.Sprintf("core: stale %s index entry T%d item %d", name, t.id(), i))
			}
			entries++
		})
	}
	want := 0
	for t := e.live.head; t != nil; t = t.liveNext {
		if b := set(t); b != nil {
			want += b.count()
		}
	}
	if entries != want {
		panic(fmt.Sprintf("core: %s index lists %d entries, the live sets hold %d", name, entries, want))
	}
}

// verifyHot asserts, by brute force, that the hot set is exact: a live
// transaction is in it if and only if some other P-list member's has-set
// meets its might-set, and its hotRefs is the number of such (item, holder)
// pairs — so every transaction outside it has a zero penalty of conflict.
// Called (under Config.CheckInvariants) where the dispatch pass relies on
// it: right after the incremental re-evaluation.
func (ci *conflictIndex) verifyHot(e *Engine) {
	members := 0
	for t := e.live.head; t != nil; t = t.liveNext {
		refs := 0
		for _, p := range ci.plist {
			if p == t {
				continue
			}
			for _, it := range t.mightItems {
				if p.has.contains(it) {
					refs++
				}
			}
		}
		if t.hotRefs != refs {
			panic(fmt.Sprintf("core: T%d counts %d conflicting (item, holder) pairs, brute force finds %d (penalty %v)",
				t.id(), t.hotRefs, refs, e.penaltyOfConflictScan(t)))
		}
		if refs > 0 {
			if t.hotIdx >= len(ci.hot) || ci.hot[t.hotIdx] != t {
				panic(fmt.Sprintf("core: T%d has %d conflicting pairs but is outside the hot set", t.id(), refs))
			}
			members++
		}
	}
	if members != len(ci.hot) {
		panic(fmt.Sprintf("core: hot set has %d members, %d live transactions conflict", len(ci.hot), members))
	}
}
