package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/trace"
	"repro/internal/txn"
)

// Strict two-phase locking, kept on the conflict index. The holders of item
// i are ci.items[i].has — the same lists CCA's penalty of conflict walks —
// and Txn.has is the same fact per transaction, so there is one lock table
// and ci.verify already proves its two directions agree. A holder's mode is
// read from its own spec: items are distinct within a transaction (the
// request boundaries reject a repeat), so a transaction holds each item in
// the one mode its spec names, and there is no re-entry and no upgrade.
//
// Shared (read) locks are an extension: the paper allows exclusive locks
// only and lists shared ones as future work. The table is policy-free; the
// policy decides whether a conflicting requester wounds the holders (High
// Priority, CCA), waits (EDF-WP) or waits conditionally (EDF-HP with a
// higher-priority holder).
//
// Only the waiting baselines ever queue. A blocked transaction waits for
// the item its next update accesses, on that item's queue, ordered by the
// priority it had when it blocked (waitPr; descending, FIFO among equals),
// so a release grants the most urgent compatible waiters first. CCA never
// waits, so its path reads the queued count and nothing else.

// access returns the item t's current update locks and whether it takes a
// shared lock on it.
func (t *Txn) access() (txn.Item, bool) {
	return t.spec.Items[t.next], len(t.spec.Reads) > 0 && t.spec.Reads[t.next]
}

// reads reports whether t accesses it with a shared lock.
func (t *Txn) reads(it txn.Item) bool {
	if len(t.spec.Reads) == 0 {
		return false
	}
	for i, x := range t.spec.Items {
		if x == it {
			return t.spec.Reads[i]
		}
	}
	return false
}

// blocks reports whether holder h of it keeps t from locking it in the
// given mode: every pair conflicts except two readers.
func blocks(h, t *Txn, it txn.Item, read bool) bool {
	return h != t && !(read && h.reads(it))
}

// conflicting returns, appended to buf[:0], the holders of it that block t,
// in ascending ID order — the order wounds and waits-for edges are taken in.
func (e *Engine) conflicting(buf []*Txn, t *Txn, it txn.Item, read bool) []*Txn {
	buf = buf[:0]
	hs := &e.ci.items[int(it)].has
	if hs.first == nil {
		return buf
	}
	if blocks(hs.first, t, it, read) {
		buf = append(buf, hs.first)
	}
	for _, h := range hs.extra {
		if blocks(h, t, it, read) {
			buf = append(buf, h)
		}
	}
	// Insertion sort: holder lists are tiny (the co-readers of one item).
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j].id() < buf[j-1].id(); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// lockable reports whether t may lock it now: no holder blocks it.
func (e *Engine) lockable(t *Txn, it txn.Item, read bool) bool {
	hs := &e.ci.items[int(it)].has
	if hs.first == nil {
		return true
	}
	if blocks(hs.first, t, it, read) {
		return false
	}
	for _, h := range hs.extra {
		if blocks(h, t, it, read) {
			return false
		}
	}
	return true
}

// enqueue queues t, already in StateLockWait, on the item of its current
// update, behind every request of equal or higher priority.
func (e *Engine) enqueue(t *Txn) {
	if e.waitq == nil {
		e.waitq = make([][]*Txn, len(e.ci.items))
	}
	it, _ := t.access()
	t.waitPr = t.priority
	q := e.waitq[int(it)]
	pos := len(q)
	for i, w := range q {
		if t.waitPr > w.waitPr {
			pos = i
			break
		}
	}
	e.waitq[int(it)] = slices.Insert(q, pos, t)
	e.queued++
}

// cancelWait takes a blocked transaction (wounded or dropped) off its queue
// and makes it ready. The requests behind it may now be grantable — a
// reader queued behind a cancelled writer on a reader-held item — so the
// item's grant pass re-runs.
func (e *Engine) cancelWait(t *Txn) {
	it, _ := t.access()
	q := e.waitq[int(it)]
	i := slices.Index(q, t)
	e.waitq[int(it)] = slices.Delete(q, i, i+1)
	e.queued--
	t.state = stateReady
	e.grantWaiters(it)
}

// releaseLocks releases everything t holds (commit, abort or drop under
// strict 2PL) and grants the requests that become compatible, item by item
// in ascending order. Without a queued request anywhere — always, under
// CCA — it is the conflict index's deindexing and nothing else.
func (e *Engine) releaseLocks(t *Txn) {
	e.ci.deindexHas(e, t)
	if e.queued > 0 {
		t.has.forEach(e.grantWaiters)
	}
}

// grantWaiters grants it's queue front to back, waking each grantee, and
// stops at the first request a holder blocks: a granted writer blocks
// everything behind it, a batch of readers stops at the first writer.
//
// A reader is never held back by a queued writer: it joins the readers
// holding an item even when a writer waits for it. The queue is ordered by
// priority, not arrival, so a FIFO "no bypass" rule does not apply — and
// enforcing one once produced requests blocked while waiting on nobody,
// invisible to the waits-for graph (an undetectable stall). Writer
// starvation is bounded by the priority order: the writer is granted at the
// first release at which it outranks the readers.
func (e *Engine) grantWaiters(it txn.Item) {
	for q := e.waitq[int(it)]; len(q) > 0; q = e.waitq[int(it)] {
		w := q[0]
		_, read := w.access()
		if !e.lockable(w, it, read) {
			return
		}
		e.waitq[int(it)] = slices.Delete(q, 0, 1)
		e.queued--
		e.wake(w, it)
	}
}

// wake gives the granted lock on it to the blocked transaction w and makes
// it ready.
func (e *Engine) wake(w *Txn, it txn.Item) {
	if w.state != StateLockWait {
		panic(fmt.Sprintf("core: waking T%d in state %v", w.id(), w.state))
	}
	e.hasAcquired(w, it)
	w.state = stateReady
	e.tracef("T%d granted item %d, wakes", w.id(), it)
	e.emit(trace.Event{Kind: trace.Wake, Txn: w.id(), Other: -1, Item: it})
}

// waitsFor returns the transactions a blocked t directly waits on: the
// holders of its item that block it, plus the requests queued ahead of it
// (grants are strictly in queue order). The queue edges over-approximate —
// two adjacent readers would in fact be granted together — which can at
// worst abort a deadlock victim slightly early, never miss a real cycle.
// The result is fresh, deduplicated and in ascending ID order; nil when t
// is not blocked.
func (e *Engine) waitsFor(t *Txn) []*Txn {
	if t.state != StateLockWait {
		return nil
	}
	it, read := t.access()
	out := e.conflicting(nil, t, it, read)
	for _, w := range e.waitq[int(it)] {
		if w == t {
			break
		}
		out = append(out, w)
	}
	slices.SortFunc(out, func(a, b *Txn) int { return cmp.Compare(a.id(), b.id()) })
	return slices.Compact(out)
}

// detectCycle searches the waits-for graph for a cycle reachable from t and
// returns its members (nil if none). The waiting baselines resolve
// deadlocks with it; CCA never waits and so never deadlocks.
func (e *Engine) detectCycle(t *Txn) []*Txn {
	const (
		white = iota
		grey
		black
	)
	color := make(map[*Txn]int)
	var stack, cycle []*Txn
	var dfs func(v *Txn) bool
	dfs = func(v *Txn) bool {
		color[v] = grey
		stack = append(stack, v)
		for _, w := range e.waitsFor(v) {
			switch color[w] {
			case grey:
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == w {
						break
					}
				}
				return true
			case white:
				if dfs(w) {
					return true
				}
			}
		}
		color[v] = black
		stack = stack[:len(stack)-1]
		return false
	}
	if dfs(t) {
		return cycle
	}
	return nil
}

// verifyLocks asserts the lock table's own invariants (ci.verify proves the
// has lists equal the has-sets): at most one writer per item and none
// beside another holder; every queue sorted by enqueue priority and made of
// blocked transactions waiting for that item; the head of a queue blocked
// by a holder — a request behind nothing and nobody would never be granted
// and is invisible to the waits-for graph; and one queued request per
// blocked transaction.
func (e *Engine) verifyLocks() {
	for i := range e.ci.items {
		it := txn.Item(i)
		holders, writers := 0, 0
		e.ci.items[i].has.each(func(h *Txn) {
			holders++
			if !h.reads(it) {
				writers++
			}
		})
		if writers > 1 {
			panic(fmt.Sprintf("core: item %d has %d writers", it, writers))
		}
		if writers == 1 && holders > 1 {
			panic(fmt.Sprintf("core: item %d has a writer and %d holders", it, holders))
		}
	}
	queued := 0
	for i, q := range e.waitq {
		for k, w := range q {
			queued++
			if w.state != StateLockWait || !w.inLive {
				panic(fmt.Sprintf("core: T%d queued on item %d in state %v", w.id(), i, w.state))
			}
			it, read := w.access()
			if int(it) != i {
				panic(fmt.Sprintf("core: T%d queued on item %d but waits for item %d", w.id(), i, it))
			}
			if k > 0 && q[k-1].waitPr < w.waitPr {
				panic(fmt.Sprintf("core: item %d wait queue out of priority order at %d", i, k))
			}
			if k == 0 && e.lockable(w, it, read) {
				panic(fmt.Sprintf("core: T%d heads item %d's queue but nothing blocks it", w.id(), i))
			}
		}
	}
	blocked := 0
	for t := e.live.head; t != nil; t = t.liveNext {
		if t.state == StateLockWait {
			blocked++
		}
	}
	if queued != e.queued || queued != blocked {
		panic(fmt.Sprintf("core: %d requests queued, count says %d, %d transactions blocked", queued, e.queued, blocked))
	}
}
