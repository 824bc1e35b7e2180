package warehouse

import (
	"fmt"
	"sync"

	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
)

// Group commit and delta batching.
//
// ApplyDeltaBatch applies several externally produced deltas under one
// write-lock acquisition and one group commit: every delta's intent is
// appended (and made durable per the log's policy) before its apply, as in
// the single-delta path, but the commit records of the whole batch are
// appended together and flushed with a single fsync. Per-delta atomicity
// across views is unchanged: each delta either commits on every view or on
// none. The batch as a whole is NOT all-or-nothing in memory — delta k
// failing does not undo deltas 1..k-1 — but it IS all-or-nothing against a
// crash before the group commit: none of the batch's intents have outcomes
// yet, so recovery discards them whole.
//
// Adjacent insert-only deltas to the same table are coalesced into one
// propagation: the view engines expand and join the concatenated rows once
// (in submission order, so per-group arithmetic is bit-identical to
// applying the members one by one), while each member keeps its own WAL
// intent, LSN, and commit record — recovery replays members individually
// and reaches the same state. Mixed deltas never coalesce: merging a
// delete-carrying delta with its neighbors would reorder deletions relative
// to insertions across member boundaries. A failed coalesced propagation
// falls back to applying the members one by one, preserving the per-delta
// error contract.
//
// ApplyDelta feeds ApplyDeltaBatch by leader combining. A caller that finds
// no batch in flight leads: it applies its own delta together with the
// callers queued behind the previous batch (up to maxGroupCommit in all),
// answers each of them, and hands leadership to the first caller still
// queued. Callers that arrive while a batch is in flight queue and block.
// No goroutine is dedicated to writes, and a lone caller — every
// single-threaded one — takes the plain single-delta path.

// maxGroupCommit caps the deltas one ApplyDelta leader applies together.
const maxGroupCommit = 64

// BatchCommitter is a ChangeLog's group-commit surface (implemented by
// internal/wal.Log): commit records for several LSNs are appended together
// and made durable with one sync.
type BatchCommitter interface {
	CommitBatch(lsns []uint64) error
}

// combiner is ApplyDelta's group-commit state.
type combiner struct {
	mu      sync.Mutex
	leading bool      // a leader's batch is in flight
	queue   []*waiter // callers waiting for the next batch, oldest first
}

// waiter is one queued ApplyDelta call. wake fires exactly once: false
// once err holds the delta's outcome, true when the caller is to lead the
// next batch.
type waiter struct {
	d    maintain.Delta
	err  error
	wake chan bool
}

// ApplyDelta propagates an externally produced delta (a change-log entry)
// to every view. This is the only change path once sources are detached.
// It is all-or-nothing across views: on error no view reflects the delta.
// Concurrent callers are group-committed (see the comment at the top of
// this file); each gets its own delta's outcome.
func (w *Warehouse) ApplyDelta(d maintain.Delta) error {
	c := &w.commits
	c.mu.Lock()
	if c.leading {
		me := &waiter{d: d, wake: make(chan bool, 1)}
		c.queue = append(c.queue, me)
		c.mu.Unlock()
		if lead := <-me.wake; !lead {
			return me.err
		}
		c.mu.Lock()
	}
	c.leading = true
	n := min(len(c.queue), maxGroupCommit-1)
	// Only appends touch the queue after this, so the taken prefix is the
	// leader's alone.
	followers := c.queue[:n:n]
	c.queue = c.queue[n:]
	c.mu.Unlock()

	var err error
	if n == 0 {
		err = w.applyAlone(d)
	} else {
		ds := make([]maintain.Delta, 0, 1+n)
		ds = append(ds, d)
		for _, f := range followers {
			ds = append(ds, f.d)
		}
		errs := w.ApplyDeltaBatch(ds)
		err = errs[0]
		for i, f := range followers {
			f.err = errs[1+i]
			f.wake <- false
		}
	}

	c.mu.Lock()
	if len(c.queue) == 0 {
		c.leading = false
		c.mu.Unlock()
		return err
	}
	next := c.queue[0]
	c.queue = c.queue[1:]
	c.mu.Unlock()
	next.wake <- true
	return err
}

// applyAlone is a batch of one: the single-delta path, counted in the
// batch metrics like any other batch.
func (w *Warehouse) applyAlone(d maintain.Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.met.batchSize.Observe(1)
	w.met.batchDeltas.Inc()
	if w.cat.Table(d.Table) == nil {
		return fmt.Errorf("warehouse: unknown table %s", d.Table)
	}
	return w.logAndPropagate(d, false)
}

// coalescible reports whether a delta may join an insert-only coalescing
// group.
func coalescible(d maintain.Delta) bool {
	return len(d.Inserts) > 0 && len(d.Deletes) == 0 && len(d.Updates) == 0
}

// coalesceGroups partitions the batch indexes into propagation groups:
// runs of adjacent insert-only deltas to the same table merge; every other
// delta forms a singleton group. Indexes that already failed are skipped
// entirely.
func coalesceGroups(ds []maintain.Delta, errs []error) [][]int {
	var groups [][]int
	for i := range ds {
		if errs[i] != nil {
			continue
		}
		n := len(groups)
		if n > 0 && coalescible(ds[i]) {
			last := groups[n-1]
			j := last[len(last)-1]
			if coalescible(ds[j]) && ds[j].Table == ds[i].Table {
				groups[n-1] = append(last, i)
				continue
			}
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// mergeInserts concatenates the insert rows of a coalescing group in
// member order.
func mergeInserts(ds []maintain.Delta, g []int) maintain.Delta {
	n := 0
	for _, i := range g {
		n += len(ds[i].Inserts)
	}
	merged := maintain.Delta{Table: ds[g[0]].Table}
	merged.Inserts = make([]tuple.Tuple, 0, n)
	for _, i := range g {
		merged.Inserts = append(merged.Inserts, ds[i].Inserts...)
	}
	return merged
}

// ApplyDeltaBatch applies a batch of externally produced deltas (see the
// package comment above for the protocol). The returned slice has one
// entry per input delta: nil when that delta committed, its error
// otherwise. Deltas after a failed one are still applied — the batch is a
// queue drain, not a transaction.
func (w *Warehouse) ApplyDeltaBatch(ds []maintain.Delta) []error {
	errs := make([]error, len(ds))
	if len(ds) == 0 {
		return errs
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.met.batchSize.Observe(int64(len(ds)))
	w.met.batchDeltas.Add(int64(len(ds)))

	for i, d := range ds {
		if w.cat.Table(d.Table) == nil {
			errs[i] = fmt.Errorf("warehouse: unknown table %s", d.Table)
		}
	}

	// lsns[i] is delta i's intent LSN once logged; pending lists the batch
	// indexes that applied and await their commit record, in LSN order.
	lsns := make([]uint64, len(ds))
	var pending []int

	propagateOne := func(i int) {
		if err := w.propagate(ds[i]); err != nil {
			if w.wal != nil {
				_ = w.wal.Abort(lsns[i])
			}
			errs[i] = err
			return
		}
		pending = append(pending, i)
	}

	for _, g := range coalesceGroups(ds, errs) {
		// Intent-before-apply, per member: a member whose intent cannot be
		// logged is not applied.
		if w.wal != nil {
			applicable := g[:0]
			for _, i := range g {
				lsn, err := w.logIntent(ds[i], false)
				if err != nil {
					errs[i] = err
					continue
				}
				lsns[i] = lsn
				applicable = append(applicable, i)
			}
			g = applicable
		}
		switch {
		case len(g) == 0:
		case len(g) == 1:
			propagateOne(g[0])
		default:
			// Coalesced propagation: one expand/join/adjust pass over the
			// concatenated rows. On failure the engines rolled the merged
			// delta back, so the members can be retried one by one.
			if err := w.propagate(mergeInserts(ds, g)); err == nil {
				w.met.batchCoalesced.Add(int64(len(g)))
				pending = append(pending, g...)
			} else {
				for _, i := range g {
					propagateOne(i)
				}
			}
		}
	}

	if w.wal == nil || len(pending) == 0 {
		return errs
	}
	commit := make([]uint64, len(pending))
	for k, i := range pending {
		commit[k] = lsns[i]
	}
	cerr := w.fi.Fire(faultinject.BatchCommit)
	if cerr == nil {
		cerr = w.wal.CommitBatch(commit)
	}
	if cerr != nil {
		for _, i := range pending {
			errs[i] = fmt.Errorf("warehouse: delta applied in memory but WAL commit failed (not durable): %w", cerr)
		}
		return errs
	}
	w.lsn.Store(commit[len(commit)-1])
	return errs
}
