package warehouse

import (
	"fmt"

	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
)

// Group commit and delta batching.
//
// ApplyDeltaBatch applies several externally produced deltas under one
// write-lock acquisition and — when the warehouse's ChangeLog supports it —
// one group commit: every delta's intent is appended (and made durable per
// the log's policy) before its apply, as in the single-delta path, but the
// commit records of the whole batch are appended together and flushed with
// a single fsync. Per-delta atomicity across views is unchanged: each delta
// either commits on every view or on none. The batch as a whole is NOT
// all-or-nothing in memory — delta k failing does not undo deltas 1..k-1 —
// but it IS all-or-nothing against a crash before the group commit: none of
// the batch's intents have outcomes yet, so recovery discards them whole.
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

// BatchCommitter is the optional group-commit surface of a ChangeLog
// (implemented by internal/wal.Log): commit records for several LSNs are
// appended together and made durable with one sync. Logs without it fall
// back to per-delta Commit calls.
type BatchCommitter interface {
	CommitBatch(lsns []uint64) error
}

// coalescible reports whether a delta may join an insert-only coalescing
// group.
func coalescible(d maintain.Delta) bool {
	return len(d.Inserts) > 0 && len(d.Deletes) == 0 && len(d.Updates) == 0
}

// coalesceGroups partitions the batch indexes into propagation groups:
// runs of adjacent insert-only deltas to the same table merge; every other
// delta forms a singleton group. Invalid indexes (nil table, prior error)
// are skipped entirely.
func coalesceGroups(ds []maintain.Delta, valid []bool) [][]int {
	var groups [][]int
	for i := range ds {
		if !valid[i] {
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

	valid := make([]bool, len(ds))
	for i, d := range ds {
		if w.cat.Table(d.Table) == nil {
			errs[i] = fmt.Errorf("warehouse: unknown table %s", d.Table)
			continue
		}
		valid[i] = true
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

	for _, g := range coalesceGroups(ds, valid) {
		// Intent-before-apply, per member: a member whose intent cannot be
		// logged is not applied.
		if w.wal != nil {
			applicable := g[:0]
			for _, i := range g {
				lsn, err := w.wal.BeginDelta(ds[i], false)
				if err != nil {
					errs[i] = fmt.Errorf("warehouse: wal append: %w", err)
					continue
				}
				lsns[i] = lsn
				if ferr := w.fi.Fire(faultinject.WALLogged); ferr != nil {
					_ = w.wal.Abort(lsn)
					errs[i] = ferr
					continue
				}
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
	if ferr := w.fi.Fire(faultinject.BatchCommit); ferr != nil {
		for _, i := range pending {
			errs[i] = fmt.Errorf("warehouse: delta applied in memory but WAL commit failed (not durable): %w", ferr)
		}
		return errs
	}
	commit := make([]uint64, len(pending))
	for k, i := range pending {
		commit[k] = lsns[i]
	}
	var cerr error
	if bc, ok := w.wal.(BatchCommitter); ok {
		cerr = bc.CommitBatch(commit)
	} else {
		for _, lsn := range commit {
			if cerr = w.wal.Commit(lsn); cerr != nil {
				break
			}
		}
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
