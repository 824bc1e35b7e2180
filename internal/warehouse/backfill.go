package warehouse

import (
	"fmt"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/gpsj"
	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/sqlparse"
)

// backfillState is one CREATE MATERIALIZED VIEW backfill in flight. The
// warehouse registers it under w.mu in the same critical section that
// clones the source snapshot, so every committed delta lands in exactly
// one place: deltas before registration are part of the snapshot, deltas
// after are appended to buf by propagate (which always runs under w.mu)
// and replayed into the unpublished engine during catch-up.
type backfillState struct {
	buf []maintain.Delta // committed deltas awaiting catch-up (guarded by w.mu)
}

// SetBackfillHook installs (nil removes) a test hook fired — while NOT
// holding the warehouse lock — at each stage transition of an online
// backfill: "scan", "catch-up", and "install" (the last immediately
// before the lock is taken for the atomic install). Blocking inside the
// hook keeps the backfill in that stage while Query and ApplyDelta
// traffic proceeds, which is exactly what the concurrency tests do.
func (w *Warehouse) SetBackfillHook(f func(view, stage string)) {
	if f == nil {
		w.backfillHook.Store(nil)
		return
	}
	w.backfillHook.Store(&f)
}

func (w *Warehouse) backfillStage(view, stage string) {
	if f := w.backfillHook.Load(); f != nil {
		(*f)(view, stage)
	}
}

// createViewOnline executes CREATE MATERIALIZED VIEW against a live
// warehouse without holding the write lock for the duration of the
// initial scan. The statement is synchronous for its caller but
// non-blocking for everyone else:
//
//  1. Under w.mu: validate, derive the plan, build the (unpublished)
//     engine, WAL-log the DDL intent, clone the referenced source
//     relations, and register a pending delta buffer. Cloning is a
//     shallow row-slice copy per table (tuples are immutable), so the
//     critical section stays short.
//  2. Off-lock: initialize the engine — the full GPSJ + auxiliary-view
//     scan — from the cloned snapshot. Query and ApplyDelta proceed;
//     committed deltas accumulate in the pending buffer.
//  3. Off-lock: catch up, draining the buffer in chunks through the same
//     staging path propagate uses. The engine is unpublished, so no lock
//     is needed while replaying a chunk.
//  4. Under w.mu: drain the final remainder, install the view atomically
//     (catalog, order, copy-on-write index), and WAL-commit the DDL.
//
// A failure at any point aborts whole: the WAL intent is aborted, the
// pending buffer discarded, and the engine closed (releasing any pager
// stores) — the warehouse is as if the statement never ran. Recovery
// mirrors this: an intent without an outcome is discarded, a committed
// intent re-creates the view at its log position and replays the
// later-LSN deltas — the same order live catch-up applied them.
func (w *Warehouse) createViewOnline(st *sqlparse.CreateView, logSQL string) error {
	w.mu.Lock()
	if w.detached {
		w.mu.Unlock()
		return fmt.Errorf("warehouse: sources are detached; views must be created before detaching")
	}
	if _, dup := w.views[st.Name]; dup {
		w.mu.Unlock()
		return fmt.Errorf("warehouse: view %s already exists", st.Name)
	}
	if _, busy := w.pending[st.Name]; busy {
		w.mu.Unlock()
		return fmt.Errorf("warehouse: view %s backfill already in progress", st.Name)
	}
	v, err := gpsj.FromSelect(w.cat, st.Name, st.Query)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	var plan *core.Plan
	if w.AppendOnly {
		plan, err = core.DeriveAppendOnly(v)
	} else {
		plan, err = core.Derive(v)
	}
	if err != nil {
		w.mu.Unlock()
		return err
	}
	eng, err := maintain.NewEngine(plan)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	eng.UseNeedSets = w.UseNeedSets
	if !w.obsTimingOff {
		eng.SetMetrics(w.met.engineMet)
	}
	if w.auxFactory != nil {
		if err := eng.SetAuxStores(w.adaptFactory(st.Name)); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	lsn, logged, err := w.beginDDL(logSQL)
	if err != nil {
		w.mu.Unlock()
		_ = eng.Close()
		return err
	}
	abortLocked := func(cause error) error {
		delete(w.pending, st.Name)
		w.met.backfillActive.Add(-1)
		w.met.backfillsAborted.Inc()
		w.mu.Unlock()
		_ = eng.Close()
		if logged {
			_ = w.wal.Abort(lsn)
		}
		return cause
	}
	bf := &backfillState{}
	w.pending[st.Name] = bf
	w.met.backfillsStarted.Inc()
	w.met.backfillActive.Add(1)
	if ferr := w.fi.Fire(faultinject.BackfillSnapshot); ferr != nil {
		return abortLocked(ferr)
	}
	// Snapshot the referenced sources inside the same critical section
	// that registered the buffer: no committed delta can fall between.
	snap := make(map[string]*ra.Relation, len(v.Tables))
	for _, t := range v.Tables {
		snap[t] = w.srcRel(t)
	}
	w.mu.Unlock()

	abort := func(cause error) error {
		w.mu.Lock()
		return abortLocked(cause)
	}

	// Phase 2: the initial scan, off-lock over the immutable snapshot.
	w.backfillStage(st.Name, "scan")
	if err := eng.Init(func(table string) *ra.Relation { return snap[table] }); err != nil {
		return abort(err)
	}
	if ferr := w.fi.Fire(faultinject.BackfillScan); ferr != nil {
		return abort(ferr)
	}

	// Phase 3: catch up on deltas that committed during the scan. Each
	// chunk is detached under the lock and replayed off-lock; the loop
	// converges because draining is faster than the write path refills.
	w.backfillStage(st.Name, "catch-up")
	for {
		w.mu.Lock()
		chunk := bf.buf
		bf.buf = nil
		w.mu.Unlock()
		if len(chunk) == 0 {
			break
		}
		for _, d := range chunk {
			if ferr := w.fi.Fire(faultinject.BackfillCatchUp); ferr != nil {
				return abort(ferr)
			}
			if err := eng.Apply(d); err != nil {
				return abort(err)
			}
			w.met.backfillCatchUp.Inc()
		}
	}

	// Phase 4: the atomic install. Holding w.mu freezes the buffer, so
	// the final drain leaves the engine exactly at the warehouse's
	// current state before the view becomes visible.
	w.backfillStage(st.Name, "install")
	w.mu.Lock()
	for _, d := range bf.buf {
		if err := eng.Apply(d); err != nil {
			return abortLocked(err)
		}
		w.met.backfillCatchUp.Inc()
	}
	bf.buf = nil
	if ferr := w.fi.Fire(faultinject.BackfillInstall); ferr != nil {
		return abortLocked(ferr)
	}
	delete(w.pending, st.Name)
	w.views[st.Name] = w.newView(v, plan, eng)
	w.order = append(w.order, st.Name)
	w.publishViewIndex()
	w.met.backfillActive.Add(-1)
	w.met.backfillsInstalled.Inc()
	err = nil
	if logged {
		if cerr := w.wal.Commit(lsn); cerr != nil {
			err = fmt.Errorf("warehouse: view %s installed in memory but WAL commit failed (not durable): %w", st.Name, cerr)
		} else if lsn > w.lsn.Load() {
			// Monotonic advance only: deltas that committed during the
			// backfill carry LSNs above the DDL intent's, and moving the
			// watermark backward would let a restart replay them twice.
			w.lsn.Store(lsn)
		}
	}
	w.mu.Unlock()
	return err
}

// feedBackfills appends a committed delta to every pending backfill's
// catch-up buffer. Callers hold w.mu (propagate's commit section).
func (w *Warehouse) feedBackfills(d maintain.Delta) {
	for _, bf := range w.pending {
		bf.buf = append(bf.buf, d)
	}
}

// dropView executes DROP MATERIALIZED VIEW: WAL-log the intent, remove
// the view from the catalog and the copy-on-write index under w.mu,
// WAL-commit, then close the engine off-lock — evicting its snapshot
// cache with it and releasing any out-of-core pager stores.
func (w *Warehouse) dropView(st *sqlparse.DropView, logSQL string) error {
	w.mu.Lock()
	if _, busy := w.pending[st.Name]; busy {
		w.mu.Unlock()
		return fmt.Errorf("warehouse: view %s backfill in progress; cannot drop", st.Name)
	}
	mv := w.views[st.Name]
	if mv == nil {
		w.mu.Unlock()
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("warehouse: unknown view %s", st.Name)
	}
	lsn, logged, err := w.beginDDL(logSQL)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	if ferr := w.fi.Fire(faultinject.DropViewTeardown); ferr != nil {
		w.mu.Unlock()
		if logged {
			_ = w.wal.Abort(lsn)
		}
		return ferr
	}
	w.removeView(st.Name)
	w.met.viewsDropped.Inc()
	err = nil
	if logged {
		if cerr := w.wal.Commit(lsn); cerr != nil {
			err = fmt.Errorf("warehouse: view %s dropped in memory but WAL commit failed (not durable): %w", st.Name, cerr)
		} else if lsn > w.lsn.Load() {
			w.lsn.Store(lsn)
		}
	}
	w.mu.Unlock()
	if cerr := mv.Engine.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("warehouse: view %s dropped but store release failed: %w", st.Name, cerr)
	}
	return err
}

// applyDropView is the replay-path teardown: remove the view and close
// its engine, no logging. Callers hold w.mu. Idempotence comes from the
// caller's LSN check plus IfExists semantics for re-dropped names.
func (w *Warehouse) applyDropView(st *sqlparse.DropView) error {
	mv := w.views[st.Name]
	if mv == nil {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("warehouse: unknown view %s", st.Name)
	}
	w.removeView(st.Name)
	return mv.Engine.Close()
}

// removeView unregisters a view from the catalog, creation order, and
// the published index. Callers hold w.mu.
func (w *Warehouse) removeView(name string) {
	delete(w.views, name)
	for i, n := range w.order {
		if n == name {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	w.publishViewIndex()
}
