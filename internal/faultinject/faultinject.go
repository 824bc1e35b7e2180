// Package faultinject provides numbered error-injection points for the
// maintenance engine and the warehouse write paths.
//
// Production code carries a nil *Hook: Fire on a nil receiver returns nil
// after a single pointer comparison, so the hooks cost (almost) nothing
// when no test is injecting failures. Tests install a Hook that fails at
// the N-th visited injection point; by sweeping N from 1 until a run
// completes without firing, a driver provably exercises a failure at every
// point the operation visits, in order.
//
// The injected error wraps ErrInjected so callers can distinguish injected
// failures from genuine ones with errors.Is.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Point identifies one numbered injection site. The set below is threaded
// through AuxTable.Adjust, Engine.Apply, and the Warehouse write paths —
// one point before, inside, and after each mutation region, so a failure
// can land between any two primitive state changes.
type Point int32

const (
	// EngineValidated fires in Engine.Stage after the validate-first
	// pass, before the first mutation.
	EngineValidated Point = iota
	// AuxAdjustStart fires in AuxTable.Adjust after the group key is
	// encoded, before any mutation of the table.
	AuxAdjustStart
	// AuxAdjustMid fires in AuxTable.Adjust after the group row has been
	// created/adjusted but before the group count is updated — in the
	// middle of a logically atomic operation.
	AuxAdjustMid
	// EngineAuxApplied fires in Engine.Stage after the auxiliary
	// table was maintained, before the materialized view is touched (the
	// historical partial-apply gap between X and V).
	EngineAuxApplied
	// MVAdjustRow fires in the incremental adjustment loop before each
	// group adjustment of the materialized view.
	MVAdjustRow
	// RecomputeInstall fires in recomputeGroups after the affected groups
	// were deleted, before the recomputed replacements are installed.
	RecomputeInstall
	// RekeyGroup fires in Engine.rekey between removing a group under its
	// old key and re-inserting it under the new one.
	RekeyGroup
	// PropagateView fires in Warehouse.propagate before each view's engine
	// receives the delta.
	PropagateView
	// SourceApplied fires in the Warehouse DML paths after the source
	// tables were mutated, before propagation to the views begins.
	SourceApplied
	// WALLogged fires in the Warehouse write-ahead path after the intent
	// record was appended (and synced) to the log, before the transactional
	// apply begins — a crash here leaves a durable intent with no outcome,
	// which recovery must discard.
	WALLogged
	// BatchCommit fires in Warehouse.ApplyDeltaBatch after every delta of
	// the batch was logged and applied, before the group commit record(s)
	// are appended and fsynced — a crash here leaves a tail of durable
	// intents with no outcomes, which recovery must discard whole.
	BatchCommit
	// PageEvict fires in the pager's buffer pool after a CLOCK victim has
	// been chosen, before its frame is flushed or dropped — mid-apply this
	// lands between two group mutations of one delta, with part of the
	// delta's state already spilled to disk.
	PageEvict
	// PageFlush fires in the pager inside a dirty-page write-back, after
	// the WAL flushed-LSN rule was enforced but before the page bytes reach
	// the file — the moment a torn page write would happen on a crash.
	PageFlush
	// BackfillSnapshot fires in the online CREATE MATERIALIZED VIEW path
	// after the DDL intent was logged and the source snapshot cloned under
	// the warehouse lock, before the background scan starts — a crash here
	// leaves a durable intent with no outcome, which recovery must discard.
	BackfillSnapshot
	// BackfillScan fires in the online backfill worker after the initial
	// GPSJ + auxiliary state was computed from the snapshot, before the
	// catch-up drain of deltas that committed during the scan.
	BackfillScan
	// BackfillCatchUp fires in the online backfill worker between two
	// catch-up deltas being replayed into the unpublished engine.
	BackfillCatchUp
	// BackfillInstall fires under the warehouse lock after the final
	// catch-up drain, before the view is added to the catalog and the WAL
	// outcome committed — the last instant the DDL can still abort whole.
	BackfillInstall
	// DropViewTeardown fires in DROP MATERIALIZED VIEW after the DDL intent
	// was logged, before the view is removed from the catalog and its
	// engine (and any pager stores) released.
	DropViewTeardown

	// NumPoints is the number of distinct injection points.
	NumPoints
)

var pointNames = [NumPoints]string{
	"EngineValidated",
	"AuxAdjustStart",
	"AuxAdjustMid",
	"EngineAuxApplied",
	"MVAdjustRow",
	"RecomputeInstall",
	"RekeyGroup",
	"PropagateView",
	"SourceApplied",
	"WALLogged",
	"BatchCommit",
	"PageEvict",
	"PageFlush",
	"BackfillSnapshot",
	"BackfillScan",
	"BackfillCatchUp",
	"BackfillInstall",
	"DropViewTeardown",
}

// String returns the symbolic name of the point.
func (p Point) String() string {
	if p >= 0 && p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int32(p))
}

// ErrInjected is wrapped by every injected failure.
var ErrInjected = errors.New("faultinject: injected failure")

// Hook counts visits to injection points and fails exactly one of them.
// The zero value never fails (a pure visit counter). Hooks are safe for
// concurrent use; a nil *Hook is the production no-op.
type Hook struct {
	failAt int64 // 1-based visit ordinal that fails; <= 0 disables failing
	visits atomic.Int64
	fired  atomic.Int32 // the Point that failed, offset by 1 (0 = none)
}

// NewHook returns a hook that fails the failAt-th visited injection point
// (1-based). failAt <= 0 yields a pure counter.
func NewHook(failAt int64) *Hook {
	return &Hook{failAt: failAt}
}

// Counter returns a hook that never fails but counts visits.
func Counter() *Hook { return &Hook{} }

// Fire records a visit to point p and returns an injected error when this
// visit is the hook's chosen ordinal. It is safe on a nil receiver.
func (h *Hook) Fire(p Point) error {
	if h == nil {
		return nil
	}
	n := h.visits.Add(1)
	if n == h.failAt {
		h.fired.Store(int32(p) + 1)
		return fmt.Errorf("%w at visit %d (%s)", ErrInjected, n, p)
	}
	return nil
}

// Visits returns the number of injection points visited so far.
func (h *Hook) Visits() int64 {
	if h == nil {
		return 0
	}
	return h.visits.Load()
}

// Fired returns the point that failed and true, or false when the hook has
// not (yet) injected a failure.
func (h *Hook) Fired() (Point, bool) {
	if h == nil {
		return 0, false
	}
	v := h.fired.Load()
	if v == 0 {
		return 0, false
	}
	return Point(v - 1), true
}
