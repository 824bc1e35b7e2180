package warehouse

import (
	"mindetail/internal/maintain"
	"mindetail/internal/obs"
)

// wmetrics is the warehouse-level observability surface. Every warehouse
// owns a registry from birth; the counters and gauges below are always-on
// (an observation is one atomic add — cheap enough for the lock-free Query
// fast path), while the time-based instrumentation (propagate latency, the
// engines' per-stage histograms and traces) is toggled by SetObs: with
// observability off the engines carry a nil Metrics sink and the warehouse
// skips its clock reads, restoring the pre-instrumentation hot path.
type wmetrics struct {
	reg *obs.Registry

	// engineMet is the maintenance sink shared by every view engine of this
	// warehouse (set to each engine at creation, detached by SetObs(false)).
	engineMet *maintain.Metrics

	propagateNs *obs.Histogram // warehouse.propagate.ns: end-to-end latency
	poolOcc     *obs.Gauge     // warehouse.propagate.pool_occupancy

	propagates    *obs.Counter // warehouse.propagates (committed)
	propagateErrs *obs.Counter // warehouse.propagate.errors (rolled back)

	viewsStaged     *obs.Counter // warehouse.views.staged
	viewsCommitted  *obs.Counter // warehouse.views.committed
	viewsRolledBack *obs.Counter // warehouse.views.rolled_back

	snapInvalidated *obs.Counter // warehouse.snapshots.invalidated
	snapPublished   *obs.Counter // warehouse.snapshots.published

	queryHits      *obs.Counter // warehouse.query.snapshot_hits (lock-free)
	queryRebuilds  *obs.Counter // warehouse.query.snapshot_rebuilds
	queryUnchanged *obs.Counter // warehouse.query.unchanged (QuerySince at the current version)

	batchSize      *obs.Histogram // warehouse.batch.size (deltas per ApplyDeltaBatch)
	batchDeltas    *obs.Counter   // warehouse.batch.deltas (deltas through the batch path)
	batchCoalesced *obs.Counter   // warehouse.batch.coalesced (deltas propagated via a coalesced group)

	backfillsStarted   *obs.Counter // warehouse.backfills.started
	backfillsInstalled *obs.Counter // warehouse.backfills.installed
	backfillsAborted   *obs.Counter // warehouse.backfills.aborted
	backfillCatchUp    *obs.Counter // warehouse.backfills.catchup_deltas
	backfillActive     *obs.Gauge   // warehouse.backfills.active
	viewsDropped       *obs.Counter // warehouse.views.dropped
}

func newWMetrics() *wmetrics {
	reg := obs.NewRegistry()
	// warehouse.query.locked counted reads that bypassed the snapshot path;
	// none do any more, but the repo benchmark still reads the counter.
	reg.Counter("warehouse.query.locked")
	return &wmetrics{
		reg:             reg,
		engineMet:       maintain.NewMetrics(reg),
		propagateNs:     reg.Histogram("warehouse.propagate.ns"),
		poolOcc:         reg.Gauge("warehouse.propagate.pool_occupancy"),
		propagates:      reg.Counter("warehouse.propagates"),
		propagateErrs:   reg.Counter("warehouse.propagate.errors"),
		viewsStaged:     reg.Counter("warehouse.views.staged"),
		viewsCommitted:  reg.Counter("warehouse.views.committed"),
		viewsRolledBack: reg.Counter("warehouse.views.rolled_back"),
		snapInvalidated: reg.Counter("warehouse.snapshots.invalidated"),
		snapPublished:   reg.Counter("warehouse.snapshots.published"),
		queryHits:       reg.Counter("warehouse.query.snapshot_hits"),
		queryRebuilds:   reg.Counter("warehouse.query.snapshot_rebuilds"),
		queryUnchanged:  reg.Counter("warehouse.query.unchanged"),
		batchSize:       reg.Histogram("warehouse.batch.size"),
		batchDeltas:     reg.Counter("warehouse.batch.deltas"),
		batchCoalesced:  reg.Counter("warehouse.batch.coalesced"),

		backfillsStarted:   reg.Counter("warehouse.backfills.started"),
		backfillsInstalled: reg.Counter("warehouse.backfills.installed"),
		backfillsAborted:   reg.Counter("warehouse.backfills.aborted"),
		backfillCatchUp:    reg.Counter("warehouse.backfills.catchup_deltas"),
		backfillActive:     reg.Gauge("warehouse.backfills.active"),
		viewsDropped:       reg.Counter("warehouse.views.dropped"),
	}
}

// ObsRegistry returns the warehouse's metric registry. It is live: metrics
// keep updating as the warehouse works, and snapshotting it at any moment
// is race-clean.
func (w *Warehouse) ObsRegistry() *obs.Registry { return w.met.reg }

// MetricsSnapshot captures every warehouse and maintenance metric at one
// moment (each metric internally consistent; the set not a single cut).
func (w *Warehouse) MetricsSnapshot() obs.Snapshot { return w.met.reg.Snapshot() }

// SetObs enables or disables time-based instrumentation: per-stage
// histograms, apply traces, journal-depth and latency histograms on every
// view engine, plus the warehouse's propagate-latency clock. Counters and
// gauges stay on either way (they are single atomic adds). Observability is
// ON by default; benchmarks disable it to measure the instrumentation-free
// baseline.
func (w *Warehouse) SetObs(enabled bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.obsTimingOff = !enabled
	sink := w.met.engineMet
	if !enabled {
		sink = nil
	}
	for _, name := range w.order {
		w.views[name].Engine.SetMetrics(sink)
	}
}
