package maintain

import (
	"errors"
	"fmt"
	"time"

	"mindetail/internal/faultinject"
	"mindetail/internal/obs"
)

// Stage indices for per-apply stage timing. Every stage the maintenance
// engine executes on behalf of one delta is attributed to exactly one of
// these.
const (
	StageExpand    = iota // delta expansion + no-op update elimination
	StageFilter           // local-condition filtering of expanded rows
	StageDeltaJoin        // the delta-detail join (aux-table probes)
	StageRecompute        // scoped/full group recomputation
	StageCommit           // journal discard on commit
	StageRollback         // journal replay on rollback
	numStages
)

// stageNames are the registry/trace names of the stages, index-aligned with
// the Stage constants.
var stageNames = [numStages]string{
	"expand", "filter", "delta_detail_join", "scoped_recompute", "commit", "rollback",
}

// StageName returns the registry name of a stage index.
func StageName(i int) string { return stageNames[i] }

// NumStages is the number of timed maintenance stages.
const NumStages = numStages

// Metrics is the maintenance engine's observability sink: per-stage latency
// histograms, apply counters and end-to-end latency, undo-journal depth,
// rollback accounting (total and fault-injected), recomputation counters,
// and a ring of recent apply traces.
//
// A nil *Metrics disables instrumentation entirely — the engine skips even
// the clock reads, so the un-instrumented hot path is identical to the
// pre-observability code. All metric names live under "maintain.".
type Metrics struct {
	reg *obs.Registry

	stages       [numStages]*obs.Histogram // maintain.stage.<name>_ns
	applyNs      *obs.Histogram            // maintain.apply_ns (end-to-end staging)
	journalDepth *obs.Histogram            // maintain.journal.depth (groups journaled per staged apply)

	applies           *obs.Counter // maintain.applies
	rollbacks         *obs.Counter // maintain.rollbacks
	injectedRollbacks *obs.Counter // maintain.rollbacks_injected

	avoided      *obs.Counter // maintain.recompute.avoided (groups adjusted instead)
	reaggregated *obs.Counter // maintain.recompute.rows (detail rows re-aggregated)

	trace *obs.TraceRing // maintain.applies: one event per staged apply
}

// NewMetrics registers the maintenance metric set on reg and returns the
// sink. Metrics registered under the same names on the same registry are
// shared (Registry is get-or-create), so several engines attached to one
// registry aggregate into one set.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg}
	for i := range m.stages {
		m.stages[i] = reg.Histogram("maintain.stage." + stageNames[i] + "_ns")
	}
	m.applyNs = reg.Histogram("maintain.apply_ns")
	m.journalDepth = reg.Histogram("maintain.journal.depth")
	m.applies = reg.Counter("maintain.applies")
	m.rollbacks = reg.Counter("maintain.rollbacks")
	m.injectedRollbacks = reg.Counter("maintain.rollbacks_injected")
	m.avoided = reg.Counter("maintain.recompute.avoided")
	m.reaggregated = reg.Counter("maintain.recompute.rows")
	m.trace = reg.Trace("maintain.applies")
	return m
}

// Registry returns the registry the metrics live on (nil-safe).
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SetMetrics attaches (nil detaches) an observability sink to the engine.
// Not safe concurrently with Apply. With a nil sink the engine performs no
// clock reads — instrumentation is strictly pay-for-use.
func (e *Engine) SetMetrics(m *Metrics) { e.met = m }

// Metrics returns the engine's observability sink (nil when detached).
func (e *Engine) Metrics() *Metrics { return e.met }

// stageStart returns the stage clock's start time, or the zero time when
// instrumentation is off (the only cost then is a nil check).
func (e *Engine) stageStart() time.Time {
	if e.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd records the elapsed stage time into the per-apply accumulator
// (for the trace event) and the stage histogram.
func (e *Engine) stageEnd(stage int, start time.Time) {
	if e.met == nil {
		return
	}
	ns := time.Since(start).Nanoseconds()
	e.stageNs[stage] += ns
	e.met.stages[stage].Observe(ns)
}

// rollbackJournal rolls the undo journal back, timing the replay and
// counting the rollback; cause distinguishes fault-injected failures.
func (e *Engine) rollbackJournal(cause error) {
	// A Snapshot taken while the apply was staged rendered the groups the
	// rollback restores: they re-render like committed ones.
	e.mv.markDirty(e.jnl.ents)
	if e.met == nil {
		e.jnl.rollback()
		return
	}
	start := time.Now()
	e.jnl.rollback()
	ns := time.Since(start).Nanoseconds()
	e.stageNs[StageRollback] += ns
	e.met.stages[StageRollback].Observe(ns)
	e.met.rollbacks.Inc()
	if cause != nil && errors.Is(cause, faultinject.ErrInjected) {
		e.met.injectedRollbacks.Inc()
	}
}

// recordApply publishes one apply's end-to-end latency, journal depth, and
// trace event (with the non-zero stage timings accumulated in stageNs).
// The journal depth is the number of distinct groups — view and auxiliary —
// the apply journaled, and exists only for a staged apply: a failed one has
// already rolled back and discarded its journal.
func (e *Engine) recordApply(d Delta, total int64, err error) {
	m := e.met
	m.applyNs.Observe(total)
	m.applies.Inc()
	outcome := "staged"
	if err != nil {
		outcome = "error: " + err.Error()
	} else {
		m.journalDepth.Observe(int64(len(e.jnl.ents)))
	}
	var stages []obs.Stage
	for i, ns := range e.stageNs {
		if ns > 0 {
			stages = append(stages, obs.Stage{Name: stageNames[i], Ns: ns})
		}
	}
	m.trace.Record(obs.TraceEvent{
		At:      time.Now(),
		Name:    e.view.Name,
		Detail:  fmt.Sprintf("table=%s ins=%d del=%d upd=%d", d.Table, len(d.Inserts), len(d.Deletes), len(d.Updates)),
		Outcome: outcome,
		TotalNs: total,
		Stages:  stages,
	})
}
