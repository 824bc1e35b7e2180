package maintain

import (
	"fmt"
	"sync/atomic"
	"time"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/gpsj"
	"mindetail/internal/joingraph"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Delta is a change to one base table, expressed as full tuples (the usual
// form change logs and triggers deliver). Updates carry both images; the
// engine propagates them as a deletion followed by an insertion
// (Section 2.1).
type Delta struct {
	Table   string
	Inserts []tuple.Tuple
	Deletes []tuple.Tuple
	Updates []Update
}

// Update is one in-place row update with both images.
type Update struct {
	Old, New tuple.Tuple
}

// Stats counts the work the engine performs, for the benchmark harness.
type Stats struct {
	DeltasApplied   int
	DetailRows      int // delta detail rows produced by joining
	AuxLookups      int // index probes into auxiliary tables
	GroupAdjusts    int // incremental CSMAS group adjustments
	GroupRecomputes int // groups repaired by partial recomputation

	// RecomputesAvoided counts groups that a negative-weight delta touched
	// and that were adjusted instead of recomputed, because the delta's net
	// effect provably left every stored aggregate intact (see
	// splitAffected). ReaggregatedRows counts the auxiliary detail rows
	// partial recomputation walked into the aggregation kernel.
	RecomputesAvoided int
	ReaggregatedRows  int
}

// engineStats is the engine-internal counter set. The counters are atomic
// so Stats() can be read while the warehouse propagation scheduler is
// driving the engine; hot loops accumulate locally and publish once per
// batch, so the atomics cost nothing per row.
type engineStats struct {
	deltasApplied   atomic.Int64
	detailRows      atomic.Int64
	auxLookups      atomic.Int64
	groupAdjusts    atomic.Int64
	groupRecomputes atomic.Int64

	recomputesAvoided atomic.Int64
	reaggregatedRows  atomic.Int64
}

func (s *engineStats) snapshot() Stats {
	return Stats{
		DeltasApplied:     int(s.deltasApplied.Load()),
		DetailRows:        int(s.detailRows.Load()),
		AuxLookups:        int(s.auxLookups.Load()),
		GroupAdjusts:      int(s.groupAdjusts.Load()),
		GroupRecomputes:   int(s.groupRecomputes.Load()),
		RecomputesAvoided: int(s.recomputesAvoided.Load()),
		ReaggregatedRows:  int(s.reaggregatedRows.Load()),
	}
}

func (s *engineStats) reset() {
	s.deltasApplied.Store(0)
	s.detailRows.Store(0)
	s.auxLookups.Store(0)
	s.groupAdjusts.Store(0)
	s.groupRecomputes.Store(0)
	s.recomputesAvoided.Store(0)
	s.reaggregatedRows.Store(0)
}

// Engine maintains a materialized GPSJ view and its auxiliary views under
// base-table deltas, never touching the sources after Init.
type Engine struct {
	plan  *core.Plan
	view  *gpsj.View
	graph *joingraph.Graph

	aux map[string]*AuxTable
	mv  *MaterializedView

	// UseNeedSets restricts delta joins to the minimal set of auxiliary
	// views required (the Need-set optimization, Definition 3/4); when
	// false every referenced table is joined.
	UseNeedSets bool

	// ForceFullRecompute is the verification oracle: every group a delta
	// with deletions touches is recomputed (no net-effect avoidance), from
	// the full auxiliary join instead of the delta-scoped probes. The full
	// join is also the fallback for shapes the scoped path cannot seed.
	ForceFullRecompute bool

	// filtering marks non-root tables whose auxiliary view can exclude
	// detail rows (local conditions, or a join edge without referential
	// integrity, anywhere in the subtree); these must always participate
	// in delta joins to decide view membership.
	filtering map[string]bool

	// residual maps tables to local conditions of this view that its
	// (shared) auxiliary views do not enforce; delta joins and partial
	// recomputation re-apply them (shared-plan mode, Section 4 classes).
	residual map[string][]ra.Comparison

	// skipAux suppresses auxiliary-table maintenance in Apply: a shared
	// coordinator maintains the tables once for all views.
	skipAux bool

	// tableSet is view.Tables as a set: Apply-path membership tests are
	// O(1) instead of a per-delta slice scan.
	tableSet map[string]bool

	// Per-table caches for the Apply hot path: qualified base schemas,
	// view-relevant attribute positions (expand's no-op detection), bound
	// local-condition predicates, and auxApply projection plans. All are
	// derived from immutable plan metadata, so caching is safe.
	baseColsC  map[string]ra.Schema
	relPosC    map[string][]int
	localPredC map[string]func(tuple.Tuple) (bool, error)
	auxPlanC   map[string]*auxApplyPlan

	// pc caches the compiled join plans and the scoped seed (see plan.go).
	pc planCache

	// Scratch reused across Apply calls (the engine is not safe for
	// concurrent Apply, so a single set suffices). lkKeyBuf, walker, seedLk
	// and agg are the engine's private probe and aggregation scratch:
	// engines of a shared class probe the same tables concurrently during
	// parallel staging, so probes must never touch the tables' own buffers.
	keyBuf    []byte
	plainBuf  tuple.Tuple
	sumDeltaC map[string]types.Value
	extremaC  map[string]types.Value
	lkKeyBuf  []byte
	walker    joinWalker
	seedLk    probeScratch
	agg       aggregator

	// jnl is the per-apply undo log: every mutation of the auxiliary
	// tables or the materialized view records the affected group's prior
	// image, and any error during apply rolls the log back so the engine
	// is bit-identical to its pre-delta state (failure atomicity).
	jnl journal

	// fi is the fault-injection hook (nil in production).
	fi *faultinject.Hook

	stats engineStats

	// met is the observability sink (nil = instrumentation off, not even
	// clock reads); stageNs accumulates per-stage nanoseconds across one
	// apply for the trace event. The engine is driven by one goroutine, so
	// the accumulator needs no synchronization even when staging runs on the
	// coordinator's pool (see Propagate).
	met     *Metrics
	stageNs [numStages]int64
}

// auxApplyPlan caches the base-row positions auxApply projects from, so the
// per-delta work is pure array indexing.
type auxApplyPlan struct {
	plainPos []int // base positions of the aux view's plain attributes
	sumPos   []int // base positions of def.SumAttrs, in order
	sjPos    []int // base position of each semijoin's left attribute
	minPos   []int // base positions of def.MinAttrs, in order
	maxPos   []int // base positions of def.MaxAttrs, in order
}

// NewEngine creates an engine for a derived plan. Call Init before Apply.
// A plan whose auxiliary definitions are inconsistent with the catalog (a
// stored attribute missing from its schema, an unindexable key) surfaces as
// a returned error, never a panic.
func NewEngine(plan *core.Plan) (*Engine, error) {
	tables := make(map[string]*AuxTable)
	for t, def := range plan.Aux {
		if def.Omitted {
			continue
		}
		at, err := NewAuxTable(def)
		if err != nil {
			return nil, fmt.Errorf("maintain: auxiliary table for %s: %w", t, err)
		}
		tables[t] = at
	}
	return newEngine(plan, tables, nil, false)
}

// newEngine wires an engine over the given auxiliary tables. With shared
// tables, residual carries the view's unenforced local conditions and
// skipAux leaves table maintenance to the coordinator.
func newEngine(plan *core.Plan, tables map[string]*AuxTable, residual map[string][]ra.Comparison, skipAux bool) (*Engine, error) {
	e := &Engine{
		plan:        plan,
		view:        plan.View,
		graph:       plan.Graph,
		aux:         tables,
		mv:          NewMaterializedView(plan.View),
		UseNeedSets: true,
		filtering:   make(map[string]bool),
		residual:    residual,
		skipAux:     skipAux,
		tableSet:    make(map[string]bool, len(plan.View.Tables)),
		baseColsC:   make(map[string]ra.Schema),
		relPosC:     make(map[string][]int),
		localPredC:  make(map[string]func(tuple.Tuple) (bool, error)),
		auxPlanC:    make(map[string]*auxApplyPlan),
		sumDeltaC:   make(map[string]types.Value),
		extremaC:    make(map[string]types.Value),
	}
	for _, t := range plan.View.Tables {
		e.tableSet[t] = true
	}
	if !skipAux {
		// Exclusive tables journal into this engine's undo log; shared
		// tables are journaled by their coordinator (SharedEngines).
		for _, at := range e.aux {
			at.jnl = &e.jnl
		}
	}
	// Indexes: each table's key (semijoin membership and downward joins),
	// and each referencing attribute (upward joins).
	for t, at := range e.aux {
		key := e.view.Catalog().Table(t).Key
		if contains(at.def.PlainAttrs, key) {
			if err := at.EnsureIndex(key); err != nil {
				return nil, fmt.Errorf("maintain: index on %s.%s: %w", t, key, err)
			}
		}
		for child, j := range e.graph.EdgeTo {
			_ = child
			if j.Left == t && contains(at.def.PlainAttrs, j.LeftAttr) {
				if err := at.EnsureIndex(j.LeftAttr); err != nil {
					return nil, fmt.Errorf("maintain: index on %s.%s: %w", t, j.LeftAttr, err)
				}
			}
		}
	}
	// Filtering analysis, bottom-up.
	var filt func(t string) bool
	filt = func(t string) bool {
		f := len(e.view.Local[t]) > 0 || len(e.residual[t]) > 0
		if j, ok := e.graph.EdgeTo[t]; ok {
			if !e.view.Catalog().HasRI(j.Left, j.LeftAttr, j.Right) {
				f = true
			}
		}
		for _, c := range e.graph.Children[t] {
			if filt(c) {
				f = true
			}
		}
		e.filtering[t] = f
		return f
	}
	filt(e.graph.Root)
	delete(e.filtering, e.graph.Root) // root membership is its own local conds, applied to deltas directly
	return e, nil
}

// Plan returns the derivation plan the engine maintains.
func (e *Engine) Plan() *core.Plan { return e.plan }

// Aux returns the auxiliary table for a base table, or nil when omitted.
func (e *Engine) Aux(table string) *AuxTable { return e.aux[table] }

// Stats returns a copy of the work counters. Safe to call while the engine
// is applying a delta (the counters are atomic); the copy is a consistent
// point-in-time reading of each counter, not of the set as a whole.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// ResetStats zeroes the work counters.
func (e *Engine) ResetStats() { e.stats.reset() }

// References reports whether the engine's view reads the given base table —
// the warehouse scheduler uses it to invalidate only the snapshots of views
// a delta can actually change.
func (e *Engine) References(table string) bool { return e.tableSet[table] }

// Snapshot returns the user-facing contents of the maintained view. It
// re-renders only the groups committed deltas touched since the previous
// call and shares every other row with it, so the relation is read-only.
func (e *Engine) Snapshot() *ra.Relation { return e.mv.Snapshot() }

// Groups returns the number of maintained view groups.
func (e *Engine) Groups() int { return e.mv.Groups() }

// AuxBytes returns the total byte-accounting size of all auxiliary tables.
func (e *Engine) AuxBytes() int {
	n := 0
	for _, at := range e.aux {
		n += at.Bytes()
	}
	return n
}

// ViewBytes returns the byte-accounting size of the maintained view.
func (e *Engine) ViewBytes() int { return e.mv.Bytes() }

// Init materializes the auxiliary views and the view's component form from
// base-table relations. This is the only moment the engine reads base data;
// afterwards the sources can be detached.
func (e *Engine) Init(src func(table string) *ra.Relation) error {
	mats, err := e.plan.Materialize(src)
	if err != nil {
		return err
	}
	for t, rel := range mats {
		if err := e.aux[t].Load(rel); err != nil {
			return err
		}
	}
	return e.initMV(src)
}

// initMV computes the view's component form from base relations, through
// the same aggregation kernel recomputation uses (on its own scratch: the
// one-off pass over the whole detail must not size the engine's).
func (e *Engine) initMV(src func(table string) *ra.Relation) error {
	detailNode, err := e.view.DetailPlan(src)
	if err != nil {
		return err
	}
	detail, err := detailNode.Eval()
	if err != nil {
		return err
	}
	p, err := e.mv.flatPlan(detail.Cols)
	if err != nil {
		return err
	}
	var agg aggregator
	agg.begin(e.mv, p, nil)
	slot := make([]tuple.Tuple, 1)
	for _, row := range detail.Rows {
		slot[0] = row
		if err := agg.add(slot, 1); err != nil {
			return err
		}
	}
	groups, err := agg.finish()
	if err != nil {
		return err
	}
	e.mv.rows = make(map[string]tuple.Tuple, len(groups))
	for _, g := range groups {
		e.mv.rows[g.key] = g.row
	}
	if e.mv.global() && len(groups) == 0 {
		e.mv.setRow(e.mv.blank(nil))
	}
	e.mv.resetPublished()
	return nil
}

type signedRow struct {
	row tuple.Tuple
	s   int64
}

// Apply propagates one base-table delta to the auxiliary views and the
// materialized view. Deltas must reflect legal source transitions
// (referential integrity preserved, updates only to mutable attributes).
//
// Apply is failure-atomic: on any error the engine's auxiliary tables and
// materialized view are bit-identical to their pre-delta state (the work
// counters in Stats are diagnostic and are not rolled back).
func (e *Engine) Apply(d Delta) error {
	if err := e.Stage(d); err != nil {
		return err
	}
	e.Commit()
	return nil
}

// Stage applies the delta like Apply but retains the undo journal on
// success so a coordinator (Propagate) can still Rollback this engine if
// another engine in the same logical transaction fails. On error the
// engine has already rolled itself back. Exactly one staged apply may be
// outstanding; finish it with Commit or Rollback before the next one. Each
// engine may be driven by at most one goroutine, but different engines of
// one propagation may stage concurrently.
//
// With a Metrics sink attached (SetMetrics), each apply records its
// end-to-end latency, journal depth, and a trace event carrying the
// per-stage timings; deltas for unreferenced tables bypass even the clock
// reads.
func (e *Engine) Stage(d Delta) error {
	if e.met == nil || !e.tableSet[d.Table] {
		return e.stage(d)
	}
	start := time.Now()
	for i := range e.stageNs {
		e.stageNs[i] = 0
	}
	err := e.stage(d)
	e.recordApply(d, time.Since(start).Nanoseconds(), err)
	return err
}

// stage is the staging body behind Stage.
func (e *Engine) stage(d Delta) error {
	t := d.Table
	if !e.tableSet[t] {
		return nil // table not referenced by the view
	}
	// Validate-first pass: every check that needs no engine state mutation
	// runs here, so the common failure modes (row arity, append-only
	// violations, predicate bind errors, rekey legality) reject the delta
	// before the undo journal has anything to record.
	if e.plan.AppendOnly && (len(d.Deletes) > 0 || len(d.Updates) > 0) {
		return fmt.Errorf("maintain: plan for view %s was derived append-only (Section 4); deletions and updates are not maintainable", e.view.Name)
	}
	for bt, at := range e.aux {
		if serr := at.store.Err(); serr != nil {
			// A wedged out-of-core store (sticky I/O failure, possibly from
			// an earlier rollback) must reject deltas before the journal
			// records anything.
			return fmt.Errorf("maintain: auxiliary store for %s is wedged: %w", bt, serr)
		}
	}
	st := e.stageStart()
	signed, err := e.expand(d) // validates row arity
	e.stageEnd(StageExpand, st)
	if err != nil {
		return err
	}
	st = e.stageStart()
	signed, err = e.localFilter(t, signed) // surfaces predicate bind errors
	e.stageEnd(StageFilter, st)
	if err != nil {
		return err
	}
	if e.aux[e.graph.Root] == nil && t != e.graph.Root && e.graph.Annot[t] != joingraph.AnnotK {
		// The elimination conditions (Section 3.3) guarantee every
		// dimension is k-annotated when the root is omitted; reject
		// before mutating anything if the invariant is broken.
		return fmt.Errorf("maintain: root auxiliary view omitted but %s is not key-grouped; cannot maintain", t)
	}
	if err := e.fi.Fire(faultinject.EngineValidated); err != nil {
		return err
	}
	e.stats.deltasApplied.Add(1)
	e.jnl.begin()
	if err := e.applyMutations(t, d, signed); err != nil {
		e.rollbackJournal(err)
		e.auxReadErr() // the apply is already failing; drop the notes
		return err
	}
	if err := e.auxReadErr(); err != nil {
		// Lookup and its buffer-reuse variants have no error return; a
		// store read that failed mid-apply silently dropped rows from the
		// scoped recomputation, so the staged result cannot be trusted.
		// For shared tables the note may belong to a concurrently staging
		// engine of the same class — failing here is still sound, because
		// one failed engine aborts (and rolls back) the whole propagation.
		e.rollbackJournal(err)
		return err
	}
	return nil
}

// auxReadErr drains the pending read failure of every auxiliary table,
// returning the first one found.
func (e *Engine) auxReadErr() error {
	var first error
	for bt, at := range e.aux {
		if err := at.takeReadErr(); err != nil && first == nil {
			first = fmt.Errorf("maintain: reading auxiliary store for %s: %w", bt, err)
		}
	}
	return first
}

// Commit discards the undo journal of a successful staged apply, first
// handing the view groups it journaled to the next Snapshot to re-render.
func (e *Engine) Commit() {
	e.mv.markDirty(e.jnl.ents)
	if e.met == nil || !e.jnl.recording {
		// No sink, or nothing staged (the delta's table was unreferenced):
		// commit is a free no-op — don't pollute the commit histogram.
		e.jnl.discard()
		return
	}
	start := time.Now()
	e.jnl.discard()
	e.met.stages[StageCommit].Observe(time.Since(start).Nanoseconds())
}

// Rollback undoes a successful staged apply, restoring the engine to its
// state before the corresponding Stage call.
func (e *Engine) Rollback() {
	if !e.jnl.recording {
		e.jnl.rollback() // nothing staged; free no-op
		return
	}
	e.rollbackJournal(nil)
}

// SetAuxStores swaps every auxiliary table's row storage through a factory
// keyed by base table (see AuxStore; internal/pager provides the paged
// backend). Existing rows migrate, so it may be called before or after
// Init. Engines of a shared class do not own their tables and reject the
// call — swap through the coordinator instead.
func (e *Engine) SetAuxStores(factory func(table string) (AuxStore, error)) error {
	if e.skipAux {
		return fmt.Errorf("maintain: engine %s shares its auxiliary tables; set stores on the coordinator", e.view.Name)
	}
	for t, at := range e.aux {
		s, err := factory(t)
		if err != nil {
			return fmt.Errorf("maintain: auxiliary store for %s: %w", t, err)
		}
		if err := at.SetStore(s); err != nil {
			return fmt.Errorf("maintain: auxiliary store for %s: %w", t, err)
		}
	}
	return nil
}

// Close releases the auxiliary tables' row stores (a no-op for the
// in-memory backend; the paged backend flushes and closes its page file).
// The engine must not be used afterwards.
func (e *Engine) Close() error {
	var first error
	if e.skipAux {
		return nil // shared tables are closed by their coordinator
	}
	for _, at := range e.aux {
		if err := at.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetFaultHook installs (nil removes) a fault-injection hook on the engine
// and its exclusively-owned auxiliary tables. Shared tables are hooked by
// their coordinator. Not safe concurrently with Apply; tests only.
func (e *Engine) SetFaultHook(h *faultinject.Hook) {
	e.fi = h
	if e.skipAux {
		return
	}
	for _, at := range e.aux {
		at.fi = h
		// Out-of-core stores carry their own injection points (eviction,
		// page flush); forward the hook so one sweep covers them too.
		if fh, ok := at.store.(interface{ SetFaultHook(*faultinject.Hook) }); ok {
			fh.SetFaultHook(h)
		}
	}
}

// applyMutations is the mutation region of one apply: everything it
// touches is journaled, and the caller rolls the journal back on error.
func (e *Engine) applyMutations(t string, d Delta, signed []signedRow) error {
	if at := e.aux[t]; at != nil && !e.skipAux {
		if err := e.auxApply(at, signed); err != nil {
			return err
		}
	}
	if err := e.fi.Fire(faultinject.EngineAuxApplied); err != nil {
		return err
	}
	return e.vImpact(t, d, signed)
}

// expand normalizes a delta into signed full rows: updates become a
// deletion of the old image and an insertion of the new one. Update pairs
// whose images agree on every attribute relevant to the view (preserved or
// condition attributes) are dropped as no-ops.
func (e *Engine) expand(d Delta) ([]signedRow, error) {
	meta := e.view.Catalog().Table(d.Table)
	check := func(row tuple.Tuple) error {
		if len(row) != len(meta.Attrs) {
			return fmt.Errorf("maintain: delta row for %s has %d values, want %d", d.Table, len(row), len(meta.Attrs))
		}
		return nil
	}
	relevantPos := e.relevantPosFor(d.Table)

	out := make([]signedRow, 0, len(d.Deletes)+2*len(d.Updates)+len(d.Inserts))
	for _, r := range d.Deletes {
		if err := check(r); err != nil {
			return nil, err
		}
		out = append(out, signedRow{row: r, s: -1})
	}
	for _, u := range d.Updates {
		if err := check(u.Old); err != nil {
			return nil, err
		}
		if err := check(u.New); err != nil {
			return nil, err
		}
		same := true
		for _, p := range relevantPos {
			if !types.Identical(u.Old[p], u.New[p]) {
				same = false
				break
			}
		}
		if same {
			continue // no attribute the view can observe changed
		}
		out = append(out, signedRow{row: u.Old, s: -1}, signedRow{row: u.New, s: 1})
	}
	for _, r := range d.Inserts {
		if err := check(r); err != nil {
			return nil, err
		}
		out = append(out, signedRow{row: r, s: 1})
	}
	return out, nil
}

// relevantPosFor returns (and caches) the base positions of the attributes
// of t the view can observe: preserved or condition attributes.
func (e *Engine) relevantPosFor(t string) []int {
	if pos, ok := e.relPosC[t]; ok {
		return pos
	}
	meta := e.view.Catalog().Table(t)
	relevant := map[string]bool{}
	for _, a := range e.view.PreservedAttrs(t) {
		relevant[a] = true
	}
	for _, a := range e.view.CondAttrs(t) {
		relevant[a] = true
	}
	pos := []int{}
	for i, a := range meta.Attrs {
		if relevant[a.Name] {
			pos = append(pos, i)
		}
	}
	e.relPosC[t] = pos
	return pos
}

// baseCols returns the base-table schema qualified with the table name,
// cached per table. Callers must not mutate the returned schema.
func (e *Engine) baseCols(t string) ra.Schema {
	if cols, ok := e.baseColsC[t]; ok {
		return cols
	}
	meta := e.view.Catalog().Table(t)
	cols := make(ra.Schema, len(meta.Attrs))
	for i, a := range meta.Attrs {
		cols[i] = ra.Col{Table: t, Name: a.Name}
	}
	e.baseColsC[t] = cols
	return cols
}

// localPred returns (and caches) the bound predicate of t's local
// conditions, or nil when t has none.
func (e *Engine) localPred(t string) (func(tuple.Tuple) (bool, error), error) {
	if pred, ok := e.localPredC[t]; ok {
		return pred, nil
	}
	conds := e.view.Local[t]
	if len(conds) == 0 {
		e.localPredC[t] = nil
		return nil, nil
	}
	pred, err := ra.BindAll(conds, e.baseCols(t))
	if err != nil {
		return nil, err
	}
	e.localPredC[t] = pred
	return pred, nil
}

// localFilter drops signed rows that fail the table's local conditions.
func (e *Engine) localFilter(t string, rows []signedRow) ([]signedRow, error) {
	pred, err := e.localPred(t)
	if err != nil {
		return nil, err
	}
	if pred == nil {
		return rows, nil
	}
	out := rows[:0]
	for _, sr := range rows {
		ok, err := pred(sr.row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, sr)
		}
	}
	return out, nil
}

// auxPlanFor returns (and caches) the base-row projection plan for X_t.
func (e *Engine) auxPlanFor(at *AuxTable) *auxApplyPlan {
	if p, ok := e.auxPlanC[at.def.Base]; ok {
		return p
	}
	meta := e.view.Catalog().Table(at.def.Base)
	p := &auxApplyPlan{}
	for _, a := range at.def.PlainAttrs {
		p.plainPos = append(p.plainPos, meta.AttrIndex(a))
	}
	for _, a := range at.def.SumAttrs {
		p.sumPos = append(p.sumPos, meta.AttrIndex(a))
	}
	for _, sj := range at.def.SemiJoins {
		p.sjPos = append(p.sjPos, meta.AttrIndex(sj.LeftAttr))
	}
	for _, a := range at.def.MinAttrs {
		p.minPos = append(p.minPos, meta.AttrIndex(a))
	}
	for _, a := range at.def.MaxAttrs {
		p.maxPos = append(p.maxPos, meta.AttrIndex(a))
	}
	e.auxPlanC[at.def.Base] = p
	return p
}

// auxApply maintains X_t under the signed rows: project to the stored
// attributes, check the join-reduction semijoins against the child
// auxiliary tables, and adjust the group (or insert/delete the PSJ row).
// Scratch buffers (plainBuf, sumDeltaC, extremaC) are reused across rows;
// Adjust copies what it retains.
func (e *Engine) auxApply(at *AuxTable, rows []signedRow) error {
	plan := e.auxPlanFor(at)
	if cap(e.plainBuf) < len(plan.plainPos) {
		e.plainBuf = make(tuple.Tuple, len(plan.plainPos))
	}
	plainVals := e.plainBuf[:len(plan.plainPos)]
	var lookups int64
	defer func() { e.stats.auxLookups.Add(lookups) }()
	for _, sr := range rows {
		pass := true
		for i, sj := range at.def.SemiJoins {
			child := e.aux[sj.Right]
			lookups++
			var ok bool
			ok, e.lkKeyBuf = child.containsWith(sj.RightAttr, sr.row[plan.sjPos[i]], e.lkKeyBuf[:0])
			if !ok {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		for i, p := range plan.plainPos {
			plainVals[i] = sr.row[p]
		}
		clear(e.sumDeltaC)
		for i, a := range at.def.SumAttrs {
			d, err := types.Mul(types.Int(sr.s), sr.row[plan.sumPos[i]])
			if err != nil {
				return err
			}
			e.sumDeltaC[a] = d
		}
		var extrema map[string]types.Value
		if len(plan.minPos) > 0 || len(plan.maxPos) > 0 {
			clear(e.extremaC)
			extrema = e.extremaC
			for i, a := range at.def.MinAttrs {
				extrema[a] = sr.row[plan.minPos[i]]
			}
			for i, a := range at.def.MaxAttrs {
				extrema[a] = sr.row[plan.maxPos[i]]
			}
		}
		if err := at.Adjust(plainVals, e.sumDeltaC, extrema, sr.s); err != nil {
			return err
		}
	}
	return nil
}

// vImpact propagates the delta to the materialized view.
func (e *Engine) vImpact(t string, d Delta, signed []signedRow) error {
	if len(signed) == 0 {
		return nil
	}
	rootOmitted := e.aux[e.graph.Root] == nil
	if t != e.graph.Root && rootOmitted {
		// The elimination conditions (Section 3.3) guarantee that every
		// dimension is k-annotated here: inserts and deletes of dimension
		// rows cannot affect V (referential integrity), and updates only
		// re-key groups identified directly by the dimension key.
		if e.graph.Annot[t] != joingraph.AnnotK {
			return fmt.Errorf("maintain: root auxiliary view omitted but %s is not key-grouped; cannot maintain", t)
		}
		return e.rekey(t, d.Updates)
	}

	dd, err := e.deltaDetail(t, signed)
	if err != nil {
		return err
	}
	if len(dd.rows) == 0 {
		return nil
	}
	e.stats.detailRows.Add(int64(len(dd.rows)))

	if len(e.mv.storedIdx) == 0 {
		return e.adjustFromDetail(dd, nil)
	}
	negative := false
	for _, w := range dd.weights {
		if w < 0 {
			negative = true
			break
		}
	}
	if len(e.mv.distinctIdx) == 0 && !negative {
		// MIN/MAX are SMAs for insertions (Table 1): adjust incrementally
		// and raise the extrema.
		return e.adjustFromDetail(dd, nil)
	}
	// Decide once, from the delta's net effect, which groups must
	// recompute; the rest adjust.
	recompute := e.splitAffected(dd)
	if err := e.adjustFromDetail(dd, recompute); err != nil {
		return err
	}
	return e.recomputeGroups(recompute)
}

// rekey handles dimension updates when the root auxiliary view is omitted:
// the updated dimension is k-grouped, so the affected view rows are those
// whose key column matches, and only the dimension's own group-by values
// can have changed.
func (e *Engine) rekey(t string, updates []Update) error {
	meta := e.view.Catalog().Table(t)
	keyPos := meta.KeyIndex()

	// The view's group-by components owned by t, with their base positions.
	type gbCol struct {
		comp    int
		basePos int
		isKey   bool
	}
	var gcols []gbCol
	for _, ci := range e.mv.gbIdx {
		cr := e.mv.comps[ci].item.Expr.(ra.ColRef)
		if cr.Table != t {
			continue
		}
		gcols = append(gcols, gbCol{comp: ci, basePos: meta.AttrIndex(cr.Name), isKey: cr.Name == meta.Key})
	}
	var keyComp = -1
	for _, gc := range gcols {
		if gc.isKey {
			keyComp = gc.comp
		}
	}
	if keyComp < 0 {
		return fmt.Errorf("maintain: %s is k-annotated but its key is not a view column", t)
	}

	pred, err := ra.BindAll(e.view.Local[t], e.baseCols(t))
	if err != nil {
		return err
	}
	for _, u := range updates {
		okNew, err := pred(u.New)
		if err != nil {
			return err
		}
		okOld, err := pred(u.Old)
		if err != nil {
			return err
		}
		if okOld != okNew {
			// The update moves the dimension row across the view's local
			// conditions. With the root auxiliary view omitted there is no
			// detail to re-derive the affected groups from, so this delta
			// is not maintainable — the derivation refuses to omit the
			// root when a condition attribute is mutable (see
			// core.deriveAux), making this unreachable for derived plans.
			// Guard anyway: an explicit error beats silent divergence.
			return fmt.Errorf("maintain: update to %s moves a row across the view's local conditions but the root auxiliary view is omitted; cannot maintain", t)
		}
		if !okNew {
			continue // row outside the view's local conditions; old was too
		}
		key := u.New[keyPos]
		// Collect affected groups, then re-key them.
		var hit []string
		for k, row := range e.mv.rows {
			if types.Identical(row[keyComp], key) {
				hit = append(hit, k)
			}
		}
		for _, k := range hit {
			row := e.mv.rows[k]
			e.jnl.noteMVKey(e.mv, k)
			delete(e.mv.rows, k)
			if err := e.fi.Fire(faultinject.RekeyGroup); err != nil {
				return err
			}
			for _, gc := range gcols {
				row[gc.comp] = u.New[gc.basePos]
			}
			nk := e.mv.keyOf(row)
			e.jnl.noteMVKey(e.mv, nk)
			e.mv.rows[nk] = row
			e.stats.groupAdjusts.Add(1)
		}
	}
	return nil
}

// prepareSharedIndexes eagerly builds every auxiliary index the maintenance
// paths would otherwise create lazily (the compiled plans' join-edge indexes
// and the scoped seed index). Engines of a shared class stage in parallel
// over the same auxiliary tables, and EnsureIndex mutates the table, so the
// coordinator calls this once per engine before any concurrent staging;
// afterwards every probe is a read.
func (e *Engine) prepareSharedIndexes() error {
	for t, at := range e.aux {
		if j, ok := e.graph.EdgeTo[t]; ok && contains(at.def.PlainAttrs, j.RightAttr) {
			if err := at.EnsureIndex(j.RightAttr); err != nil {
				return err
			}
		}
	}
	for _, ci := range e.mv.gbIdx {
		cr, ok := e.mv.comps[ci].item.Expr.(ra.ColRef)
		if !ok {
			continue
		}
		at := e.aux[cr.Table]
		if at == nil || !contains(at.def.PlainAttrs, cr.Name) {
			continue
		}
		if err := at.EnsureIndex(cr.Name); err != nil {
			return err
		}
	}
	return nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
