package maintain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/ra"
	"mindetail/internal/types"
)

// SharedEngines maintains a class of views over ONE shared set of
// auxiliary tables (core.DeriveShared, the Section 4 "classes of summary
// data" generalization). The coordinator maintains each shared table once
// per delta; every view's engine then propagates the delta to its own
// materialized groups, re-applying its residual local conditions when it
// joins the (wider) shared tables.
type SharedEngines struct {
	sp      *core.SharedPlan
	tables  map[string]*AuxTable
	engines []*Engine

	// Workers bounds the number of view engines staging one delta
	// concurrently; 0 means GOMAXPROCS, 1 forces the serial path. Staging
	// is read-only on the shared tables (the coordinator maintains them
	// first, serially), so engines of the class can stage in parallel.
	Workers int

	// DisableMemo turns off cross-engine work sharing through the per-delta
	// DeltaMemo — the verification/baseline configuration.
	DisableMemo bool

	// jnl is the coordinator's undo log for the shared auxiliary tables;
	// each view engine keeps its own log for its materialized groups, so
	// a failed Apply rolls back the tables and every already-applied view.
	jnl journal

	// met is the class's observability sink (nil = off): every view engine
	// reports into it, and Apply folds each delta's memo counters in.
	met *Metrics
}

// classSeq tags each shared class with a process-unique memo scope: engines
// of different classes must never share memoized results (their auxiliary
// tables are class-specific), even when their view fingerprints collide.
var classSeq atomic.Int64

// NewSharedEngines builds the coordinator. Call Init before Apply. A bad
// shared plan (inconsistent auxiliary definitions, unindexable attributes)
// surfaces as a returned error, not a process crash.
func NewSharedEngines(sp *core.SharedPlan) (*SharedEngines, error) {
	se := &SharedEngines{sp: sp, tables: make(map[string]*AuxTable)}
	scope := fmt.Sprintf("class%d", classSeq.Add(1))
	for t, def := range sp.Aux {
		if def.Omitted {
			continue
		}
		at, err := NewAuxTable(def)
		if err != nil {
			return nil, fmt.Errorf("maintain: shared auxiliary table for %s: %w", t, err)
		}
		at.jnl = &se.jnl
		se.tables[t] = at
	}
	for i := range sp.Views {
		plan := sp.PlanFor(i)
		// The view's engine sees only the shared tables of its own
		// referenced tables; the coordinator maintains contents.
		viewTables := make(map[string]*AuxTable)
		for t, def := range plan.Aux {
			if def.Omitted {
				continue
			}
			viewTables[t] = se.tables[t]
		}
		eng, err := newEngine(plan, viewTables, sp.Residual[i], true)
		if err != nil {
			return nil, fmt.Errorf("maintain: shared view %s: %w", sp.Views[i].Name, err)
		}
		eng.memoScope = scope
		// Pre-build every index the lazy recomputation paths would create
		// mid-apply: parallel staging must never mutate the shared tables.
		if err := eng.prepareSharedIndexes(); err != nil {
			return nil, fmt.Errorf("maintain: shared view %s: %w", sp.Views[i].Name, err)
		}
		se.engines = append(se.engines, eng)
	}
	return se, nil
}

// Engine returns view i's engine (for snapshots and stats).
func (se *SharedEngines) Engine(i int) *Engine { return se.engines[i] }

// SetMetrics attaches (nil detaches) an observability sink to the class:
// every view engine reports stage timings and apply traces into it, and
// Apply folds each delta's DeltaMemo counters in. Not safe concurrently
// with Apply.
func (se *SharedEngines) SetMetrics(m *Metrics) {
	se.met = m
	for _, eng := range se.engines {
		eng.SetMetrics(m)
	}
}

// Views returns the number of maintained views.
func (se *SharedEngines) Views() int { return len(se.engines) }

// AuxBytes returns the byte-accounting size of the shared tables — counted
// once, however many views they serve.
func (se *SharedEngines) AuxBytes() int {
	n := 0
	for _, at := range se.tables {
		n += at.Bytes()
	}
	return n
}

// Init materializes the shared auxiliary views and every view's component
// form from base relations; afterwards the sources can be detached.
func (se *SharedEngines) Init(src func(table string) *ra.Relation) error {
	mats, err := se.sp.Materialize(src)
	if err != nil {
		return err
	}
	for t, rel := range mats {
		if err := se.tables[t].Load(rel); err != nil {
			return err
		}
	}
	for _, eng := range se.engines {
		if err := eng.initMV(src); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the user-facing contents of view i (HAVING applied).
func (se *SharedEngines) Snapshot(i int) (*ra.Relation, error) {
	return se.sp.Views[i].ApplyHaving(se.engines[i].Snapshot())
}

// Apply propagates one base-table delta: the shared tables are maintained
// once, then every view's groups. Every view sees the delta against the
// same pre-delta auxiliary state, so the shared tables are updated only
// after all views have computed their impact when the delta's table is a
// non-root (dimension) table, and before when it is a root — matching the
// single-engine ordering (a view's own delta rows are used directly; only
// OTHER tables' auxiliary contents matter during the impact join).
func (se *SharedEngines) Apply(d Delta) error {
	// Determine, per view, whether the delta's table is that view's root;
	// engines never read their own delta table's auxiliary view during
	// vImpact, so a single global ordering works: update the shared table
	// for d.Table first (it is only read by engines for which d.Table is a
	// JOINED table — and for those the paper's semantics require the
	// post-local-condition membership state, which auxApply establishes
	// exactly as the single-engine path does).
	//
	// Apply is failure-atomic across the whole class: when any view's
	// engine fails, the already-applied engines and the shared tables are
	// rolled back, so no delta is ever visible in some views but not
	// others.
	se.jnl.begin()
	at := se.tables[d.Table]
	if at != nil {
		// Reuse the first engine referencing the table for the shared
		// auxApply: the shared definition's local conditions and semijoins
		// live on the AuxTable's own definition, so any engine's expand is
		// NOT suitable — the shared table must apply the SHARED conditions.
		if err := se.auxApply(at, d); err != nil {
			se.jnl.rollback()
			return err
		}
	}
	var memo *DeltaMemo
	if !se.DisableMemo {
		memo = NewDeltaMemo()
	}
	staged := make([]bool, len(se.engines))
	errs := make([]error, len(se.engines))
	if workers := poolSize(se.Workers, len(se.engines)); workers <= 1 {
		for i, eng := range se.engines {
			if aerr := eng.StageWithMemo(d, memo); aerr != nil {
				errs[i] = aerr
				break
			}
			staged[i] = true
		}
	} else {
		// Every engine stages concurrently: the shared tables are quiescent
		// (auxApply above already ran), engines read them only through their
		// private probe scratch, and each engine journals only its own
		// materialized groups.
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, eng := range se.engines {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int, eng *Engine) {
				defer wg.Done()
				defer func() { <-sem }()
				if aerr := eng.StageWithMemo(d, memo); aerr != nil {
					errs[i] = aerr
					return
				}
				staged[i] = true
			}(i, eng)
		}
		wg.Wait()
	}
	if memo != nil && se.met != nil {
		se.met.AddMemoStats(memo.Stats())
	}
	var err error
	for i, aerr := range errs {
		if aerr != nil {
			err = fmt.Errorf("maintain: shared view %s: %w", se.sp.Views[i].Name, aerr)
			break
		}
	}
	if err == nil {
		for _, eng := range se.engines {
			eng.Commit()
		}
		se.jnl.discard()
		return nil
	}
	// Failing engines rolled themselves back inside StageWithMemo; undo the
	// successfully staged engines newest-first, then the shared tables, so
	// the class is bit-identical to its pre-delta state.
	for i := len(se.engines) - 1; i >= 0; i-- {
		if staged[i] {
			se.engines[i].Rollback()
		}
	}
	se.jnl.rollback()
	return err
}

// poolSize resolves a worker-pool request against the number of tasks:
// 0 means GOMAXPROCS, and the pool never exceeds the task count.
func poolSize(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetFaultHook installs (nil removes) a fault-injection hook on every view
// engine and the shared auxiliary tables. Tests only.
func (se *SharedEngines) SetFaultHook(h *faultinject.Hook) {
	for _, eng := range se.engines {
		eng.SetFaultHook(h)
	}
	for _, at := range se.tables {
		at.fi = h
	}
}

// auxApply maintains one shared auxiliary table under a delta, applying
// the SHARED local conditions (not any single view's) and the shared
// semijoins.
func (se *SharedEngines) auxApply(at *AuxTable, d Delta) error {
	def := at.Def()
	cat := se.sp.Views[0].Catalog()
	meta := cat.Table(d.Table)
	if meta == nil {
		return fmt.Errorf("maintain: unknown table %s", d.Table)
	}

	var signed []signedRow
	for _, r := range d.Deletes {
		signed = append(signed, signedRow{row: r, s: -1})
	}
	for _, u := range d.Updates {
		signed = append(signed, signedRow{row: u.Old, s: -1}, signedRow{row: u.New, s: 1})
	}
	for _, r := range d.Inserts {
		signed = append(signed, signedRow{row: r, s: 1})
	}
	for _, sr := range signed {
		if len(sr.row) != len(meta.Attrs) {
			return fmt.Errorf("maintain: delta row for %s has %d values, want %d",
				d.Table, len(sr.row), len(meta.Attrs))
		}
	}

	// Shared local conditions.
	if len(def.Local) > 0 {
		cols := make(ra.Schema, len(meta.Attrs))
		for i, a := range meta.Attrs {
			cols[i] = ra.Col{Table: d.Table, Name: a.Name}
		}
		pred, err := ra.BindAll(def.Local, cols)
		if err != nil {
			return err
		}
		kept := signed[:0]
		for _, sr := range signed {
			ok, err := pred(sr.row)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, sr)
			}
		}
		signed = kept
	}

	pos := func(attr string) int { return meta.AttrIndex(attr) }
	var plainPos []int
	for _, a := range def.PlainAttrs {
		plainPos = append(plainPos, pos(a))
	}
	for _, sr := range signed {
		pass := true
		for _, sj := range def.SemiJoins {
			child := se.tables[sj.Right]
			if child == nil || !child.Contains(sj.RightAttr, sr.row[pos(sj.LeftAttr)]) {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		plainVals := sr.row.Project(plainPos)
		sumDeltas := make(map[string]types.Value, len(def.SumAttrs))
		for _, a := range def.SumAttrs {
			dv, err := types.Mul(types.Int(sr.s), sr.row[pos(a)])
			if err != nil {
				return err
			}
			sumDeltas[a] = dv
		}
		if err := at.Adjust(plainVals, sumDeltas, nil, sr.s); err != nil {
			return err
		}
	}
	return nil
}
