package maintain

import (
	"fmt"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/ra"
	"mindetail/internal/schema"
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

	// jnl is the coordinator's undo log for the shared auxiliary tables;
	// each view engine keeps its own log for its materialized groups, so
	// a failed Apply rolls back the tables and every already-applied view.
	jnl journal
}

// NewSharedEngines builds the coordinator. Call Init before Apply. A bad
// shared plan (inconsistent auxiliary definitions, unindexable attributes)
// surfaces as a returned error, not a process crash.
func NewSharedEngines(sp *core.SharedPlan) (*SharedEngines, error) {
	se := &SharedEngines{sp: sp, tables: make(map[string]*AuxTable)}
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
// every view engine reports stage timings and apply traces into it. Not
// safe concurrently with Apply.
func (se *SharedEngines) SetMetrics(m *Metrics) {
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

// Apply propagates one base-table delta: the shared table of d.Table is
// maintained first, once, then every view's engine stages its groups
// through Propagate. This is the single-engine order (Engine.Apply also
// maintains the delta's own auxiliary view before the impact join): an
// engine joins its delta rows only against OTHER tables' auxiliary views,
// and a view that joins d.Table needs its post-delta membership, which the
// shared auxApply establishes under the SHARED local conditions.
//
// Apply is failure-atomic across the whole class: when any view's engine
// fails, the staged engines and the shared tables are rolled back, so no
// delta is ever visible in some views but not others. A delta on a table
// the class's catalog does not define is rejected before anything changes.
func (se *SharedEngines) Apply(d Delta) error {
	meta := se.sp.Views[0].Catalog().Table(d.Table)
	if meta == nil {
		return fmt.Errorf("maintain: unknown table %s", d.Table)
	}
	se.jnl.begin()
	if at := se.tables[d.Table]; at != nil {
		if err := se.auxApply(at, meta, d); err != nil {
			se.jnl.rollback()
			return err
		}
	}
	// The shared tables are quiescent from here on: engines stage against
	// them read-only, through their private probe scratch.
	if _, err := Propagate(se.engines, d, nil, nil); err != nil {
		se.jnl.rollback()
		return fmt.Errorf("maintain: shared %w", err)
	}
	se.jnl.discard()
	return nil
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
func (se *SharedEngines) auxApply(at *AuxTable, meta *schema.Table, d Delta) error {
	def := at.Def()
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
