// Package maintain implements self-maintenance of a materialized GPSJ view
// from its minimal auxiliary views, without any access to the base tables
// (paper Sections 2.2 and 3.2).
//
// The materialized view is kept in a *component form* that follows the
// Table 2 replacement rules: every CSMAS aggregate is stored as its
// distributive components (SUM and/or COUNT), every non-CSMAS aggregate
// (MIN/MAX, DISTINCT) as a stored value that is repaired by partial
// recomputation from the auxiliary views, plus a hidden per-group COUNT(*)
// that detects group death. The user-facing contents are produced by
// Snapshot, which combines components (AVG = SUM/COUNT).
package maintain

import (
	"fmt"
	"sort"
	"sync"

	"mindetail/internal/aggregates"
	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// compKind enumerates the component kinds of the maintenance form.
type compKind int

const (
	compGroupBy compKind = iota // a group-by column
	compCount                   // COUNT(*) or COUNT(a): a row count
	compSum                     // a running SUM(a)
	compStored                  // a non-CSMAS value repaired by recomputation
)

// component describes one column of the maintenance form.
type component struct {
	kind compKind
	item ra.ProjItem // the view item this component belongs to
	arg  ra.ColRef   // aggregate argument (compSum, compStored with arg)

	// compStored only: DISTINCT aggregates fold a value set (dk is the
	// component's ordinal among them); the rest are plain MIN or MAX.
	distinct bool
	max      bool
	dk       int
}

// beats reports whether v replaces cur as a MIN/MAX component's extremum.
func (c *component) beats(v, cur types.Value) bool {
	if c.max {
		return types.Compare(v, cur) > 0
	}
	return types.Compare(v, cur) < 0
}

// MaterializedView is the maintained state of V in component form.
type MaterializedView struct {
	view *gpsj.View

	// comps lists the maintenance-form columns: group-by columns first (in
	// item order interleaved as in the view), then per-aggregate
	// components. itemComps[i] gives the component indexes of view item i.
	comps     []component
	itemComps [][]int
	gbIdx     []int // component indexes that are group-by columns

	// storedIdx lists the stored (non-CSMAS) components: distinctIdx the
	// DISTINCT ones, extremaIdx the plain MIN/MAX ones.
	storedIdx   []int
	distinctIdx []int
	extremaIdx  []int

	// rows maps the encoded group-by key to the component tuple, with one
	// extra trailing value: the hidden group COUNT(*).
	rows map[string]tuple.Tuple

	// pub is Snapshot's last output, patched rather than rebuilt.
	pub published
}

// published is the last output of Snapshot: the group keys in sorted order
// and the rendered rows, position for position. dirty holds the group keys
// that commits journaled since (Engine.Commit hands them over); all forces
// every group to re-render (after initMV or ImportState replaced the rows
// wholesale). mu guards it all: the warehouse runs concurrent Snapshot
// calls under its read lock. spare is the previous keys slice, reused as
// the next merge's output (the keys are never published; the rows are).
type published struct {
	mu    sync.Mutex
	keys  []string
	rows  []tuple.Tuple
	dirty map[string]struct{}
	all   bool
	spare []string
}

// NewMaterializedView builds an empty maintenance form for the view.
func NewMaterializedView(v *gpsj.View) *MaterializedView {
	mv := &MaterializedView{view: v, rows: make(map[string]tuple.Tuple)}
	mv.pub.dirty = make(map[string]struct{})
	mv.pub.all = true
	for _, it := range v.Items {
		var idxs []int
		add := func(c component) {
			idxs = append(idxs, len(mv.comps))
			mv.comps = append(mv.comps, c)
		}
		if !it.IsAggregate() {
			add(component{kind: compGroupBy, item: it})
			mv.gbIdx = append(mv.gbIdx, idxs[0])
		} else {
			agg := it.Agg
			switch {
			case !aggregates.IsCSMAS(agg):
				c := component{kind: compStored, item: it, distinct: agg.Distinct, max: agg.Func == ra.FuncMax}
				if agg.Arg != nil {
					c.arg = agg.Arg.(ra.ColRef)
				}
				mv.storedIdx = append(mv.storedIdx, len(mv.comps))
				if c.distinct {
					c.dk = len(mv.distinctIdx)
					mv.distinctIdx = append(mv.distinctIdx, len(mv.comps))
				} else {
					mv.extremaIdx = append(mv.extremaIdx, len(mv.comps))
				}
				add(c)
			case agg.Func == ra.FuncCount:
				add(component{kind: compCount, item: it})
			case agg.Func == ra.FuncSum:
				add(component{kind: compSum, item: it, arg: agg.Arg.(ra.ColRef)})
			case agg.Func == ra.FuncAvg:
				add(component{kind: compSum, item: it, arg: agg.Arg.(ra.ColRef)})
				add(component{kind: compCount, item: it})
			default:
				panic(fmt.Sprintf("maintain: unexpected aggregate %s", agg))
			}
		}
		mv.itemComps = append(mv.itemComps, idxs)
	}
	return mv
}

// View returns the view definition.
func (mv *MaterializedView) View() *gpsj.View { return mv.view }

// Groups returns the number of materialized groups.
func (mv *MaterializedView) Groups() int { return len(mv.rows) }

// hiddenIdx is the position of the hidden group count inside a stored row.
func (mv *MaterializedView) hiddenIdx() int { return len(mv.comps) }

// keyOf extracts the encoded group key from a component tuple.
func (mv *MaterializedView) keyOf(row tuple.Tuple) string {
	return row.KeyAt(mv.gbIdx)
}

// global reports whether the view has no group-by attributes (a single
// global aggregation group, which exists even over an empty input).
func (mv *MaterializedView) global() bool { return len(mv.gbIdx) == 0 }

// blank returns a fresh component tuple for a new group with the given
// group-by values at the group-by positions.
func (mv *MaterializedView) blank(gbVals []types.Value) tuple.Tuple {
	row := make(tuple.Tuple, len(mv.comps)+1)
	for i := range row {
		row[i] = types.Null
	}
	for i, gi := range mv.gbIdx {
		row[gi] = gbVals[i]
	}
	for ci, c := range mv.comps {
		if c.kind == compCount {
			row[ci] = types.Int(0)
		}
	}
	row[mv.hiddenIdx()] = types.Int(0)
	return row
}

// adjustBuf applies a signed weighted contribution to a group's CSMAS
// components and the hidden count: dCnt row-count units, and per-sum-
// component value deltas (sums, indexed by component; only the SUM
// components' entries are read). It creates the group when absent and
// removes it when the hidden count returns to zero (unless the view is
// global, or keep defers the removal to the caller), and returns the
// group's row afterwards (nil when removed). The group key comes
// pre-encoded in a caller-owned scratch buffer: lookups and deletes use
// string(key) conversions the runtime elides, so the hot adjustment loop
// allocates a key string only when a new group is created.
func (mv *MaterializedView) adjustBuf(key []byte, gbVals []types.Value, dCnt int64, sums []types.Value, keep bool) (tuple.Tuple, error) {
	row := mv.rows[string(key)]
	existed := row != nil
	out, err := mv.adjustRowCore(row, gbVals, dCnt, sums, keep)
	if err != nil {
		return nil, err
	}
	switch {
	case out == nil && existed:
		delete(mv.rows, string(key))
	case out != nil && !existed:
		mv.rows[string(key)] = out
	}
	// existed && out != nil: out is row, adjusted in place.
	return out, nil
}

// adjustRowCore applies one weighted contribution to a component row image
// without touching the view's row map: row is the current image (nil =
// absent; a blank group is created) and the result is the image afterwards
// (nil = group death, never produced for a global view or under keep).
// Existing rows are mutated in place. The caller, adjustBuf, reconciles the
// map.
//
// keep serves views with stored components: a group whose only fact is
// updated passes through count zero between the old image and the new, and
// dropping it there would lose the stored values the delta provably does
// not change. The caller removes groups still empty after the last row.
func (mv *MaterializedView) adjustRowCore(row tuple.Tuple, gbVals []types.Value, dCnt int64, sums []types.Value, keep bool) (tuple.Tuple, error) {
	if row == nil {
		row = mv.blank(gbVals)
	}
	for ci, c := range mv.comps {
		switch c.kind {
		case compCount:
			row[ci] = types.Int(row[ci].AsInt() + dCnt)
		case compSum:
			if err := accumulate(&row[ci], sums[ci]); err != nil {
				return row, err
			}
		}
	}
	h := mv.hiddenIdx()
	row[h] = types.Int(row[h].AsInt() + dCnt)
	if row[h].AsInt() < 0 {
		return row, fmt.Errorf("maintain: group %v count went negative (inconsistent delta stream)", gbVals)
	}
	if mv.empty(row) && !keep {
		return nil, nil
	}
	return row, nil
}

// empty reports whether a group's hidden count says it holds no detail row
// any more (a global view's single group is never empty in this sense).
func (mv *MaterializedView) empty(row tuple.Tuple) bool {
	return row[mv.hiddenIdx()].AsInt() == 0 && !mv.global()
}

// raiseRow absorbs an inserted value into a stored MIN/MAX component — the
// insertion-only SMA fast path of Table 1.
func (mv *MaterializedView) raiseRow(row tuple.Tuple, ci int, v types.Value) {
	if row[ci].IsNull() || mv.comps[ci].beats(v, row[ci]) {
		row[ci] = v
	}
}

// deleteGroups removes the groups with the given encoded keys.
func (mv *MaterializedView) deleteGroups(keys groupSet) {
	for k := range keys {
		if mv.global() {
			// A global group is never removed; it is overwritten by the
			// recomputation that follows.
			continue
		}
		delete(mv.rows, k)
	}
}

// setRow installs a complete component row (from recomputation).
func (mv *MaterializedView) setRow(row tuple.Tuple) {
	mv.rows[mv.keyOf(row)] = row
}

// resetPublished drops Snapshot's previous output: the next one renders
// every group. Callers that replace the rows wholesale (initMV,
// ImportState) call it.
func (mv *MaterializedView) resetPublished() {
	p := &mv.pub
	p.mu.Lock()
	p.keys, p.rows, p.all = nil, nil, true
	clear(p.dirty)
	p.mu.Unlock()
}

// markDirty records the view groups an apply journaled, so the next
// Snapshot re-renders exactly those. Engine.Commit and rollback call it
// with the journal's entries before discarding them. Until the first
// Snapshot after a reset (a WAL replay, say) every group re-renders
// anyway, so nothing is recorded.
func (mv *MaterializedView) markDirty(ents []undoEntry) {
	if len(ents) == 0 {
		return
	}
	p := &mv.pub
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.all {
		return
	}
	for i := range ents {
		if ents[i].mv == mv {
			p.dirty[ents[i].key] = struct{}{}
		}
	}
}

// Snapshot renders the user-facing contents of the view: one output column
// per view item, combining components (COUNT from its counter, SUM from its
// running sum, AVG = SUM/COUNT, stored values directly), one row per group
// in key order. An empty SUM/AVG group (possible only for global views)
// yields NULL, matching SQL.
//
// Only the groups committed applies touched since the previous call are
// rendered again; every other row is shared with the previous output. The
// returned relation is therefore shared, read-only state.
func (mv *MaterializedView) Snapshot() *ra.Relation {
	cols := make(ra.Schema, len(mv.view.Items))
	for i, it := range mv.view.Items {
		cols[i] = ra.Col{Name: it.Name}
	}
	out := ra.NewRelation(cols)
	p := &mv.pub
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.all || len(p.dirty) > 0 {
		mv.patch()
	}
	out.Rows = p.rows
	return out
}

// patch merges the dirty groups into the previous output in key order.
// Clean rows are shared, dirty ones re-rendered; a dirty key the previous
// output lacks is a birth, and one the rows no longer hold a death. A full
// render is the same merge with every key dirty and nothing published.
// Callers hold pub.mu.
func (mv *MaterializedView) patch() {
	p := &mv.pub
	var dirty []string
	if p.all {
		dirty = make([]string, 0, len(mv.rows))
		for k := range mv.rows {
			dirty = append(dirty, k)
		}
	} else {
		dirty = make([]string, 0, len(p.dirty))
		for k := range p.dirty {
			dirty = append(dirty, k)
		}
	}
	sort.Strings(dirty)
	keys := p.spare[:0]
	rows := make([]tuple.Tuple, 0, len(p.rows)+len(dirty))
	i := 0
	for _, k := range dirty {
		for i < len(p.keys) && p.keys[i] < k {
			keys = append(keys, p.keys[i])
			rows = append(rows, p.rows[i])
			i++
		}
		if i < len(p.keys) && p.keys[i] == k {
			i++ // re-rendered below, or dead
		}
		if row, ok := mv.rows[k]; ok {
			keys = append(keys, k)
			rows = append(rows, mv.render(row))
		}
	}
	keys = append(keys, p.keys[i:]...)
	rows = append(rows, p.rows[i:]...)
	// The published rows are capped at their length, so a reader appending
	// to them copies instead of writing into the next merge's view.
	p.spare, p.keys, p.rows = p.keys, keys, rows[:len(rows):len(rows)]
	clear(p.dirty)
	p.all = false
}

// render turns one component row into its user-facing row.
func (mv *MaterializedView) render(row tuple.Tuple) tuple.Tuple {
	orow := make(tuple.Tuple, len(mv.view.Items))
	for i, it := range mv.view.Items {
		idxs := mv.itemComps[i]
		switch {
		case !it.IsAggregate():
			orow[i] = row[idxs[0]]
		case it.Agg.Func == ra.FuncAvg && aggregates.IsCSMAS(it.Agg):
			sum, cnt := row[idxs[0]], row[idxs[1]]
			if sum.IsNull() || cnt.AsInt() == 0 {
				orow[i] = types.Null
			} else {
				orow[i] = types.Float(sum.AsFloat() / float64(cnt.AsInt()))
			}
		case it.Agg.Func != ra.FuncCount && row[mv.hiddenIdx()].AsInt() == 0:
			// An empty (global) group: SUM/AVG/MIN/MAX are NULL.
			orow[i] = types.Null
		default:
			orow[i] = row[idxs[0]]
		}
	}
	return orow
}

// Bytes returns the byte-accounting size of the maintenance form.
func (mv *MaterializedView) Bytes() int {
	n := 0
	for _, row := range mv.rows {
		n += row.EncodedSize()
	}
	return n
}
