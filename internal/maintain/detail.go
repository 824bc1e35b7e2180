package maintain

import (
	"encoding/binary"
	"fmt"

	"mindetail/internal/faultinject"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// deltaRows is the materialized outcome of the delta-detail join, kept only
// where the delta needs two passes over its rows: splitAffected reads them
// to decide which groups recompute, then adjustFromDetail adjusts the rest.
// Each row is the concatenation of the plan's slots, and its weight is the
// signed number of underlying base detail rows it stands for. Consumers
// treat all fields as read-only. Every other delta streams (adjustFromWalk).
type deltaRows struct {
	plan    *detailPlan
	rows    []tuple.Tuple
	weights []int64
}

// appendRow is the join walker's sink on the two-pass delta path.
func (d *deltaRows) appendRow(rows []tuple.Tuple, w int64) error {
	out := rows[0] // no join steps: the delta's own row, shared read-only
	if len(rows) > 1 {
		out = make(tuple.Tuple, 0, len(d.plan.cols))
		for _, r := range rows {
			out = append(out, r...)
		}
	}
	d.rows = append(d.rows, out)
	d.weights = append(d.weights, w)
	return nil
}

// groupSet maps encoded group keys to their decoded group-by values. The
// values let the delta-scoped recomputation path probe auxiliary indexes
// with the groups' own key attributes instead of re-joining everything.
type groupSet map[string][]types.Value

// streams reports whether a delta's bindings can adjust the view as the
// join produces them, with no second pass: the view stores no component
// that recomputation may repair, or stores only MIN/MAX and the delta only
// inserts (Table 1: MIN and MAX are SMAs for insertions). Weights carry the
// sign of their expanded row (compressed counts are positive), so the
// signed rows decide it before any join.
func (e *Engine) streams(signed []signedRow) bool {
	mv := e.mv
	if len(mv.storedIdx) == 0 {
		return true
	}
	if len(mv.distinctIdx) > 0 {
		return false
	}
	for _, sr := range signed {
		if sr.s < 0 {
			return false
		}
	}
	return true
}

// adjustFromWalk is the streamed delta path: the walker hands each binding
// of the delta join straight to the group adjuster, in the order
// deltaDetail would have materialized them, so float sums add up
// bit-identically. Its time, join and adjust together, is the
// delta_detail_join stage. As on the two-pass path, detail rows count only
// for a join that completed: a walk cut short by a failure counts none.
func (e *Engine) adjustFromWalk(t string, signed []signedRow) error {
	defer e.stageEnd(StageDeltaJoin, e.stageStart())
	p, err := e.detailPlanFor(t, true)
	if err != nil {
		return fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	a := &e.adj
	a.begin(e, p, false, nil)
	if err = e.walkDelta(p, signed, a.add); err == nil {
		e.stats.detailRows.Add(a.bindings)
	}
	return a.finish(err)
}

// deltaDetail is the join of the two-pass path: it materializes every
// binding.
func (e *Engine) deltaDetail(t string, signed []signedRow) (*deltaRows, error) {
	defer e.stageEnd(StageDeltaJoin, e.stageStart())
	p, err := e.detailPlanFor(t, true)
	if err != nil {
		return nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	d := &deltaRows{plan: p, rows: make([]tuple.Tuple, 0, len(signed)), weights: make([]int64, 0, len(signed))}
	if err := e.walkDelta(p, signed, d.appendRow); err != nil {
		return nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	return d, nil
}

// walkDelta joins the signed delta rows with the auxiliary tables of every
// needed table (see tablesFor), handing each binding to emit with its
// weight: the root COUNT(*) multiplies in when climbing through a
// compressed root view.
func (e *Engine) walkDelta(p *detailPlan, signed []signedRow, emit func([]tuple.Tuple, int64) error) error {
	e.walker.reset(p, emit)
	var err error
	for _, sr := range signed {
		if err = e.walker.walk(sr.row, sr.s); err != nil {
			break
		}
	}
	e.walker.release()
	e.stats.auxLookups.Add(e.walker.probes)
	return err
}

// adjustFromDetail is the adjust pass of the two-pass path: every
// materialized row whose group is not in skip goes through the group
// adjuster, read as a one-slot binding.
func (e *Engine) adjustFromDetail(d *deltaRows, skip groupSet) error {
	a := &e.adj
	a.begin(e, d.plan, true, skip)
	var err error
	for i, row := range d.rows {
		a.flat[0] = row
		if err = a.add(a.flat[:], d.weights[i]); err != nil {
			break
		}
	}
	a.flat[0] = nil
	return a.finish(err)
}

// groupAdjuster applies weighted detail bindings to the view's groups: the
// CSMAS components and the hidden count move by the binding's contribution,
// and stored MIN/MAX components absorb every inserted value (the SMA
// insertion path of Table 1 — a positive row exists after the delta, so it
// can only confirm or improve the extremum). Each group is journaled before
// its first change of the stage.
//
// It reads a binding's cells in one of two layouts: the walker's slot-bound
// rows (the streamed path) or deltaRows' concatenated rows (one slot,
// flat positions). The engine owns one; its key buffer, group values and
// sum deltas are reused, so the steady-state loop allocates only on group
// creation and on a group's first journal entry.
type groupAdjuster struct {
	e    *Engine
	mv   *MaterializedView
	skip groupSet
	keep bool

	gb   []cell        // group-by cells, in group-by order
	args []argBind     // per component, re-targeted to the layout
	vals []types.Value // decoded group-by values of the current binding
	sums []types.Value // per component: the current binding's SUM delta
	flat [1]tuple.Tuple
	buf  []byte

	emptied  []string
	bindings int64
	adjusts  int64
}

// begin points the adjuster at a plan, in the flat (concatenated) or
// slot-bound layout; skip holds groups left to recomputation.
func (a *groupAdjuster) begin(e *Engine, p *detailPlan, flat bool, skip groupSet) {
	a.e, a.mv, a.skip = e, e.mv, skip
	a.keep = len(e.mv.storedIdx) > 0
	a.bindings, a.adjusts = 0, 0
	a.gb = append(a.gb[:0], p.gb...)
	a.args = append(a.args[:0], p.args...)
	if flat {
		for i, pos := range p.gbFlat {
			a.gb[i] = cell{0, pos}
		}
		for i := range a.args {
			a.args[i].cell = cell{0, a.args[i].flat}
		}
	}
	if cap(a.vals) < len(a.gb) {
		a.vals = make([]types.Value, len(a.gb))
	}
	a.vals = a.vals[:len(a.gb)]
	if cap(a.sums) < len(a.mv.comps) {
		a.sums = make([]types.Value, len(a.mv.comps))
	}
	a.sums = a.sums[:len(a.mv.comps)]
}

// add applies one binding standing for w signed base detail rows.
func (a *groupAdjuster) add(rows []tuple.Tuple, w int64) error {
	a.bindings++
	mv := a.mv
	buf := a.buf[:0]
	for _, c := range a.gb {
		buf = types.Encode(buf, rows[c.slot][c.pos])
	}
	a.buf = buf
	if _, ok := a.skip[string(buf)]; ok {
		return nil
	}
	for i, c := range a.gb {
		a.vals[i] = rows[c.slot][c.pos]
	}
	for ci := range mv.comps {
		if mv.comps[ci].kind != compSum {
			continue
		}
		// A raw attribute scales by the weight; the compressed SUM column
		// already stands for its duplicates and takes the sign only.
		arg := &a.args[ci]
		m := w
		if arg.compressed {
			m = 1
			if w < 0 {
				m = -1
			}
		}
		d, err := types.Mul(types.Int(m), rows[arg.slot][arg.pos])
		if err != nil {
			return err
		}
		a.sums[ci] = d
	}
	if err := a.e.fi.Fire(faultinject.MVAdjustRow); err != nil {
		return err
	}
	a.e.jnl.noteMV(mv, buf)
	cur, err := mv.adjustBuf(buf, a.vals, w, a.sums, a.keep)
	if err != nil {
		return err
	}
	a.adjusts++
	if !a.keep {
		return nil
	}
	if w > 0 {
		for _, ci := range mv.extremaIdx {
			arg := &a.args[ci]
			mv.raiseRow(cur, ci, rows[arg.slot][arg.pos])
		}
	}
	if mv.empty(cur) {
		a.emptied = append(a.emptied, string(buf))
	}
	return nil
}

// finish publishes the adjust count and, after a clean pass, removes the
// groups still empty after the last binding (kept through zero, see
// adjustRowCore). It releases the adjuster's references and returns err.
func (a *groupAdjuster) finish(err error) error {
	a.e.stats.groupAdjusts.Add(a.adjusts)
	if err == nil {
		for _, k := range a.emptied {
			if row, ok := a.mv.rows[k]; ok && a.mv.empty(row) {
				delete(a.mv.rows, k)
			}
		}
	}
	clear(a.emptied)
	a.emptied = a.emptied[:0]
	clear(a.vals)
	clear(a.sums)
	a.skip = nil
	return err
}

// splitAffected decides, per group the delta touches, between adjustment
// and recomputation — the per-aggregate reading of the paper's Tables 1–2,
// taken from the net effect of the delta before any detail is read. The
// delta rows are netted per stored component:
//
//   - DISTINCT: by (group, argument value). A value whose net weight is
//     zero keeps its multiplicity (a price update re-inserts the brand it
//     removes); any other net may add or drop a distinct value, which the
//     stored aggregate cannot tell, so the group recomputes.
//   - plain MIN/MAX: only rows whose value compares equal to the stored
//     extremum can retire it; the group recomputes when they net negative
//     (a tie still does — the stored row does not know the tie count).
//
// It returns the groups to recompute; every other group adjusts. The
// decision is a pure function of the delta rows and the engine's own
// stored rows. The oracle path (ForceFullRecompute) recomputes every
// affected group.
func (e *Engine) splitAffected(d *deltaRows) groupSet {
	type group struct {
		key      string
		vals     []types.Value
		stored   tuple.Tuple
		negative bool
		recomp   bool
	}
	type net struct {
		group    int
		distinct bool
		w        int64
	}
	p, mv := d.plan, e.mv
	all := e.ForceFullRecompute
	idx := make(map[string]int)
	netIdx := make(map[string]int)
	var groups []group
	var nets []net
	buf := e.keyBuf[:0]
	for i, row := range d.rows {
		buf = row.AppendKeyAt(buf[:0], p.gbFlat)
		gi, ok := idx[string(buf)]
		if !ok {
			gi = len(groups)
			key := string(buf)
			idx[key] = gi
			groups = append(groups, group{key: key, vals: row.Project(p.gbFlat), stored: mv.rows[key]})
		}
		g := &groups[gi]
		w := d.weights[i]
		if w < 0 {
			g.negative = true
		}
		if all {
			continue
		}
		glen := len(buf)
		for _, ci := range mv.storedIdx {
			v := row[p.args[ci].flat]
			buf = binary.AppendUvarint(buf[:glen], uint64(ci))
			distinct := mv.comps[ci].distinct
			if distinct {
				buf = types.Encode(buf, v)
			} else if g.stored == nil || types.Compare(v, g.stored[ci]) != 0 {
				continue
			}
			ni, ok := netIdx[string(buf)]
			if !ok {
				ni = len(nets)
				netIdx[string(buf)] = ni
				nets = append(nets, net{group: gi, distinct: distinct})
			}
			nets[ni].w += w
		}
	}
	e.keyBuf = buf[:0]
	for _, n := range nets {
		if n.w < 0 || (n.distinct && n.w != 0) {
			groups[n.group].recomp = true
		}
	}
	recompute := make(groupSet)
	var avoided int64
	for _, g := range groups {
		switch {
		case all || g.recomp:
			recompute[g.key] = g.vals
		case g.negative:
			avoided++
		}
	}
	e.stats.recomputesAvoided.Add(avoided)
	if e.met != nil {
		e.met.avoided.Add(avoided)
	}
	return recompute
}

// recomputeGroups repairs the given groups from the auxiliary views alone
// (Section 3.2's recomputation of non-CSMAS aggregates): their detail is
// re-aggregated — reached by the delta-scoped index propagation when the
// view's shape admits it, from the full auxiliary join otherwise —
// replacing the stored groups.
func (e *Engine) recomputeGroups(keys groupSet) error {
	if len(keys) == 0 {
		return nil
	}
	st := e.stageStart()
	groups, err := e.reaggregate(keys)
	e.stageEnd(StageRecompute, st)
	if err != nil {
		return err
	}
	// Journal every affected group before the delete+reinstall below: the
	// replacements are a subset of keys (the kernel filters by exact group
	// key), so capturing the keys covers all mutations.
	for k := range keys {
		e.jnl.noteMVKey(e.mv, k)
	}
	e.mv.deleteGroups(keys)
	if err := e.fi.Fire(faultinject.RecomputeInstall); err != nil {
		return err
	}
	for _, g := range groups {
		e.mv.rows[g.key] = g.row
	}
	e.stats.groupRecomputes.Add(int64(len(groups)))
	if e.mv.global() && len(groups) == 0 {
		e.mv.setRow(e.mv.blank(nil))
	}
	return nil
}
