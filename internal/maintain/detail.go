package maintain

import (
	"encoding/binary"
	"fmt"

	"mindetail/internal/faultinject"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// deltaRows is the outcome of the delta-detail join: the weighted detail
// rows a delta contributes to the view, materialized (each row is the
// concatenation of the plan's slots) because splitAffected and
// adjustFromDetail both read them. A row's weight is the signed number of
// underlying base detail rows it stands for. Consumers treat all fields as
// read-only.
type deltaRows struct {
	plan    *detailPlan
	rows    []tuple.Tuple
	weights []int64
}

// appendRow is the join walker's sink on the delta path.
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

// deltaDetail joins the signed delta rows of table t with the auxiliary
// tables of every needed table (see tablesFor), producing weighted detail
// rows: the root COUNT(*) multiplies in when climbing through a compressed
// root view.
func (e *Engine) deltaDetail(t string, signed []signedRow) (*deltaRows, error) {
	defer e.stageEnd(StageDeltaJoin, e.stageStart())
	p, err := e.detailPlanFor(t, true)
	if err != nil {
		return nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	d := &deltaRows{plan: p, rows: make([]tuple.Tuple, 0, len(signed)), weights: make([]int64, 0, len(signed))}
	e.walker.reset(p, d.appendRow)
	for _, sr := range signed {
		if err = e.walker.walk(sr.row, sr.s); err != nil {
			break
		}
	}
	e.walker.release()
	e.stats.auxLookups.Add(e.walker.probes)
	if err != nil {
		return nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	return d, nil
}

// sumDeltas fills out with one weighted detail row's contribution to every
// SUM component: the raw attribute scaled by the signed weight, or the
// compressed SUM column scaled by the sign only.
func (mv *MaterializedView) sumDeltas(p *detailPlan, row tuple.Tuple, w int64, out map[int]types.Value) error {
	clear(out)
	for ci := range mv.comps {
		if mv.comps[ci].kind != compSum {
			continue
		}
		arg := &p.args[ci]
		m := w
		if arg.compressed {
			m = 1
			if w < 0 {
				m = -1
			}
		}
		d, err := types.Mul(types.Int(m), row[arg.flat])
		if err != nil {
			return err
		}
		out[ci] = d
	}
	return nil
}

// adjustFromDetail applies incremental adjustments for each weighted detail
// row whose group is not in skip: the CSMAS components and the hidden count
// move by the row's contribution, and stored MIN/MAX components absorb
// every inserted value (the SMA insertion path of Table 1 — a positive row
// exists after the delta, so it can only confirm or improve the extremum).
// Group keys are encoded into a reused scratch buffer, and the per-row
// sum-delta map is cleared and reused, so the steady-state loop allocates
// only on group creation.
func (e *Engine) adjustFromDetail(d *deltaRows, skip groupSet) error {
	p, mv := d.plan, e.mv
	keep := len(mv.storedIdx) > 0
	gbVals := make([]types.Value, len(p.gbFlat))
	sumDeltas := make(map[int]types.Value)
	var emptied []string
	var adjusts int64
	defer func() { e.stats.groupAdjusts.Add(adjusts) }()
	buf := e.keyBuf[:0]
	for i, row := range d.rows {
		w := d.weights[i]
		buf = row.AppendKeyAt(buf[:0], p.gbFlat)
		if _, ok := skip[string(buf)]; ok {
			continue
		}
		for gi, pos := range p.gbFlat {
			gbVals[gi] = row[pos]
		}
		if err := mv.sumDeltas(p, row, w, sumDeltas); err != nil {
			return err
		}
		if err := e.fi.Fire(faultinject.MVAdjustRow); err != nil {
			return err
		}
		e.jnl.noteMV(mv, buf)
		if err := mv.adjustBuf(buf, gbVals, w, sumDeltas, keep); err != nil {
			return err
		}
		adjusts++
		if !keep {
			continue
		}
		cur := mv.rows[string(buf)]
		if w > 0 {
			for _, ci := range mv.extremaIdx {
				mv.raiseRow(cur, ci, row[p.args[ci].flat])
			}
		}
		if mv.empty(cur) {
			emptied = append(emptied, string(buf))
		}
	}
	e.keyBuf = buf[:0]
	for _, k := range emptied {
		if row, ok := mv.rows[k]; ok && mv.empty(row) {
			delete(mv.rows, k)
		}
	}
	return nil
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
