package maintain

import (
	"fmt"
	"sort"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
)

// tablesFor computes the set of tables a delta on t must join with:
// owners of group-by attributes and aggregate arguments (to adjust or
// locate groups), every filtering table (to decide view membership), the
// root (for duplicate multiplicities), all closed under tree paths from t.
// With UseNeedSets disabled, every referenced table joins.
func (e *Engine) tablesFor(t string) map[string]bool {
	needed := map[string]bool{t: true}
	if !e.UseNeedSets {
		for _, u := range e.view.Tables {
			needed[u] = true
		}
		return needed
	}
	for _, a := range e.view.GroupBy() {
		needed[a.Table] = true
	}
	for _, agg := range e.view.Aggregates() {
		if agg.Arg != nil {
			needed[agg.Arg.(ra.ColRef).Table] = true
		}
	}
	for u, f := range e.filtering {
		if f {
			needed[u] = true
		}
	}
	if t != e.graph.Root {
		needed[e.graph.Root] = true
	}
	// Close under tree paths from t: joining u requires every table on the
	// t–u path.
	anc := func(x string) []string {
		path := []string{x}
		for x != e.graph.Root {
			x = e.graph.Parent[x]
			path = append(path, x)
		}
		return path
	}
	tPath := anc(t)
	onTPath := make(map[string]int)
	for i, x := range tPath {
		onTPath[x] = i
	}
	closed := map[string]bool{}
	for u := range needed {
		uPath := anc(u) // u ... root
		// Find the first vertex of uPath that lies on tPath: the LCA.
		lca := -1
		for i, x := range uPath {
			if _, ok := onTPath[x]; ok {
				lca = i
				break
			}
		}
		for i := 0; i <= lca; i++ {
			closed[uPath[i]] = true
		}
		for i := 0; i <= onTPath[uPath[lca]]; i++ {
			closed[tPath[i]] = true
		}
	}
	return closed
}

// cell addresses one value of a joined detail row that is never
// materialized: column pos of the row bound to table slot slot.
type cell struct{ slot, pos int }

// argBind is where one maintenance-form component reads its input: the
// group-by attribute, the SUM argument, or the stored aggregate's argument.
// flat is the same column in a concatenated row (the delta path, whose few
// rows are read twice, materializes; recomputation reads cells in place).
type argBind struct {
	cell
	flat int
	// compressed marks a SUM argument read from the root auxiliary view's
	// SUM column: it already stands for all duplicates of its row, so it is
	// never scaled by the multiplicity.
	compressed bool
}

// joinStep folds one auxiliary table into the walk by probing its hash
// index with a value of an already-bound slot. A down step (the bound
// parent references the table's key) matches at most one row and acts as a
// membership filter; an up step fans out, and a compressed table's COUNT(*)
// (cntPos >= 0) multiplies into the weight.
type joinStep struct {
	at     *AuxTable
	attr   string
	probe  cell
	slot   int
	down   bool
	cntPos int
}

// detailPlan is the compiled shape of the view detail reachable from one
// start table: the folded edge sequence with every join key resolved, and
// every component's input cell. It depends only on the derivation plan and
// UseNeedSets, so the engine builds it once per (start table, row layout)
// and every delta, recomputation and initialization reuses it.
type detailPlan struct {
	steps  []joinStep
	cols   ra.Schema // concatenated schema, slot by slot in fold order
	base   []int     // offset of each slot in a concatenated row
	args   []argBind // index-aligned with the view's components
	gb     []cell    // group-by cells, in group-by order
	gbFlat []int

	// startCnt is the COUNT(*) column of an auxiliary start table
	// (recomputation), -1 when absent: a compressed root seed row carries
	// its own multiplicity.
	startCnt int
}

// planKey names one cached detailPlan: base selects the base-table row
// layout for the start slot (delta rows) over the auxiliary layout (seeds).
type planKey struct {
	start string
	base  bool
}

// planCache holds everything the engine compiles from its derivation plan
// on first use. UseNeedSets is a public knob that shapes every join, so a
// change of it drops the cache.
type planCache struct {
	needSets  bool
	plans     map[planKey]*detailPlan
	seed      *seedSpec
	seedKnown bool
}

func (e *Engine) planCache() *planCache {
	if e.pc.plans == nil || e.pc.needSets != e.UseNeedSets {
		e.pc = planCache{needSets: e.UseNeedSets, plans: make(map[planKey]*detailPlan)}
	}
	return &e.pc
}

// detailPlanFor returns (and caches) the compiled plan for walks starting
// at the given table.
func (e *Engine) detailPlanFor(start string, base bool) (*detailPlan, error) {
	pc := e.planCache()
	k := planKey{start, base}
	if p, ok := pc.plans[k]; ok {
		return p, nil
	}
	p, err := e.compileDetailPlan(start, base)
	if err != nil {
		return nil, err
	}
	pc.plans[k] = p
	return p, nil
}

// slotLayout is how one bound table's rows are laid out.
type slotLayout struct {
	at   *AuxTable // nil: rows are full base-table rows
	slot int
}

func (e *Engine) compileDetailPlan(start string, base bool) (*detailPlan, error) {
	p := &detailPlan{startCnt: -1}
	layouts := map[string]slotLayout{}
	bind := func(table string, at *AuxTable, cols ra.Schema) int {
		slot := len(p.base)
		layouts[table] = slotLayout{at: at, slot: slot}
		p.base = append(p.base, len(p.cols))
		p.cols = append(p.cols, cols...)
		return slot
	}
	// plain resolves a stored-as-is attribute to its cell.
	plain := func(table, attr string) (cell, error) {
		l, ok := layouts[table]
		if !ok {
			return cell{}, fmt.Errorf("maintain: join does not reach %s.%s", table, attr)
		}
		if l.at == nil {
			if i := e.view.Catalog().Table(table).AttrIndex(attr); i >= 0 {
				return cell{l.slot, i}, nil
			}
			return cell{}, fmt.Errorf("maintain: %s has no attribute %s", table, attr)
		}
		i, err := l.at.cols.Index(table, attr)
		return cell{l.slot, i}, err
	}

	if base {
		bind(start, nil, e.baseCols(start))
	} else {
		at := e.aux[start]
		if at == nil {
			return nil, fmt.Errorf("maintain: auxiliary view of %s omitted; cannot recompute", start)
		}
		bind(start, at, at.Cols())
		p.startCnt = at.cntPos
	}

	// Fold edges in sorted child order, so the join (and column) order is
	// deterministic across engines.
	needed := e.tablesFor(start)
	children := make([]string, 0, len(e.graph.EdgeTo))
	for c := range e.graph.EdgeTo {
		children = append(children, c)
	}
	sort.Strings(children)
	for progress := true; progress; {
		progress = false
		for _, child := range children {
			j := e.graph.EdgeTo[child]
			_, hasParent := layouts[j.Left]
			_, hasChild := layouts[child]
			var s joinStep
			var table, probeTable, probeAttr string
			switch {
			case hasParent && !hasChild && needed[child]:
				table, probeTable, probeAttr = child, j.Left, j.LeftAttr
				s = joinStep{attr: j.RightAttr, down: true, cntPos: -1}
			case hasChild && !hasParent && needed[j.Left]:
				table, probeTable, probeAttr = j.Left, child, j.RightAttr
				s = joinStep{attr: j.LeftAttr}
			default:
				continue
			}
			s.at = e.aux[table]
			if s.at == nil {
				return nil, fmt.Errorf("maintain: join needs the omitted auxiliary view of %s", table)
			}
			if !s.down {
				s.cntPos = s.at.cntPos
			}
			var err error
			if s.probe, err = plain(probeTable, probeAttr); err != nil {
				return nil, err
			}
			if err := s.at.EnsureIndex(s.attr); err != nil {
				return nil, err
			}
			s.slot = bind(table, s.at, s.at.Cols())
			p.steps = append(p.steps, s)
			progress = true
		}
	}
	for u := range needed {
		if _, ok := layouts[u]; !ok {
			return nil, fmt.Errorf("maintain: join could not reach needed table %s", u)
		}
	}

	// aggCol resolves an attribute the (compressed, root) auxiliary view of
	// its table stores only as an aggregate column.
	aggCol := func(f ra.AggFunc, table, attr string) (cell, bool) {
		if l, ok := layouts[table]; ok && l.at != nil {
			if i, ok := l.at.aggPos(f)[attr]; ok {
				return cell{l.slot, i}, true
			}
		}
		return cell{}, false
	}
	return p, e.mv.bindArgs(p, plain, aggCol)
}

// bindArgs resolves every component's input cell through the given
// resolvers: plain finds an attribute stored as is; aggCol finds the SUM,
// MIN or MAX column standing in for an attribute its auxiliary view
// compressed away.
func (mv *MaterializedView) bindArgs(p *detailPlan,
	plain func(table, attr string) (cell, error),
	aggCol func(f ra.AggFunc, table, attr string) (cell, bool)) error {
	p.args = make([]argBind, len(mv.comps))
	for ci, c := range mv.comps {
		var b argBind
		var err error
		switch c.kind {
		case compGroupBy:
			cr := c.item.Expr.(ra.ColRef)
			if b.cell, err = plain(cr.Table, cr.Name); err != nil {
				return err
			}
			p.gb = append(p.gb, b.cell)
			p.gbFlat = append(p.gbFlat, p.base[b.slot]+b.pos)
		case compSum:
			if b.cell, b.compressed = aggCol(ra.FuncSum, c.arg.Table, c.arg.Name); !b.compressed {
				if b.cell, err = plain(c.arg.Table, c.arg.Name); err != nil {
					return err
				}
			}
		case compStored:
			// The raw attribute when present, otherwise the append-only-
			// compressed MIN/MAX column of the same attribute.
			if b.cell, err = plain(c.arg.Table, c.arg.Name); err != nil {
				ok := false
				if !c.distinct {
					b.cell, ok = aggCol(c.item.Agg.Func, c.arg.Table, c.arg.Name)
				}
				if !ok {
					return err
				}
			}
		}
		b.flat = p.base[b.slot] + b.pos
		p.args[ci] = b
	}
	return nil
}

// flatPlan is the degenerate plan over already-joined rows of the given
// schema (initialization from the base tables): one slot, no steps.
func (mv *MaterializedView) flatPlan(cols ra.Schema) (*detailPlan, error) {
	p := &detailPlan{cols: cols, base: []int{0}, startCnt: -1}
	plain := func(table, attr string) (cell, error) {
		i, err := cols.Index(table, attr)
		return cell{0, i}, err
	}
	noAgg := func(ra.AggFunc, string, string) (cell, bool) { return cell{}, false }
	return p, mv.bindArgs(p, plain, noAgg)
}

// joinWalker executes a detailPlan depth-first: a stack of row references,
// one slot per table, is extended step by step, and every complete binding
// is handed to emit together with its weight — the signed number of base
// detail rows it stands for. Nothing is concatenated; emit reads cells in
// place (or, on the delta path, materializes the row once). Probe results
// must outlive deeper probes, so every step owns its probe scratch.
type joinWalker struct {
	plan   *detailPlan
	rows   []tuple.Tuple
	lk     []probeScratch
	probes int64
	emit   func(rows []tuple.Tuple, weight int64) error
}

// probeScratch is a reusable index-probe buffer pair.
type probeScratch struct {
	rows []tuple.Tuple
	key  []byte
}

// reset points the walker at a plan and sink, keeping its scratch.
func (w *joinWalker) reset(p *detailPlan, emit func([]tuple.Tuple, int64) error) {
	w.plan, w.emit, w.probes = p, emit, 0
	if cap(w.rows) < len(p.base) {
		w.rows = make([]tuple.Tuple, len(p.base))
	}
	w.rows = w.rows[:len(p.base)]
	for len(w.lk) < len(p.steps) {
		w.lk = append(w.lk, probeScratch{})
	}
}

// release drops the walker's references to the sink and the rows of the
// finished walk, so engine-owned scratch never pins a delta's output.
func (w *joinWalker) release() {
	w.emit = nil
	clear(w.rows)
}

// walk binds start to slot 0 and emits every joined row reachable from it.
func (w *joinWalker) walk(start tuple.Tuple, weight int64) error {
	w.rows[0] = start
	return w.step(0, weight)
}

func (w *joinWalker) step(i int, weight int64) error {
	if i == len(w.plan.steps) {
		return w.emit(w.rows, weight)
	}
	s := &w.plan.steps[i]
	lk := &w.lk[i]
	w.probes++
	lk.rows, lk.key = s.at.lookupInto(s.attr, w.rows[s.probe.slot][s.probe.pos], lk.rows[:0], lk.key[:0])
	matches := lk.rows
	if s.down && len(matches) > 1 {
		matches = matches[:1]
	}
	for _, m := range matches {
		wt := weight
		if s.cntPos >= 0 {
			wt *= m[s.cntPos].AsInt()
		}
		w.rows[s.slot] = m
		if err := w.step(i+1, wt); err != nil {
			return err
		}
	}
	return nil
}
