package core

import (
	"fmt"
	"sort"
	"strings"

	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
)

// SharedPlan is the minimal detail data for a *class* of summary views —
// the generalization Section 4 sketches ("our algorithm should then be
// extended to determine the minimal set of detail data for classes of
// summary data"). One auxiliary view per base table serves every view in
// the class:
//
//   - its plain attributes are the union of the per-view plain attributes,
//     plus the attributes of any local condition that is not shared by all
//     views referencing the table (such conditions cannot be pushed into
//     the shared view; they are re-applied per view as residual filters);
//   - a local condition survives only when every referencing view carries
//     it (dropping a condition only widens the view — sound);
//   - a join reduction survives only when every referencing view performs
//     it (again, dropping a semijoin only widens the view);
//   - an attribute compresses into a SUM column only when no view needs it
//     plain; re-aggregation stays exact because SUM and COUNT are
//     distributive over the finer shared grouping;
//   - the auxiliary view for a table is omitted only when every
//     referencing view's own derivation omits it.
//
// Each view is reconstructed from the shared views by its own
// reconstruction query, filtered by its residual conditions.
type SharedPlan struct {
	Views   []*gpsj.View
	PerView []*Plan

	// Aux maps each base table referenced by any view to the merged
	// auxiliary view.
	Aux map[string]*AuxView

	// Residual[i][t] lists view i's local conditions on table t that the
	// shared auxiliary view could not keep.
	Residual []map[string][]ra.Comparison

	// Order is a materialization order: every semijoin target precedes the
	// views that reduce against it.
	Order []string
}

// DeriveShared derives the shared minimal auxiliary views for a class of
// views over one catalog.
func DeriveShared(views []*gpsj.View) (*SharedPlan, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("core: DeriveShared needs at least one view")
	}
	sp := &SharedPlan{Views: views}
	for _, v := range views {
		p, err := Derive(v)
		if err != nil {
			return nil, err
		}
		sp.PerView = append(sp.PerView, p)
	}

	// Group the per-view auxiliary views by base table.
	byTable := make(map[string][]*AuxView)
	viewsOn := make(map[string][]int)
	var tables []string
	for i, p := range sp.PerView {
		for t, x := range p.Aux {
			if len(byTable[t]) == 0 {
				tables = append(tables, t)
			}
			byTable[t] = append(byTable[t], x)
			viewsOn[t] = append(viewsOn[t], i)
		}
	}
	sort.Strings(tables)

	sp.Aux = make(map[string]*AuxView, len(tables))
	sp.Residual = make([]map[string][]ra.Comparison, len(views))
	for i := range sp.Residual {
		sp.Residual[i] = make(map[string][]ra.Comparison)
	}

	for _, t := range tables {
		merged, err := mergeAux(views[0].Catalog().Table(t).Key, t, byTable[t])
		if err != nil {
			return nil, err
		}
		sp.Aux[t] = merged
		if merged.Omitted {
			continue
		}
		// Residual conditions per view: its local conditions minus the
		// shared (common) ones.
		kept := make(map[string]bool, len(merged.Local))
		for _, c := range merged.Local {
			kept[c.String()] = true
		}
		for _, i := range viewsOn[t] {
			for _, c := range sp.Views[i].Local[t] {
				if !kept[c.String()] {
					sp.Residual[i][t] = append(sp.Residual[i][t], c)
				}
			}
		}
	}

	order, err := semijoinOrder(tables, sp.Aux)
	if err != nil {
		return nil, err
	}
	sp.Order = order
	return sp, nil
}

// mergeAux merges the per-view auxiliary views of one base table.
func mergeAux(key, table string, xs []*AuxView) (*AuxView, error) {
	m := &AuxView{Base: table, Name: table + "_dtl"}

	allOmitted := true
	for _, x := range xs {
		if !x.Omitted {
			allOmitted = false
			break
		}
	}
	if allOmitted {
		m.Omitted = true
		m.OmitReason = fmt.Sprintf("%s omitted by every view in the class", table)
		return m, nil
	}

	plain := make(map[string]bool)
	sums := make(map[string]bool)
	localCount := make(map[string]int)
	localByKey := make(map[string]ra.Comparison)
	semiCount := make(map[string]int)
	semiByKey := make(map[string]gpsj.JoinCond)
	active := 0
	for _, x := range xs {
		if x.Omitted {
			// A view that omitted this table still constrains nothing; the
			// other views' requirements win. (Its deltas self-maintain.)
			continue
		}
		active++
		if len(x.MinAttrs) > 0 || len(x.MaxAttrs) > 0 {
			return nil, fmt.Errorf("core: shared derivation does not support append-only plans")
		}
		for _, a := range x.PlainAttrs {
			plain[a] = true
		}
		for _, a := range x.SumAttrs {
			sums[a] = true
		}
		for _, c := range x.Local {
			k := c.String()
			localCount[k]++
			localByKey[k] = c
		}
		for _, j := range x.SemiJoins {
			k := j.String()
			semiCount[k]++
			semiByKey[k] = j
		}
	}

	// Conditions and semijoins must be unanimous among the active views.
	var localKeys, semiKeys []string
	for k, n := range localCount {
		if n == active {
			localKeys = append(localKeys, k)
		} else {
			// The condition is dropped: its attributes must be stored so
			// the owning views can re-apply it.
			for _, col := range localByKey[k].Cols(nil) {
				if col.Table == table {
					plain[col.Name] = true
				}
			}
		}
	}
	sort.Strings(localKeys)
	for _, k := range localKeys {
		m.Local = append(m.Local, localByKey[k])
	}
	for k, n := range semiCount {
		if n == active {
			semiKeys = append(semiKeys, k)
		}
	}
	sort.Strings(semiKeys)
	for _, k := range semiKeys {
		m.SemiJoins = append(m.SemiJoins, semiByKey[k])
	}

	// An attribute some view needs plain cannot compress.
	var sumAttrs []string
	for a := range sums {
		if !plain[a] {
			sumAttrs = append(sumAttrs, a)
		}
	}
	sort.Strings(sumAttrs)

	if plain[key] {
		// Key preserved: the shared view degenerates to PSJ and all
		// compression is superfluous (Algorithm 3.1, note).
		for _, a := range sumAttrs {
			plain[a] = true
		}
		sumAttrs = nil
		m.IsPSJ = true
	}
	m.PlainAttrs = sortedKeys(plain)
	m.SumAttrs = sumAttrs
	if !m.IsPSJ {
		m.HasCount = true
		m.CountName = uniqueName("cnt", plain)
		m.SumName = make(map[string]string, len(sumAttrs))
		taken := toSet(m.PlainAttrs)
		taken[m.CountName] = true
		for _, a := range sumAttrs {
			n := uniqueName("sum_"+a, taken)
			m.SumName[a] = n
			taken[n] = true
		}
	}
	return m, nil
}

// semijoinOrder topologically orders the tables so every semijoin target
// is materialized before its reducers.
func semijoinOrder(tables []string, aux map[string]*AuxView) ([]string, error) {
	deps := make(map[string][]string) // table -> must come after these
	for _, t := range tables {
		x := aux[t]
		if x.Omitted {
			continue
		}
		for _, j := range x.SemiJoins {
			deps[t] = append(deps[t], j.Right)
		}
	}
	var order []string
	done := make(map[string]bool)
	var visit func(t string, stack map[string]bool) error
	visit = func(t string, stack map[string]bool) error {
		if done[t] {
			return nil
		}
		if stack[t] {
			return fmt.Errorf("core: cyclic semijoin dependencies through %s", t)
		}
		stack[t] = true
		for _, d := range deps[t] {
			if err := visit(d, stack); err != nil {
				return err
			}
		}
		delete(stack, t)
		done[t] = true
		order = append(order, t)
		return nil
	}
	for _, t := range tables {
		if err := visit(t, map[string]bool{}); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Materialize computes every non-omitted shared auxiliary view from base
// relations.
func (sp *SharedPlan) Materialize(src func(table string) *ra.Relation) (map[string]*ra.Relation, error) {
	out := make(map[string]*ra.Relation)
	for _, t := range sp.Order {
		x := sp.Aux[t]
		if x.Omitted {
			continue
		}
		var node ra.Node = ra.Scan(t, src(t))
		if len(x.Local) > 0 {
			node = ra.Select(node, x.Local...)
		}
		node = ra.GProject(node, x.Items()...)
		rel, err := node.Eval()
		if err != nil {
			return nil, err
		}
		rel.Cols = x.Schema()
		for _, j := range x.SemiJoins {
			child := out[j.Right]
			if child == nil {
				return nil, fmt.Errorf("core: shared %s semijoins with unmaterialized %s_dtl", x.Name, j.Right)
			}
			rel, err = ra.SemiJoin(ra.Scan(x.Name, rel), ra.Scan(j.Right+"_dtl", child),
				ra.Col{Table: t, Name: j.LeftAttr}, ra.Col{Table: j.Right, Name: j.RightAttr}).Eval()
			if err != nil {
				return nil, err
			}
		}
		out[t] = rel
	}
	return out, nil
}

// PlanFor returns a derivation plan for view i whose auxiliary views are
// the shared ones (restricted to the view's tables) — the reconstruction
// machinery then works against the shared schemas.
func (sp *SharedPlan) PlanFor(i int) *Plan {
	per := sp.PerView[i]
	p := &Plan{View: per.View, Graph: per.Graph, Order: per.Order, Aux: make(map[string]*AuxView)}
	for t := range per.Aux {
		shared := sp.Aux[t]
		if shared.Omitted && !per.Aux[t].Omitted {
			// Cannot happen: the shared view is omitted only when every
			// view omitted it.
			panic("core: shared aux omitted but view needs it")
		}
		if per.Aux[t].Omitted {
			// The view did not need this table's detail; keep its own
			// omission marker so its maintenance semantics are unchanged.
			p.Aux[t] = per.Aux[t]
		} else {
			p.Aux[t] = shared
		}
	}
	return p
}

// ReconstructView recomputes view i from materialized shared auxiliary
// views, applying the view's residual conditions.
func (sp *SharedPlan) ReconstructView(i int, aux map[string]*ra.Relation) (*ra.Relation, error) {
	p := sp.PlanFor(i)
	rec, err := p.Reconstruction()
	if err != nil {
		return nil, err
	}
	var filter []ra.Comparison
	for _, conds := range sp.Residual[i] {
		filter = append(filter, conds...)
	}
	rel, err := rec.EvalFiltered(aux, filter)
	if err != nil {
		return nil, err
	}
	return sp.Views[i].ApplyHaving(rel)
}

// FieldTotals returns (shared, perView) total field counts across all
// auxiliary views — the storage-model comparison for the sharing
// experiment.
func (sp *SharedPlan) FieldTotals() (shared, perView int) {
	for _, x := range sp.Aux {
		if !x.Omitted {
			shared += x.FieldCount()
		}
	}
	for _, p := range sp.PerView {
		for _, x := range p.Aux {
			if !x.Omitted {
				perView += x.FieldCount()
			}
		}
	}
	return shared, perView
}

// Text renders the shared derivation.
func (sp *SharedPlan) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shared minimal detail data for %d views:\n", len(sp.Views))
	for i, v := range sp.Views {
		fmt.Fprintf(&b, "  V%d: %s\n", i+1, v.SQL())
	}
	b.WriteString("\nshared auxiliary views:\n")
	for i := len(sp.Order) - 1; i >= 0; i-- {
		x := sp.Aux[sp.Order[i]]
		for _, line := range strings.Split(x.SQL(), "\n") {
			b.WriteString("  " + line + "\n")
		}
		b.WriteString("\n")
	}
	for i := range sp.Views {
		var parts []string
		for t, conds := range sp.Residual[i] {
			for _, c := range conds {
				parts = append(parts, fmt.Sprintf("%s: %s", t, c))
			}
		}
		if len(parts) > 0 {
			sort.Strings(parts)
			fmt.Fprintf(&b, "residual conditions for V%d: %s\n", i+1, strings.Join(parts, ", "))
		}
	}
	return b.String()
}
