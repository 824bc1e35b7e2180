// Package core implements the paper's primary contribution: deriving, for a
// materialized GPSJ view V, the unique minimal set of auxiliary views X
// such that {V} ∪ X is self-maintainable (Algorithm 3.2, Theorem 1).
//
// Each auxiliary view has the form
//
//	X_Ri = (Π_ARi σ_S Ri) ⋉ X_Rj1 ⋉ ... ⋉ X_Rjn
//
// where A_Ri results from local reduction (only attributes preserved in V
// or used in join conditions) followed by smart duplicate compression
// (Algorithm 3.1): a COUNT(*) is added unless superfluous and attributes
// used only in completely self-maintainable aggregates are replaced by
// their distributive SUMs, collapsing duplicates. The semijoins are the
// join reductions of Section 2.2, restricted to tables Ri depends on.
// Under the conditions of Section 3.3 an auxiliary view — typically the
// huge fact table's — is omitted entirely.
package core

import (
	"fmt"
	"sort"
	"strings"

	"mindetail/internal/aggregates"
	"mindetail/internal/gpsj"
	"mindetail/internal/joingraph"
	"mindetail/internal/ra"
)

// AuxView describes one derived auxiliary view.
type AuxView struct {
	// Base is the base table the view reduces.
	Base string
	// Name is the auxiliary view's name, <base>_dtl as in the paper's
	// timeDTL/productDTL/saleDTL.
	Name string

	// Omitted is set when the elimination conditions of Section 3.3 hold;
	// OmitReason documents why. No other field is meaningful then.
	Omitted    bool
	OmitReason string

	// PlainAttrs are base attributes stored as raw (grouping) columns:
	// attributes used in join conditions, group-by clauses, or non-CSMAS
	// aggregates.
	PlainAttrs []string
	// SumAttrs are base attributes compressed away: each is maintained as
	// a SUM column (Algorithm 3.1, step 2).
	SumAttrs []string
	// MinAttrs and MaxAttrs are base attributes compressed into MIN/MAX
	// columns. This is only legal under the append-only relaxation of
	// Section 4: with insertions the only change class, MIN and MAX are
	// completely self-maintainable (Table 1) and therefore compressible.
	MinAttrs []string
	MaxAttrs []string
	// HasCount reports whether a COUNT(*) column is included (Algorithm
	// 3.1, step 1). CountName is its column name.
	HasCount  bool
	CountName string
	// SumName maps each compressed attribute to its SUM column name;
	// MinName and MaxName likewise for append-only MIN/MAX columns.
	SumName map[string]string
	MinName map[string]string
	MaxName map[string]string

	// IsPSJ is set when the base table's key is among the stored
	// attributes: every aggregate over the view's groups would be
	// superfluous, so the auxiliary view degenerates to a
	// project-select-join view (Algorithm 3.1, note).
	IsPSJ bool

	// Local are the local selection conditions pushed into the view.
	Local []ra.Comparison
	// SemiJoins are the join reductions: one per table Base depends on.
	SemiJoins []gpsj.JoinCond
}

// Schema returns the auxiliary view's relation schema. Columns are
// qualified with the *base table* name so that reconstruction and
// maintenance expressions can reuse the view's resolved column references.
func (x *AuxView) Schema() ra.Schema {
	var s ra.Schema
	for _, a := range x.PlainAttrs {
		s = append(s, ra.Col{Table: x.Base, Name: a})
	}
	for _, a := range x.SumAttrs {
		s = append(s, ra.Col{Table: x.Base, Name: x.SumName[a]})
	}
	for _, a := range x.MinAttrs {
		s = append(s, ra.Col{Table: x.Base, Name: x.MinName[a]})
	}
	for _, a := range x.MaxAttrs {
		s = append(s, ra.Col{Table: x.Base, Name: x.MaxName[a]})
	}
	if x.HasCount {
		s = append(s, ra.Col{Table: x.Base, Name: x.CountName})
	}
	return s
}

// Items returns the generalized projection list defining the view over its
// base table.
func (x *AuxView) Items() []ra.ProjItem {
	var items []ra.ProjItem
	for _, a := range x.PlainAttrs {
		items = append(items, ra.ProjItem{Name: a, Expr: ra.ColRef{Table: x.Base, Name: a}})
	}
	for _, a := range x.SumAttrs {
		items = append(items, ra.ProjItem{
			Name: x.SumName[a],
			Agg:  &ra.Aggregate{Func: ra.FuncSum, Arg: ra.ColRef{Table: x.Base, Name: a}},
		})
	}
	for _, a := range x.MinAttrs {
		items = append(items, ra.ProjItem{
			Name: x.MinName[a],
			Agg:  &ra.Aggregate{Func: ra.FuncMin, Arg: ra.ColRef{Table: x.Base, Name: a}},
		})
	}
	for _, a := range x.MaxAttrs {
		items = append(items, ra.ProjItem{
			Name: x.MaxName[a],
			Agg:  &ra.Aggregate{Func: ra.FuncMax, Arg: ra.ColRef{Table: x.Base, Name: a}},
		})
	}
	if x.HasCount {
		items = append(items, ra.ProjItem{Name: x.CountName, Agg: &ra.Aggregate{Func: ra.FuncCount}})
	}
	return items
}

// FieldCount returns the number of columns, used by the paper-style
// fields × 4 bytes storage model.
func (x *AuxView) FieldCount() int {
	n := len(x.PlainAttrs) + len(x.SumAttrs) + len(x.MinAttrs) + len(x.MaxAttrs)
	if x.HasCount {
		n++
	}
	return n
}

// SQL renders the auxiliary view definition in the paper's style, with
// semijoins written as IN subqueries against the other auxiliary views.
func (x *AuxView) SQL() string {
	if x.Omitted {
		return fmt.Sprintf("-- %s omitted: %s", x.Name, x.OmitReason)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE VIEW %s AS\nSELECT ", x.Name)
	first := true
	item := func(s string) {
		if !first {
			b.WriteString(", ")
		}
		b.WriteString(s)
		first = false
	}
	for _, a := range x.PlainAttrs {
		item(a)
	}
	for _, a := range x.SumAttrs {
		item(fmt.Sprintf("SUM(%s) AS %s", a, x.SumName[a]))
	}
	for _, a := range x.MinAttrs {
		item(fmt.Sprintf("MIN(%s) AS %s", a, x.MinName[a]))
	}
	for _, a := range x.MaxAttrs {
		item(fmt.Sprintf("MAX(%s) AS %s", a, x.MaxName[a]))
	}
	if x.HasCount {
		item(fmt.Sprintf("COUNT(*) AS %s", x.CountName))
	}
	fmt.Fprintf(&b, "\nFROM %s", x.Base)
	var conds []string
	for _, c := range x.Local {
		conds = append(conds, c.String())
	}
	for _, j := range x.SemiJoins {
		conds = append(conds, fmt.Sprintf("%s IN (SELECT %s FROM %s_dtl)", j.LeftAttr, j.RightAttr, j.Right))
	}
	if len(conds) > 0 {
		b.WriteString("\nWHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if !x.IsPSJ && (len(x.SumAttrs) > 0 || len(x.MinAttrs) > 0 || len(x.MaxAttrs) > 0 || x.HasCount) && len(x.PlainAttrs) > 0 {
		b.WriteString("\nGROUP BY ")
		b.WriteString(strings.Join(x.PlainAttrs, ", "))
	}
	return b.String()
}

// Plan is the result of Algorithm 3.2: the extended join graph and one
// auxiliary view decision per base table.
type Plan struct {
	View  *gpsj.View
	Graph *joingraph.Graph

	// Aux maps each base table to its auxiliary view (possibly omitted).
	Aux map[string]*AuxView

	// Order lists the base tables bottom-up (children before parents), the
	// order in which auxiliary views must be materialized so that
	// semijoins can be applied.
	Order []string

	// AppendOnly records that the plan was derived under the Section 4
	// relaxation: base tables only ever receive insertions. Maintenance
	// rejects deletions and updates for such plans.
	AppendOnly bool
}

// Derive runs Algorithm 3.2 on a validated GPSJ view.
func Derive(v *gpsj.View) (*Plan, error) { return derive(v, false) }

// DeriveAppendOnly runs Algorithm 3.2 under the append-only relaxation the
// paper sketches as future work (Section 4): with insertions the only
// change class, MIN and MAX become completely self-maintainable, so their
// arguments compress into MIN/MAX columns instead of staying plain, and
// they no longer block auxiliary view elimination. Only DISTINCT
// aggregates still require plain attributes (the set of seen values is
// needed even for insertions).
func DeriveAppendOnly(v *gpsj.View) (*Plan, error) { return derive(v, true) }

func derive(v *gpsj.View, appendOnly bool) (*Plan, error) {
	g, err := joingraph.Build(v)
	if err != nil {
		return nil, err
	}
	if err := checkSuperfluous(v, g); err != nil {
		return nil, err
	}
	p := &Plan{View: v, Graph: g, Aux: make(map[string]*AuxView), AppendOnly: appendOnly}

	// Bottom-up order: children strictly before parents.
	var walk func(t string)
	var order []string
	walk = func(t string) {
		for _, c := range g.Children[t] {
			walk(c)
		}
		order = append(order, t)
	}
	walk(g.Root)
	p.Order = order

	blocking := v.NonCSMASAttrTables()
	if appendOnly {
		blocking = distinctAttrTables(v)
	}
	for _, t := range order {
		p.Aux[t] = deriveAux(v, g, t, blocking, appendOnly)
	}
	return p, nil
}

// otherTableHasExposedUpdates reports whether any referenced table other
// than `table` has exposed updates: a mutable attribute involved in the
// view's selection or join conditions (Section 2.1). Such updates can only
// be maintained through the detail the candidate auxiliary view carries,
// so they veto its elimination.
func otherTableHasExposedUpdates(v *gpsj.View, table string) bool {
	for _, u := range v.Tables {
		if u != table && v.HasExposedUpdates(u) {
			return true
		}
	}
	return false
}

// distinctAttrTables returns the tables owning attributes of DISTINCT
// aggregates — the only aggregates that are not self-maintainable under
// insertions alone.
func distinctAttrTables(v *gpsj.View) map[string]bool {
	out := make(map[string]bool)
	for _, agg := range v.Aggregates() {
		if agg.Distinct && agg.Arg != nil {
			for _, c := range agg.Arg.Cols(nil) {
				out[c.Table] = true
			}
		}
	}
	return out
}

// checkSuperfluous enforces the paper's assumption that no superfluous
// aggregates appear in V (Section 2.1): an aggregate f(a) with a ∈ Ri can
// be replaced by a itself when the group-by attributes include the key of
// Ri or of any ancestor of Ri, because every group then contains exactly
// one joined tuple for that subtree.
func checkSuperfluous(v *gpsj.View, g *joingraph.Graph) error {
	keyedTables := make(map[string]bool)
	for _, a := range v.GroupBy() {
		if v.Catalog().Table(a.Table).Key == a.Name {
			keyedTables[a.Table] = true
		}
	}
	if len(keyedTables) == 0 {
		return nil
	}
	fixed := func(table string) bool {
		if keyedTables[table] {
			return true
		}
		for _, anc := range g.PathToRoot(table) {
			if keyedTables[anc] {
				return true
			}
		}
		return false
	}
	for _, it := range v.Items {
		if !it.IsAggregate() || it.Agg.Arg == nil {
			continue
		}
		c := it.Agg.Arg.(ra.ColRef)
		if fixed(c.Table) {
			return fmt.Errorf("core: view %s: aggregate %s is superfluous — grouping on a key of %s (or an ancestor) fixes %s per group; use the attribute directly (paper Section 2.1 assumes no superfluous aggregates)",
				v.Name, it.Agg, c.Table, c)
		}
	}
	return nil
}

// deriveAux derives the auxiliary view for one base table: elimination test
// (Section 3.3), local reduction, join reduction, and smart duplicate
// compression (Algorithm 3.1). blocking marks tables whose aggregates
// prevent elimination (non-CSMAS normally; DISTINCT-only under the
// append-only relaxation).
func deriveAux(v *gpsj.View, g *joingraph.Graph, table string, blocking map[string]bool, appendOnly bool) *AuxView {
	x := &AuxView{Base: table, Name: table + "_dtl"}

	// Elimination (Algorithm 3.2, step 2). Beyond the paper's three
	// conditions, elimination also requires that no OTHER referenced table
	// has exposed updates (mutable attributes in selection or join
	// conditions): with this table's auxiliary view gone, updates to the
	// remaining tables are propagated purely by re-keying the maintained
	// groups, which cannot add or remove groups when a row moves across
	// the view's local conditions or re-routes a join. Omitting the view
	// would make such updates silently unmaintainable. Append-only plans
	// are exempt: they reject updates outright, so no exposed update can
	// ever arrive.
	if g.TransitivelyDependsOnAll(table) && !g.NeededBySomeone(table) && !blocking[table] &&
		(appendOnly || !otherTableHasExposedUpdates(v, table)) {
		x.Omitted = true
		reasons := []string{
			"transitively depends on all other base tables",
			"is in no other table's Need set",
			"has no attributes in non-CSMAS aggregates",
			"no other table has mutable condition attributes",
		}
		if appendOnly {
			reasons[2] = "has no attributes in DISTINCT aggregates (append-only: MIN/MAX are self-maintainable)"
		}
		x.OmitReason = fmt.Sprintf("%s %s", table, strings.Join(reasons, "; "))
		return x
	}

	// Local reduction: keep only attributes preserved in V or involved in
	// join conditions (Section 2.2).
	joinAttrs := toSet(v.JoinAttrs(table))
	gbAttrs := make(map[string]bool)
	for _, a := range v.GroupBy() {
		if a.Table == table {
			gbAttrs[a.Name] = true
		}
	}
	nonCSMASAttrs := make(map[string]bool)
	csmasAttrs := make(map[string]bool)
	minCand := make(map[string]bool)
	maxCand := make(map[string]bool)
	for _, agg := range v.Aggregates() {
		if agg.Arg == nil {
			continue
		}
		c := agg.Arg.(ra.ColRef)
		if c.Table != table {
			continue
		}
		switch {
		case aggregates.IsCSMAS(agg):
			csmasAttrs[c.Name] = true
		case appendOnly && !agg.Distinct && agg.Func == ra.FuncMin:
			minCand[c.Name] = true
		case appendOnly && !agg.Distinct && agg.Func == ra.FuncMax:
			maxCand[c.Name] = true
		default:
			nonCSMASAttrs[c.Name] = true
		}
	}

	// Plain attributes: needed as raw values for joins, grouping, or
	// non-compressible aggregates (Algorithm 3.1, step 2 exclusions).
	plain := make(map[string]bool)
	for a := range joinAttrs {
		plain[a] = true
	}
	for a := range gbAttrs {
		plain[a] = true
	}
	for a := range nonCSMASAttrs {
		plain[a] = true
	}

	// Candidates for compression: attributes not forced plain.
	var sums, mins, maxs []string
	for a := range csmasAttrs {
		if !plain[a] {
			sums = append(sums, a)
		}
	}
	for a := range minCand {
		if !plain[a] {
			mins = append(mins, a)
		}
	}
	for a := range maxCand {
		if !plain[a] {
			maxs = append(maxs, a)
		}
	}
	sort.Strings(sums)
	sort.Strings(mins)
	sort.Strings(maxs)

	key := v.Catalog().Table(table).Key
	if plain[key] {
		// The key is stored: every group is a single base tuple, all
		// compression aggregates would be superfluous, and the view
		// degenerates to a PSJ view (Algorithm 3.1, note).
		x.IsPSJ = true
		for _, a := range sums {
			plain[a] = true
		}
		for _, a := range mins {
			plain[a] = true
		}
		for _, a := range maxs {
			plain[a] = true
		}
		sums, mins, maxs = nil, nil, nil
	}

	x.PlainAttrs = sortedKeys(plain)
	x.SumAttrs = sums
	x.MinAttrs = mins
	x.MaxAttrs = maxs
	if !x.IsPSJ {
		// Step 1: include COUNT(*) (not superfluous here since the key is
		// absent and duplicates can arise).
		x.HasCount = true
		x.CountName = uniqueName("cnt", plain)
		x.SumName = make(map[string]string, len(sums))
		x.MinName = make(map[string]string, len(mins))
		x.MaxName = make(map[string]string, len(maxs))
		taken := toSet(x.PlainAttrs)
		taken[x.CountName] = true
		name := func(prefix, a string) string {
			n := uniqueName(prefix+a, taken)
			taken[n] = true
			return n
		}
		for _, a := range sums {
			x.SumName[a] = name("sum_", a)
		}
		for _, a := range mins {
			x.MinName[a] = name("min_", a)
		}
		for _, a := range maxs {
			x.MaxName[a] = name("max_", a)
		}
	}

	x.Local = append([]ra.Comparison(nil), v.Local[table]...)

	// Join reductions with the auxiliary views of the tables this one
	// depends on (Section 2.2).
	for _, dep := range g.Depends(table) {
		x.SemiJoins = append(x.SemiJoins, g.EdgeTo[dep])
	}
	return x
}

func uniqueName(base string, taken map[string]bool) string {
	n := base
	for i := 1; taken[n]; i++ {
		n = fmt.Sprintf("%s_%d", base, i)
	}
	return n
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Materialize computes every non-omitted auxiliary view from base-table
// relations, bottom-up so that join reductions can semijoin against
// already-materialized children. The returned relations use the schemas of
// AuxView.Schema.
func (p *Plan) Materialize(src func(table string) *ra.Relation) (map[string]*ra.Relation, error) {
	out := make(map[string]*ra.Relation)
	for _, t := range p.Order {
		x := p.Aux[t]
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
		rel.Cols = x.Schema() // re-qualify with the base table name
		for _, j := range x.SemiJoins {
			child := out[j.Right]
			if child == nil {
				return nil, fmt.Errorf("core: %s semijoins with %s_dtl which is not materialized", x.Name, j.Right)
			}
			sj := ra.SemiJoin(ra.Scan(x.Name, rel), ra.Scan(j.Right+"_dtl", child),
				ra.Col{Table: t, Name: j.LeftAttr}, ra.Col{Table: j.Right, Name: j.RightAttr})
			rel, err = sj.Eval()
			if err != nil {
				return nil, err
			}
		}
		out[t] = rel
	}
	return out, nil
}

// Text renders the complete derivation for human inspection: the join
// graph, Need sets, dependencies, and each auxiliary view's SQL.
func (p *Plan) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "view %s:\n  %s\n\n", p.View.Name, p.View.SQL())
	b.WriteString("extended join graph:\n")
	for _, line := range strings.Split(strings.TrimRight(p.Graph.Text(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	b.WriteString("\nneed sets / dependencies:\n")
	for _, t := range p.View.Tables {
		fmt.Fprintf(&b, "  Need(%s) = {%s}   depends on {%s}\n",
			t, strings.Join(p.Graph.Need(t), ", "), strings.Join(p.Graph.Depends(t), ", "))
	}
	b.WriteString("\nauxiliary views:\n")
	for i := len(p.Order) - 1; i >= 0; i-- { // root first for readability
		x := p.Aux[p.Order[i]]
		for _, line := range strings.Split(x.SQL(), "\n") {
			b.WriteString("  " + line + "\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}
