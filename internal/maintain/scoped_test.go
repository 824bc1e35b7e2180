package maintain

import (
	"fmt"
	"testing"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// checkAuxIndexes verifies the structural invariants of every hash index on
// an auxiliary table: each row appears exactly once per index, under the
// entry matching its current attribute value, and no entry is stale.
func checkAuxIndexes(t *testing.T, at *AuxTable) {
	t.Helper()
	for attr, m := range at.idx {
		pos, ok := at.idxPos[attr]
		if !ok {
			t.Fatalf("%s: index on %s has no cached position", at.def.Name, attr)
		}
		total := 0
		for vk, keys := range m {
			for _, k := range keys {
				total++
				row, ok, err := at.store.GetString(k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("%s: index on %s references missing row %q", at.def.Name, attr, k)
				}
				if got := string(types.Encode(nil, row[pos])); got != vk {
					t.Fatalf("%s: index on %s lists row %q under stale value (have %q, row encodes %q)",
						at.def.Name, attr, k, vk, got)
				}
			}
		}
		if total != at.Len() {
			t.Fatalf("%s: index on %s holds %d entries for %d rows", at.def.Name, attr, total, at.Len())
		}
	}
}

// lookupVals returns the encoded keys of the rows an index probe yields.
func lookupVals(at *AuxTable, attr string, v types.Value) []string {
	var out []string
	rows, _ := at.lookupInto(attr, v, nil, nil)
	for _, r := range rows {
		out = append(out, r.Key())
	}
	return out
}

// TestAuxTableIndexConsistency drives update (re-key) and group-death
// traffic through an engine and asserts that every auxiliary index follows
// the key changes: entries move with the rows, probes of old values miss,
// and no stale entries accumulate.
func TestAuxTableIndexConsistency(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT brand, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, product WHERE sale.productid = product.id GROUP BY brand`, true)
	f.seedRetail()
	f.initEngine()

	prod := f.engine.Aux("product") // PSJ: id (join key), brand (group-by)
	if prod == nil {
		t.Fatal("product auxiliary view missing")
	}
	if err := prod.EnsureIndex("brand"); err != nil {
		t.Fatal(err)
	}
	sale := f.engine.Aux("sale") // compressed root: productid plain + SUM/COUNT
	if sale == nil {
		t.Fatal("sale auxiliary view missing")
	}
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)

	// Re-key: a brand rename must move the product row's index entries.
	if got := lookupVals(prod, "brand", types.Str("acme")); len(got) != 1 {
		t.Fatalf("brand=acme: got %d rows, want 1", len(got))
	}
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("apex")})
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)
	if got := lookupVals(prod, "brand", types.Str("acme")); len(got) != 0 {
		t.Fatalf("brand=acme after rename: got %d rows, want 0", len(got))
	}
	if got := lookupVals(prod, "brand", types.Str("apex")); len(got) != 1 {
		t.Fatalf("brand=apex after rename: got %d rows, want 1", len(got))
	}

	// Group death: deleting every sale of product 102 must remove the
	// compressed group and its index entries.
	if got := lookupVals(sale, "productid", types.Int(102)); len(got) != 1 {
		t.Fatalf("productid=102: got %d groups, want 1", len(got))
	}
	f.deleteRow("sale", 5)
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)
	if got := lookupVals(sale, "productid", types.Int(102)); len(got) != 0 {
		t.Fatalf("productid=102 after delete: got %d groups, want 0", len(got))
	}

	// Growth after death: re-inserting re-creates the group and entry.
	f.insertSale(3, 102, 8, 4.25)
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)
	if got := lookupVals(sale, "productid", types.Int(102)); len(got) != 1 {
		t.Fatalf("productid=102 after re-insert: got %d groups, want 1", len(got))
	}
}

// mvGroupSet rebuilds a groupSet for every currently materialized group —
// the shape recomputeGroups receives.
func mvGroupSet(e *Engine) groupSet {
	keys := make(groupSet, len(e.mv.rows))
	for k, row := range e.mv.rows {
		vals := make([]types.Value, len(e.mv.gbIdx))
		for i, gi := range e.mv.gbIdx {
			vals[i] = row[gi]
		}
		keys[k] = vals
	}
	return keys
}

// reaggregated runs the recomputation kernel for the given groups on the
// scoped or the full path, returning the rows by key and the number of
// detail rows the kernel was fed.
func reaggregated(t *testing.T, e *Engine, keys groupSet, full bool) (map[string]tuple.Tuple, int) {
	t.Helper()
	e.ForceFullRecompute = full
	defer func() { e.ForceFullRecompute = false }()
	before := e.Stats().ReaggregatedRows
	groups, err := e.reaggregate(keys)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]tuple.Tuple, len(groups))
	for _, g := range groups {
		out[g.key] = g.row
	}
	return out, e.Stats().ReaggregatedRows - before
}

// TestScopedAuxDetailMatchesFull asserts the heart of the delta-scoped
// pipeline: for any affected-group set, the scoped detail aggregates to
// exactly the same component rows as the full auxiliary re-join, while
// touching only rows reachable from the groups' own key values.
func TestScopedAuxDetailMatchesFull(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT month, SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
		 FROM sale, time, product
		 WHERE sale.timeid = time.id AND sale.productid = product.id AND time.year = 1997
		 GROUP BY month`, true)
	f.seedRetail()
	f.initEngine()
	e := f.engine

	all := mvGroupSet(e)
	if len(all) == 0 {
		t.Fatal("no materialized groups")
	}
	wantAll, fullRows := reaggregated(t, e, all, true)

	// Every single-group subset must recompute identically through the
	// scoped path, from strictly fewer detail rows.
	for k, vals := range all {
		sub := groupSet{k: vals}
		if seed, err := e.scopedSeed(); err != nil || seed == nil {
			t.Fatalf("scoped path declined for group %v (err %v)", vals, err)
		}
		got, rows := reaggregated(t, e, sub, false)
		if rows >= fullRows && len(all) > 1 {
			t.Fatalf("scoped detail for %v has %d rows, full has %d — no reduction", vals, rows, fullRows)
		}
		if len(got) != 1 {
			t.Fatalf("group %v: scoped recompute produced %d groups, want 1", vals, len(got))
		}
		if !tuple.Identical(got[k], wantAll[k]) {
			t.Fatalf("group %v: scoped %v != full %v", vals, got[k], wantAll[k])
		}
	}
}

// TestLargeRecomputeMatchesInit re-aggregates every group of a several-
// thousand-row detail through the scoped and the full path and asserts both
// reproduce, cell for cell, the rows initialization computed from the base
// tables — one kernel, three row sources — then checks a deletion-driven
// recomputation end to end against a full-recompute shadow.
func TestLargeRecomputeMatchesInit(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT day, SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
		 FROM sale, time, product
		 WHERE sale.timeid = time.id AND sale.productid = product.id
		 GROUP BY day`, true)
	// Distinct prices so the root view barely compresses; quarter prices so
	// float sums are exact in any order.
	ins := func(table string, vals ...types.Value) {
		if err := f.db.Insert(table, tuple.Tuple(vals)); err != nil {
			t.Fatal(err)
		}
	}
	days := 500
	for id := 1; id <= days; id++ {
		ins("time", types.Int(int64(id)), types.Int(int64(id%28+1)), types.Int(int64(id/28+1)), types.Int(1997))
	}
	// 19 is coprime with the day count, so (timeid, productid) pairs — the
	// root view's grouping — stay distinct and the detail stays large.
	for id := 1; id <= 19; id++ {
		ins("product", types.Int(int64(id)), types.Str(fmt.Sprintf("b%d", id%7)), types.Str("c"))
	}
	ins("store", types.Int(1), types.Str("aalborg"), types.Str("kim"))
	n := 5096
	for id := 1; id <= n; id++ {
		ins("sale", types.Int(int64(id)), types.Int(int64(id%days+1)), types.Int(int64(id%19+1)),
			types.Int(1), types.Float(float64(id%997)+0.25))
	}
	f.initEngine()
	e := f.engine

	all := mvGroupSet(e)
	for _, full := range []bool{false, true} {
		got, rows := reaggregated(t, e, all, full)
		if rows < n/2 {
			t.Fatalf("full=%v: kernel was fed %d rows, want a detail of thousands", full, rows)
		}
		if len(got) != len(e.mv.rows) {
			t.Fatalf("full=%v: recomputed %d groups, initialization produced %d", full, len(got), len(e.mv.rows))
		}
		for k, want := range e.mv.rows {
			if !tuple.Identical(got[k], want) {
				t.Fatalf("full=%v group %q: recomputed %v != initialized %v", full, k, got[k], want)
			}
		}
	}

	shadow := mustEngine(t, e.plan)
	shadow.ForceFullRecompute = true
	if err := shadow.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		t.Fatal(err)
	}
	row, err := f.db.Delete("sale", types.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Table: "sale", Deletes: []tuple.Tuple{row}}
	if err := e.Apply(d); err != nil {
		t.Fatal(err)
	}
	if err := shadow.Apply(d); err != nil {
		t.Fatal(err)
	}
	if g, s := e.Snapshot().Format(), shadow.Snapshot().Format(); g != s {
		t.Fatalf("scoped snapshot diverged from full:\n%s\n---\n%s", g, s)
	}
}

// TestScopedPathFallsBackForGlobalViews exercises the fallback: a view with
// no group-by attributes cannot seed the scoped path and must still repair
// correctly through the full re-join.
func TestScopedPathFallsBackForGlobalViews(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT SUM(price) AS total, COUNT(DISTINCT brand) AS brands
		 FROM sale, product WHERE sale.productid = product.id`, true)
	f.seedRetail()
	f.initEngine()

	seed, err := f.engine.scopedSeed()
	if err != nil {
		t.Fatal(err)
	}
	if seed != nil {
		t.Fatal("scoped path unexpectedly seeded a global view")
	}
	f.deleteRow("sale", 1) // forces recomputation through the fallback
	f.deleteRow("sale", 2)
}
