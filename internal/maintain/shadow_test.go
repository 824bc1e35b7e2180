// Seeded shadow test of net-effect avoidance, the streaming recompute
// kernel and the patched publish: after every delta the engine's component
// rows — hidden counts included — must be types.Identical, cell for cell,
// to a ForceFullRecompute twin (which recomputes every group a deletion
// touches, from the full auxiliary join) and to an engine initialized from
// scratch; and its Snapshot, re-rendered only where commits touched it,
// must equal row for row the full render of an engine that imported its
// state. External test package for the same reason as pagedstore_test.go.
package maintain_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mindetail/internal/core"
	"mindetail/internal/experiments"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/workload"
)

// shadowParams fills months 1 and 2; the rig adds day 57 (all of month 3)
// and product 12 without facts, so scripted steps can create and empty
// fresh groups.
var shadowParams = workload.RetailParams{
	Days: 56, Stores: 1, Products: 11, ProductsSoldPerDay: 3,
	TransactionsPerProduct: 1, Brands: 3, SelectYear: 1997, YearFraction: 1, Seed: 11,
}

var shadowViews = []struct{ name, sql string }{
	{"product_sales", workload.ProductSalesSQL(1997)},
	{"minmax_by_product", `SELECT product.id, MIN(price) AS lo, MAX(price) AS hi, COUNT(*) AS n
		FROM sale, product WHERE sale.productid = product.id GROUP BY product.id`},
	{"mixed", `SELECT time.month, MIN(price) AS lo, MAX(price) AS hi,
		COUNT(DISTINCT brand) AS brands, SUM(price) AS total, COUNT(*) AS n
		FROM sale, time, product
		WHERE sale.timeid = time.id AND sale.productid = product.id GROUP BY time.month`},
	{"global", `SELECT MIN(price) AS lo, MAX(price) AS hi, SUM(price) AS total, COUNT(*) AS n FROM sale`},
	{"having", `SELECT product.id, MAX(price) AS hi, COUNT(*) AS n
		FROM sale, product WHERE sale.productid = product.id GROUP BY product.id HAVING n > 15`},
}

// shadowRig drives one engine, its full-recompute twin and the source
// database they were initialized from.
type shadowRig struct {
	t    *testing.T
	rng  *rand.Rand
	env  *experiments.Env
	plan *core.Plan
	eng  *maintain.Engine
	twin *maintain.Engine
	next int64
	live []int64
}

// quarters draws a price that sums exactly in any order, so adjusting a
// SUM and recomputing it agree to the bit.
func (r *shadowRig) quarters() types.Value {
	return types.Float(float64(1+r.rng.Intn(200)) * 0.25)
}

func newShadowRig(t *testing.T, sql string, paged bool) *shadowRig {
	t.Helper()
	env, err := experiments.NewEnv(shadowParams)
	if err != nil {
		t.Fatal(err)
	}
	r := &shadowRig{t: t, rng: rand.New(rand.NewSource(42)), env: env}
	// The scripted steps move facts between groups, so their foreign keys
	// must be declared mutable before the plan is derived; and two spare
	// dimension rows give them empty groups to fill.
	sale := env.Cat.Table("sale")
	sale.Mutable = append(sale.Mutable, "timeid", "productid")
	r.insert("time", types.Int(57), types.Int(1), types.Int(3), types.Int(1997))
	r.insert("product", types.Int(12), types.Str("brand0"), types.Str("spare"))
	for _, row := range env.DB.Table("sale").All() {
		id := row[0].AsInt()
		if _, _, err := env.DB.Update("sale", row[0], map[string]types.Value{"price": r.quarters()}); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live, id)
		if id > r.next {
			r.next = id
		}
	}
	v, err := env.View("v", sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.plan, err = core.Derive(v); err != nil {
		t.Fatal(err)
	}
	r.eng, r.twin = r.fresh(), r.fresh()
	r.twin.ForceFullRecompute = true
	if paged {
		fac, err := pager.NewFactory(t.TempDir(), pager.Options{PageSize: 256, PoolPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fac.Close() })
		if err := r.eng.SetAuxStores(func(table string) (maintain.AuxStore, error) {
			return fac.Open("v", table)
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.check("init")
	return r
}

// fresh initializes a new engine from the current sources.
func (r *shadowRig) fresh() *maintain.Engine {
	r.t.Helper()
	e, err := maintain.NewEngine(r.plan)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := e.Init(r.env.Src); err != nil {
		r.t.Fatal(err)
	}
	return e
}

func (r *shadowRig) insert(table string, vals ...types.Value) {
	r.t.Helper()
	if err := r.env.DB.Insert(table, tuple.Tuple(vals)); err != nil {
		r.t.Fatal(err)
	}
}

// apply feeds one delta to the engine and the twin, then checks both. The
// engine first stages the delta and rolls it back, with a Snapshot taken
// in between, and its published output must come back unchanged.
func (r *shadowRig) apply(name string, d maintain.Delta) {
	r.t.Helper()
	if err := r.eng.Stage(d); err != nil {
		r.t.Fatalf("%s: stage: %v", name, err)
	}
	r.eng.Snapshot()
	r.eng.Rollback()
	r.checkPublished(name + " (rolled back)")
	if err := r.eng.Apply(d); err != nil {
		r.t.Fatalf("%s: %v", name, err)
	}
	if err := r.twin.Apply(d); err != nil {
		r.t.Fatalf("%s: twin: %v", name, err)
	}
	r.check(name)
}

func (r *shadowRig) check(when string) {
	r.t.Helper()
	got := r.eng.ExportState().MV.Rows
	for who, want := range map[string][]tuple.Tuple{
		"full-recompute twin":  r.twin.ExportState().MV.Rows,
		"from-scratch initial": r.fresh().ExportState().MV.Rows,
	} {
		if len(got) != len(want) {
			r.t.Fatalf("%s: %d groups, %s has %d", when, len(got), who, len(want))
		}
		for i := range want {
			if !tuple.Identical(got[i], want[i]) {
				r.t.Fatalf("%s: group %d is %v, %s has %v", when, i, got[i], who, want[i])
			}
		}
	}
	r.checkPublished(when)
}

// checkPublished compares the engine's patched Snapshot, after HAVING, with
// the full render of an engine built by ImportState(ExportState()).
func (r *shadowRig) checkPublished(when string) {
	r.t.Helper()
	full, err := maintain.NewEngine(r.plan)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := full.ImportState(r.eng.ExportState()); err != nil {
		r.t.Fatal(err)
	}
	v := r.plan.View
	got, err := v.ApplyHaving(r.eng.Snapshot())
	if err != nil {
		r.t.Fatal(err)
	}
	want, err := v.ApplyHaving(full.Snapshot())
	if err != nil {
		r.t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		r.t.Fatalf("%s: published %d rows, a full render has %d", when, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !tuple.Identical(got.Rows[i], want.Rows[i]) {
			r.t.Fatalf("%s: published row %d is %v, a full render has %v", when, i, got.Rows[i], want.Rows[i])
		}
	}
}

// Source mutations, each returning the delta it caused.

func (r *shadowRig) newSale(timeid, productid int64, price types.Value) tuple.Tuple {
	r.t.Helper()
	r.next++
	row := tuple.Tuple{types.Int(r.next), types.Int(timeid), types.Int(productid), types.Int(1), price}
	if err := r.env.DB.Insert("sale", row); err != nil {
		r.t.Fatal(err)
	}
	r.live = append(r.live, r.next)
	return row
}

func (r *shadowRig) dropSale(id int64) tuple.Tuple {
	r.t.Helper()
	row, err := r.env.DB.Delete("sale", types.Int(id))
	if err != nil {
		r.t.Fatal(err)
	}
	for i, x := range r.live {
		if x == id {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	return row
}

func (r *shadowRig) update(table string, id int64, set map[string]types.Value) maintain.Update {
	r.t.Helper()
	old, upd, err := r.env.DB.Update(table, types.Int(id), set)
	if err != nil {
		r.t.Fatal(err)
	}
	return maintain.Update{Old: old, New: upd}
}

// salesOf returns the live facts of one product, cheapest first.
func (r *shadowRig) salesOf(productid int64) []tuple.Tuple {
	var out []tuple.Tuple
	for _, id := range r.live {
		if row := r.env.DB.Table("sale").Get(types.Int(id)); row[2].AsInt() == productid {
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return types.Compare(out[i][4], out[j][4]) < 0 })
	return out
}

// scripted runs the named cases the random stream may not reach.
func (r *shadowRig) scripted() {
	sale := func(ds ...maintain.Delta) maintain.Delta {
		out := maintain.Delta{Table: "sale"}
		for _, d := range ds {
			out.Inserts = append(out.Inserts, d.Inserts...)
			out.Deletes = append(out.Deletes, d.Deletes...)
			out.Updates = append(out.Updates, d.Updates...)
		}
		return out
	}
	ins := func(row tuple.Tuple) maintain.Delta { return maintain.Delta{Inserts: []tuple.Tuple{row}} }
	del := func(row tuple.Tuple) maintain.Delta { return maintain.Delta{Deletes: []tuple.Tuple{row}} }
	upd := func(u maintain.Update) maintain.Delta { return maintain.Delta{Updates: []maintain.Update{u}} }

	// Day 57 is all of month 3 and product 12 has no facts: this fact is
	// the sole row of its group in every view.
	sole := r.newSale(57, 12, types.Float(7.25))
	r.apply("fresh group created", sale(ins(sole)))
	r.apply("sole row of a group repriced", sale(upd(r.update("sale", sole[0].AsInt(), map[string]types.Value{"price": types.Float(9.5)}))))
	r.apply("sole row of a group deleted", sale(del(r.dropSale(sole[0].AsInt()))))

	// A Snapshot taken while a delta is staged renders, from staged state,
	// the groups an earlier commit left dirty; the rollback must hand them
	// back to be rendered again. The staged fact never reaches the sources.
	first := sale(ins(r.newSale(5, 3, types.Float(2.5))))
	if err := r.eng.Apply(first); err != nil {
		r.t.Fatal(err)
	}
	if err := r.twin.Apply(first); err != nil {
		r.t.Fatal(err)
	}
	ghost := tuple.Tuple{types.Int(r.next + 1), types.Int(5), types.Int(3), types.Int(1), types.Float(4.75)}
	if err := r.eng.Stage(sale(ins(ghost))); err != nil {
		r.t.Fatal(err)
	}
	r.eng.Snapshot()
	r.eng.Rollback()
	r.check("snapshot while staged over dirty groups, then rollback")

	mover := r.live[0]
	r.apply("update moves a fact to another group (timeid change)",
		sale(upd(r.update("sale", mover, map[string]types.Value{"timeid": types.Int(45)}))))
	r.apply("update moves a fact to another group (productid change)",
		sale(upd(r.update("sale", mover, map[string]types.Value{"productid": types.Int(12)}))))

	rows := r.salesOf(3)
	if len(rows) < 4 {
		r.t.Fatalf("product 3 has %d facts, the scripted cases need 4", len(rows))
	}
	hit, miss := rows[len(rows)-1], rows[1]
	r.apply("multi-row delta with a hit and a miss in the same group",
		sale(del(r.dropSale(hit[0].AsInt())), del(r.dropSale(miss[0].AsInt()))))

	// The same day and product, at another price: (group, brand) nets to
	// zero, the group's SUM does not.
	gone := r.dropSale(rows[2][0].AsInt())
	before := r.eng.Stats()
	r.apply("-/+ rows net to zero for DISTINCT but not for SUM",
		sale(del(gone), ins(r.newSale(gone[1].AsInt(), gone[2].AsInt(), types.Float(gone[4].AsFloat()+0.25)))))
	distinctOnly := len(r.plan.View.Aggregates()) == 3 // product_sales: SUM, COUNT, COUNT(DISTINCT)
	if got := r.eng.Stats(); distinctOnly && got.GroupRecomputes != before.GroupRecomputes {
		r.t.Fatalf("a delta netting to zero per (group, brand) recomputed: %+v -> %+v", before, got)
	}

	before = r.eng.Stats()
	r.apply("dimension update (product.brand rename) still recomputes", maintain.Delta{Table: "product",
		Updates: []maintain.Update{r.update("product", 3, map[string]types.Value{"brand": types.Str("renamed")})}})
	readsBrand := strings.Contains(r.plan.View.SQL(), "brand")
	if got := r.eng.Stats(); readsBrand && got.GroupRecomputes == before.GroupRecomputes {
		r.t.Fatal("a brand rename did not recompute a view with COUNT(DISTINCT brand)")
	}
}

// random applies one random single- or multi-row fact delta.
func (r *shadowRig) random(step int) {
	d := maintain.Delta{Table: "sale"}
	for n := 1 + r.rng.Intn(3)*r.rng.Intn(2); n > 0; n-- {
		pick := func() int64 { return r.live[r.rng.Intn(len(r.live))] }
		switch r.rng.Intn(4) {
		case 0:
			d.Inserts = append(d.Inserts, r.newSale(int64(1+r.rng.Intn(57)), int64(1+r.rng.Intn(12)), r.quarters()))
		case 1:
			d.Deletes = append(d.Deletes, r.dropSale(pick()))
		case 2:
			d.Updates = append(d.Updates, r.update("sale", pick(), map[string]types.Value{"price": r.quarters()}))
		case 3:
			d.Updates = append(d.Updates, r.update("sale", pick(), map[string]types.Value{"timeid": types.Int(int64(1 + r.rng.Intn(57)))}))
		}
	}
	r.apply(fmt.Sprintf("random step %d", step), d)
}

func TestAvoidanceShadowsFullRecompute(t *testing.T) {
	for _, v := range shadowViews {
		for _, paged := range []bool{false, true} {
			name := v.name + "/memory"
			if paged {
				name = v.name + "/paged"
			}
			t.Run(name, func(t *testing.T) {
				r := newShadowRig(t, v.sql, paged)
				r.scripted()
				for step := 0; step < 25; step++ {
					r.random(step)
				}
				if s := r.eng.Stats(); s.RecomputesAvoided == 0 || s.GroupRecomputes == 0 {
					t.Fatalf("the stream must both avoid and recompute: %+v", s)
				}
			})
		}
	}
}

// TestPatchedPublishShadowsRekey covers the one mutation site the shadow
// views above never reach: with the sale auxiliary view omitted, a brand
// rename re-keys whole view groups (Engine.rekey) instead of adjusting
// them. The patched Snapshot must follow the moved groups.
func TestPatchedPublishShadowsRekey(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "paged"}[paged], func(t *testing.T) {
			r := newShadowRig(t, `SELECT product.id, product.brand, SUM(price) AS total, COUNT(*) AS n
				FROM sale, product WHERE sale.productid = product.id GROUP BY product.id, product.brand`, paged)
			if r.eng.Aux("sale") != nil {
				t.Fatal("sale auxiliary view kept; the rekey path is not reached")
			}
			moved := 0
			for step := 0; step < 25; step++ {
				if step%3 != 0 {
					r.random(step)
					continue
				}
				before := r.eng.Stats().GroupAdjusts
				id := int64(1 + r.rng.Intn(12))
				r.apply(fmt.Sprintf("rekey step %d", step), maintain.Delta{Table: "product",
					Updates: []maintain.Update{r.update("product", id, map[string]types.Value{
						"brand": types.Str(fmt.Sprintf("brand%d", step))})}})
				moved += r.eng.Stats().GroupAdjusts - before
			}
			if moved == 0 {
				t.Fatal("no brand rename re-keyed a group")
			}
		})
	}
}
