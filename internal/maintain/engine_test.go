package maintain

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mindetail/internal/core"
	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
	"mindetail/internal/schema"
	"mindetail/internal/sqlparse"
	"mindetail/internal/storage"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

func catalogFromDDL(t *testing.T, ddl string) *schema.Catalog {
	t.Helper()
	stmts, err := sqlparse.ParseAll(ddl)
	if err != nil {
		t.Fatal(err)
	}
	cat := schema.NewCatalog()
	var fks []schema.ForeignKey
	for _, s := range stmts {
		ct := s.(*sqlparse.CreateTable)
		if err := cat.AddTable(ct.Table); err != nil {
			t.Fatal(err)
		}
		fks = append(fks, ct.FKs...)
	}
	for _, fk := range fks {
		if err := cat.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const retailDDL = `
	CREATE TABLE time (id INTEGER PRIMARY KEY, day INTEGER, month INTEGER, year INTEGER);
	CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR MUTABLE, category VARCHAR);
	CREATE TABLE store (id INTEGER PRIMARY KEY, city VARCHAR, manager VARCHAR MUTABLE);
	CREATE TABLE sale (id INTEGER PRIMARY KEY,
		timeid INTEGER REFERENCES time,
		productid INTEGER REFERENCES product,
		storeid INTEGER REFERENCES store,
		price FLOAT MUTABLE);`

// fixture couples a maintenance engine with an oracle database: every delta
// is applied to both and the engine's snapshot is compared against a
// brute-force recomputation from the oracle.
type fixture struct {
	t      *testing.T
	cat    *schema.Catalog
	db     *storage.DB
	view   *gpsj.View
	engine *Engine
	saleID int64
}

func newFixture(t *testing.T, ddl, viewSQL string, needSets bool) *fixture {
	t.Helper()
	cat := catalogFromDDL(t, ddl)
	s, err := sqlparse.Parse(viewSQL)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gpsj.FromSelect(cat, "v", s.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Derive(v)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{t: t, cat: cat, db: storage.NewDB(cat), view: v, saleID: 1000}
	f.engine = mustEngine(t, p)
	f.engine.UseNeedSets = needSets
	return f
}

func (f *fixture) seedRetail() {
	f.t.Helper()
	ins := func(table string, vals ...types.Value) {
		f.t.Helper()
		if err := f.db.Insert(table, tuple.Tuple(vals)); err != nil {
			f.t.Fatal(err)
		}
	}
	for id := 1; id <= 6; id++ {
		year := 1997
		if id > 4 {
			year = 1998
		}
		ins("time", types.Int(int64(id)), types.Int(int64(id)), types.Int(int64((id-1)%3+1)), types.Int(int64(year)))
	}
	ins("product", types.Int(100), types.Str("acme"), types.Str("tools"))
	ins("product", types.Int(101), types.Str("bolt"), types.Str("tools"))
	ins("product", types.Int(102), types.Str("cask"), types.Str("food"))
	ins("store", types.Int(7), types.Str("aalborg"), types.Str("kim"))
	ins("store", types.Int(8), types.Str("odense"), types.Str("ida"))
	sale := func(id, tid, pid, sid int64, price float64) {
		ins("sale", types.Int(id), types.Int(tid), types.Int(pid), types.Int(sid), types.Float(price))
	}
	sale(1, 1, 100, 7, 10)
	sale(2, 1, 100, 7, 10)
	sale(3, 1, 101, 7, 5)
	sale(4, 2, 101, 8, 7)
	sale(5, 3, 102, 8, 12)
	sale(6, 5, 100, 7, 99) // 1998
}

func (f *fixture) initEngine() {
	f.t.Helper()
	if err := f.engine.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		f.t.Fatal(err)
	}
	f.check("after init")
}

// insertSale inserts a fresh sale row into both oracle and engine.
func (f *fixture) insertSale(tid, pid, sid int64, price float64) {
	f.t.Helper()
	f.saleID++
	row := tuple.Tuple{types.Int(f.saleID), types.Int(tid), types.Int(pid), types.Int(sid), types.Float(price)}
	if err := f.db.Insert("sale", row); err != nil {
		f.t.Fatal(err)
	}
	f.apply(Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
}

func (f *fixture) deleteRow(table string, key int64) {
	f.t.Helper()
	row, err := f.db.Delete(table, types.Int(key))
	if err != nil {
		f.t.Fatal(err)
	}
	f.apply(Delta{Table: table, Deletes: []tuple.Tuple{row}})
}

func (f *fixture) updateRow(table string, key int64, set map[string]types.Value) {
	f.t.Helper()
	old, upd, err := f.db.Update(table, types.Int(key), set)
	if err != nil {
		f.t.Fatal(err)
	}
	f.apply(Delta{Table: table, Updates: []Update{{Old: old, New: upd}}})
}

func (f *fixture) insertRow(table string, vals ...types.Value) {
	f.t.Helper()
	row := tuple.Tuple(vals)
	if err := f.db.Insert(table, row); err != nil {
		f.t.Fatal(err)
	}
	f.apply(Delta{Table: table, Inserts: []tuple.Tuple{row}})
}

func (f *fixture) apply(d Delta) {
	f.t.Helper()
	if err := f.engine.Apply(d); err != nil {
		f.t.Fatalf("Apply(%s): %v", d.Table, err)
	}
	f.check(fmt.Sprintf("after delta on %s", d.Table))
}

// check compares the maintained view against brute-force recomputation.
func (f *fixture) check(when string) {
	f.t.Helper()
	want, err := f.view.Evaluate(f.db)
	if err != nil {
		f.t.Fatal(err)
	}
	got := f.engine.Snapshot()
	if !ra.EqualBag(got, want) {
		f.t.Fatalf("%s: maintained view diverged\nmaintained:\n%s\nrecomputed:\n%s",
			when, got.Format(), want.Format())
	}
	// The auxiliary views must also match a fresh materialization.
	mats, err := f.engine.Plan().Materialize(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	})
	if err != nil {
		f.t.Fatal(err)
	}
	for tb, fresh := range mats {
		cur := f.engine.Aux(tb).Relation()
		if !ra.EqualBag(cur, fresh) {
			f.t.Fatalf("%s: auxiliary view %s diverged\nmaintained:\n%s\nfresh:\n%s",
				when, tb, cur.Format(), fresh.Format())
		}
	}
}

const productSalesSQL = `
	SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
	       COUNT(DISTINCT brand) AS DifferentBrands
	FROM sale, time, product
	WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
	GROUP BY time.month`

func TestMaintainProductSalesScripted(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()

	// Fact inserts: duplicate group, new group, filtered-out (1998).
	f.insertSale(1, 100, 7, 20)
	f.insertSale(2, 102, 7, 3)
	f.insertSale(5, 100, 7, 50) // 1998: must not change the view
	// Fact deletes, including one that empties a group.
	f.deleteRow("sale", 5) // (month 3) group dies
	f.deleteRow("sale", 4)
	// Price update on the fact table.
	f.updateRow("sale", 1, map[string]types.Value{"price": types.Float(11)})
	// Brand update on the dimension: affects COUNT(DISTINCT brand).
	f.updateRow("product", 101, map[string]types.Value{"brand": types.Str("acme")})
	f.updateRow("product", 101, map[string]types.Value{"brand": types.Str("zeta")})
	// Dimension inserts: no view impact (nothing references them yet).
	f.insertRow("time", types.Int(7), types.Int(7), types.Int(1), types.Int(1997))
	f.insertRow("product", types.Int(103), types.Str("dune"), types.Str("food"))
	// Then a sale referencing the new dimension rows.
	f.insertSale(7, 103, 7, 8)
	// Dimension delete of an unreferenced row.
	f.deleteRow("sale", f.saleID)
	f.deleteRow("product", 103)
}

// TestStrategyEquivalence: both recompute strategies — delta-scoped by
// default, the full auxiliary join under ForceFullRecompute — maintain the
// view that brute-force recomputation yields, over a stream that exercises
// the recompute path (COUNT DISTINCT), CSMAS adjustments, and a dimension
// update.
func TestStrategyEquivalence(t *testing.T) {
	for _, full := range []bool{false, true} {
		name := "scoped"
		if full {
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, retailDDL, productSalesSQL, true)
			f.engine.ForceFullRecompute = full
			f.seedRetail()
			f.initEngine()
			f.insertSale(2, 102, 7, 3)
			f.deleteRow("sale", 2)
			f.updateRow("sale", 3, map[string]types.Value{"price": types.Float(42)})
			f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("zenc")})
		})
	}
}

func TestMaintainCSMASOnly(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT time.month, store.city, SUM(price) AS total, AVG(price) AS avgp, COUNT(*) AS cnt
		FROM sale, time, store
		WHERE sale.timeid = time.id AND sale.storeid = store.id AND time.year = 1997
		GROUP BY time.month, store.city`, true)
	f.seedRetail()
	f.initEngine()
	f.insertSale(1, 100, 8, 30)
	f.insertSale(2, 101, 8, 2.5)
	f.deleteRow("sale", 1)
	f.deleteRow("sale", 2)
	f.deleteRow("sale", 3) // group (1, aalborg) shrinks/dies
	f.updateRow("sale", 4, map[string]types.Value{"price": types.Float(70)})
}

func TestMaintainMinMax(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT sale.productid, MAX(sale.price) AS MaxPrice, MIN(sale.price) AS MinPrice,
		       SUM(sale.price) AS TotalPrice, COUNT(*) AS TotalCount
		FROM sale GROUP BY sale.productid`, true)
	f.seedRetail()
	f.initEngine()
	f.insertSale(1, 100, 7, 500) // raises MAX(100)
	f.insertSale(2, 100, 7, 0.5) // lowers MIN(100)
	stats := f.engine.Stats()
	if stats.GroupRecomputes != 0 {
		t.Errorf("insert-only MIN/MAX batches must use the SMA fast path, got %d recomputes", stats.GroupRecomputes)
	}
	// Deleting the extremum forces recomputation from the auxiliary view.
	f.deleteRow("sale", f.saleID-1) // the 500 row
	if f.engine.Stats().GroupRecomputes == 0 {
		t.Error("deleting the extremum must trigger partial recomputation")
	}
	f.deleteRow("sale", f.saleID)
	f.updateRow("sale", 1, map[string]types.Value{"price": types.Float(0.01)})
}

func TestMaintainEliminatedRoot(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.id`, true)
	f.seedRetail()
	if f.engine.Aux("sale") != nil {
		t.Fatal("sale aux should be omitted")
	}
	f.initEngine()
	f.insertSale(1, 100, 7, 42)
	f.insertSale(2, 102, 8, 1)
	f.deleteRow("sale", 1)
	f.deleteRow("sale", 2)
	f.updateRow("sale", 3, map[string]types.Value{"price": types.Float(9)})
	// Product inserts/deletes with no referencing sales: no view impact.
	f.insertRow("product", types.Int(110), types.Str("new"), types.Str("misc"))
	f.deleteRow("product", 110)
}

func TestMaintainRekeyWithOmittedRoot(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT product.id, product.brand, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.id, product.brand`, true)
	f.seedRetail()
	if f.engine.Aux("sale") != nil {
		t.Fatal("sale aux should be omitted (product is k-annotated)")
	}
	f.initEngine()
	// Renaming a brand re-keys the group without any join.
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("renamed")})
	f.insertSale(1, 100, 7, 5)
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("again")})
	f.deleteRow("sale", f.saleID)
}

func TestMaintainExposedUpdates(t *testing.T) {
	// year is mutable and used in a local condition: time has exposed
	// updates, join reduction on sale is disabled, and year updates move
	// whole time rows (and their sales) in and out of the view.
	ddl := strings.Replace(retailDDL, "year INTEGER)", "year INTEGER MUTABLE)", 1)
	f := newFixture(t, ddl, productSalesSQL, true)
	if len(f.engine.Plan().Aux["sale"].SemiJoins) != 1 {
		t.Fatalf("sale must semijoin only with product: %v", f.engine.Plan().Aux["sale"].SemiJoins)
	}
	f.seedRetail()
	f.initEngine()
	// Move a 1998 day into 1997: its sale (id 6) enters the view.
	f.updateRow("time", 5, map[string]types.Value{"year": types.Int(1997)})
	// And back out again.
	f.updateRow("time", 5, map[string]types.Value{"year": types.Int(1998)})
	// Move a 1997 day out: sales 1,2,3 leave the view.
	f.updateRow("time", 1, map[string]types.Value{"year": types.Int(1996)})
	f.insertSale(1, 100, 7, 77) // references the now-1996 day: no impact
	f.updateRow("time", 1, map[string]types.Value{"year": types.Int(1997)})
}

func TestMaintainGlobalAggregate(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT SUM(price) AS total, COUNT(*) AS cnt, MAX(price) AS hi
		FROM sale, time WHERE sale.timeid = time.id AND time.year = 1997`, true)
	f.seedRetail()
	f.initEngine()
	f.insertSale(1, 100, 7, 123)
	f.deleteRow("sale", f.saleID)
	// Empty the view entirely: the global group must survive with
	// COUNT = 0 and NULL SUM/MAX.
	for _, id := range []int64{1, 2, 3, 4, 5} {
		f.deleteRow("sale", id)
	}
	if got := f.engine.Snapshot(); got.Len() != 1 {
		t.Fatalf("global view must keep one row:\n%s", got.Format())
	}
	f.insertSale(2, 101, 8, 6)
}

func TestMaintainSnowflake(t *testing.T) {
	ddl := `
	CREATE TABLE brand (id INTEGER PRIMARY KEY, name VARCHAR MUTABLE, country VARCHAR);
	CREATE TABLE product (id INTEGER PRIMARY KEY, brandid INTEGER REFERENCES brand, category VARCHAR);
	CREATE TABLE sale (id INTEGER PRIMARY KEY, productid INTEGER REFERENCES product, price FLOAT MUTABLE);`
	f := newFixture(t, ddl, `
		SELECT brand.name, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product, brand
		WHERE sale.productid = product.id AND product.brandid = brand.id
		GROUP BY brand.name`, true)
	f.insertNoCheck("brand", types.Int(1), types.Str("acme"), types.Str("dk"))
	f.insertNoCheck("brand", types.Int(2), types.Str("bolt"), types.Str("se"))
	f.insertNoCheck("product", types.Int(10), types.Int(1), types.Str("tools"))
	f.insertNoCheck("product", types.Int(11), types.Int(2), types.Str("tools"))
	f.insertNoCheck("sale", types.Int(1), types.Int(10), types.Float(5))
	f.insertNoCheck("sale", types.Int(2), types.Int(10), types.Float(5))
	f.insertNoCheck("sale", types.Int(3), types.Int(11), types.Float(9))
	f.initEngine()
	f.insertRow("sale", types.Int(4), types.Int(11), types.Float(2))
	f.deleteRow("sale", 1)
	// Renaming a brand moves an entire subtree of sales between groups.
	f.updateRow("brand", 1, map[string]types.Value{"name": types.Str("bolt")})
	f.updateRow("brand", 1, map[string]types.Value{"name": types.Str("acme2")})
	f.updateRow("sale", 2, map[string]types.Value{"price": types.Float(50)})
}

// insertNoCheck seeds the oracle before engine initialization.
func (f *fixture) insertNoCheck(table string, vals ...types.Value) {
	f.t.Helper()
	if err := f.db.Insert(table, tuple.Tuple(vals)); err != nil {
		f.t.Fatal(err)
	}
}

func TestMaintainIgnoresUnreferencedTable(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()
	// store is not referenced by the view; its deltas are no-ops.
	f.updateRow("store", 7, map[string]types.Value{"manager": types.Str("bo")})
	if f.engine.Stats().DeltasApplied != 0 {
		t.Error("delta on unreferenced table must not count as applied")
	}
}

func TestMaintainDetachedSources(t *testing.T) {
	// The defining property of the paper: after Init, maintenance works
	// with the sources physically unreachable.
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	if err := f.engine.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		t.Fatal(err)
	}
	before, err := f.view.Evaluate(f.db)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare the delta rows first (a change log would deliver them), then
	// detach the source.
	ins := tuple.Tuple{types.Int(2000), types.Int(1), types.Int(100), types.Int(7), types.Float(40)}
	if err := f.db.Insert("sale", ins); err != nil {
		t.Fatal(err)
	}
	after, err := f.view.Evaluate(f.db)
	if err != nil {
		t.Fatal(err)
	}
	f.db.Detach()
	if err := f.engine.Apply(Delta{Table: "sale", Inserts: []tuple.Tuple{ins}}); err != nil {
		t.Fatal(err)
	}
	got := f.engine.Snapshot()
	if ra.EqualBag(got, before) {
		t.Error("view did not change")
	}
	if !ra.EqualBag(got, after) {
		t.Errorf("detached maintenance diverged:\n%s\nwant:\n%s", got.Format(), after.Format())
	}
}

func TestMaintainErrorPaths(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()
	// Wrong arity.
	if err := f.engine.Apply(Delta{Table: "sale", Inserts: []tuple.Tuple{{types.Int(1)}}}); err == nil {
		t.Error("arity error not detected")
	}
	// Deleting a row that was never inserted drives a group negative.
	bogus := tuple.Tuple{types.Int(9999), types.Int(1), types.Int(100), types.Int(7), types.Float(1)}
	err := f.engine.Apply(Delta{Table: "sale", Deletes: []tuple.Tuple{bogus, bogus, bogus, bogus}})
	if err == nil {
		t.Error("inconsistent delete stream not detected")
	}
}

// TestMaintainRandomStreams drives several view shapes with seeded random
// delta streams, checking equivalence with recomputation after every delta.
func TestMaintainRandomStreams(t *testing.T) {
	views := []struct {
		name string
		sql  string
	}{
		{"paper", productSalesSQL},
		{"csmas", `SELECT time.month, SUM(price) AS total, AVG(price) AS a, COUNT(*) AS cnt
			FROM sale, time WHERE sale.timeid = time.id AND time.year = 1997 GROUP BY time.month`},
		{"minmax", `SELECT sale.productid, MIN(price) AS lo, MAX(price) AS hi, COUNT(*) AS cnt
			FROM sale GROUP BY sale.productid`},
		{"eliminated", `SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
			FROM sale, product WHERE sale.productid = product.id GROUP BY product.id`},
		{"distinct", `SELECT store.city, COUNT(DISTINCT brand) AS brands, SUM(price) AS total
			FROM sale, product, store
			WHERE sale.productid = product.id AND sale.storeid = store.id
			GROUP BY store.city`},
	}
	for _, vc := range views {
		for _, needSets := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/need=%v", vc.name, needSets), func(t *testing.T) {
				runRandomStream(t, vc.sql, needSets, 42)
			})
		}
	}
}

func runRandomStream(t *testing.T, viewSQL string, needSets bool, seed int64) {
	t.Helper()
	f := newFixture(t, retailDDL, viewSQL, needSets)
	f.seedRetail()
	f.initEngine()
	rng := rand.New(rand.NewSource(seed))
	liveSales := []int64{1, 2, 3, 4, 5, 6}
	for step := 0; step < 60; step++ {
		switch rng.Intn(5) {
		case 0, 1: // insert a sale
			tid := int64(rng.Intn(6) + 1)
			pid := int64(rng.Intn(3) + 100)
			sid := int64(rng.Intn(2) + 7)
			f.insertSale(tid, pid, sid, float64(rng.Intn(50))+0.5)
			liveSales = append(liveSales, f.saleID)
		case 2: // delete a sale
			if len(liveSales) == 0 {
				continue
			}
			i := rng.Intn(len(liveSales))
			f.deleteRow("sale", liveSales[i])
			liveSales = append(liveSales[:i], liveSales[i+1:]...)
		case 3: // update a sale price
			if len(liveSales) == 0 {
				continue
			}
			id := liveSales[rng.Intn(len(liveSales))]
			f.updateRow("sale", id, map[string]types.Value{"price": types.Float(float64(rng.Intn(80)))})
		case 4: // rename a brand
			pid := int64(rng.Intn(3) + 100)
			f.updateRow("product", pid, map[string]types.Value{"brand": types.Str(fmt.Sprintf("b%d", rng.Intn(4)))})
		}
	}
}

// TestMinimalityDropAttribute spot-checks Theorem 1's minimality: removing
// the COUNT(*) column from the compressed auxiliary view makes some delta
// stream unmaintainable (here: a deletion that must detect group death).
func TestMinimalityDropAttribute(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()
	// Sabotage: forget the count column's contents (simulate its absence
	// by zeroing, which is what "not storing it" would give maintenance).
	sale := f.engine.Aux("sale")
	_ = sale.store.Scan(func(_ string, row tuple.Tuple) error {
		row[sale.cntPos] = types.Int(1)
		return nil
	})
	// A delete of one of the duplicated rows now drives the auxiliary
	// group to a wrong state; the divergence must be observable.
	row, err := f.db.Delete("sale", types.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.engine.Apply(Delta{Table: "sale", Deletes: []tuple.Tuple{row}}); err != nil {
		return // detected as inconsistent: acceptable
	}
	row2, err := f.db.Delete("sale", types.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	errApply := f.engine.Apply(Delta{Table: "sale", Deletes: []tuple.Tuple{row2}})
	want, err := f.view.Evaluate(f.db)
	if err != nil {
		t.Fatal(err)
	}
	if errApply == nil && ra.EqualBag(f.engine.Snapshot(), want) {
		t.Error("dropping COUNT(*) from the auxiliary view should break maintenance (Theorem 1 minimality)")
	}
}

// TestMaintainBatchedDelta: one Delta carrying several inserts, deletes,
// and updates at once; deletes apply first, then update pairs, then
// inserts (documented engine semantics).
func TestMaintainBatchedDelta(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()
	del1, err := f.db.Delete("sale", types.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	old, upd, err := f.db.Update("sale", types.Int(2), map[string]types.Value{"price": types.Float(77)})
	if err != nil {
		t.Fatal(err)
	}
	var inserts []tuple.Tuple
	for i := 0; i < 3; i++ {
		f.saleID++
		row := tuple.Tuple{types.Int(f.saleID), types.Int(1), types.Int(100), types.Int(7), types.Float(float64(i))}
		if err := f.db.Insert("sale", row); err != nil {
			t.Fatal(err)
		}
		inserts = append(inserts, row)
	}
	f.apply(Delta{
		Table:   "sale",
		Deletes: []tuple.Tuple{del1},
		Updates: []Update{{Old: old, New: upd}},
		Inserts: inserts,
	})
}

// TestMaintainMultiAttributeUpdate: one update changing the dimension
// reference AND the measure at once.
func TestMaintainMultiAttributeUpdate(t *testing.T) {
	f := newFixture(t, `
	CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR);
	CREATE TABLE sale (id INTEGER PRIMARY KEY,
		productid INTEGER REFERENCES product MUTABLE, price FLOAT MUTABLE);`, `
		SELECT product.brand, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.brand`, true)
	f.insertNoCheck("product", types.Int(1), types.Str("acme"))
	f.insertNoCheck("product", types.Int(2), types.Str("bolt"))
	f.insertNoCheck("sale", types.Int(1), types.Int(1), types.Float(5))
	f.initEngine()
	f.updateRow("sale", 1, map[string]types.Value{
		"productid": types.Int(2),
		"price":     types.Float(42),
	})
}

// TestMaintainNoOpUpdateSkipped: an update that changes nothing the view
// observes must not touch the engine state.
func TestMaintainNoOpUpdateSkipped(t *testing.T) {
	f := newFixture(t, retailDDL, `
		SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month`, true)
	f.seedRetail()
	f.initEngine()
	f.engine.ResetStats()
	// brand is irrelevant to this view.
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("whatever")})
	if f.engine.Stats().DetailRows != 0 {
		t.Errorf("irrelevant update produced %d detail rows", f.engine.Stats().DetailRows)
	}
}
