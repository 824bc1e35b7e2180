package maintain

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mindetail/internal/core"
	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
	"mindetail/internal/sqlparse"
	"mindetail/internal/storage"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// sharedFixture couples a SharedEngines coordinator with an oracle DB.
type sharedFixture struct {
	t      *testing.T
	db     *storage.DB
	views  []*gpsj.View
	se     *SharedEngines
	saleID int64
}

func newSharedFixture(t *testing.T, viewSQLs ...string) *sharedFixture {
	t.Helper()
	cat := catalogFromDDL(t, retailDDL)
	var views []*gpsj.View
	for i, sql := range viewSQLs {
		s, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		v, err := gpsj.FromSelect(cat, fmt.Sprintf("v%d", i), s.(*sqlparse.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	sp, err := core.DeriveShared(views)
	if err != nil {
		t.Fatal(err)
	}
	return &sharedFixture{
		t:      t,
		db:     storage.NewDB(cat),
		views:  views,
		se:     mustShared(t, sp),
		saleID: 1000,
	}
}

func (f *sharedFixture) seedRetail() {
	f.t.Helper()
	ff := &fixture{t: f.t, db: f.db}
	ff.seedRetail()
}

func (f *sharedFixture) init() {
	f.t.Helper()
	if err := f.se.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		f.t.Fatal(err)
	}
	f.check("init")
}

func (f *sharedFixture) apply(d Delta) {
	f.t.Helper()
	if err := f.se.Apply(d); err != nil {
		f.t.Fatalf("Apply(%s): %v", d.Table, err)
	}
	f.check(fmt.Sprintf("after delta on %s", d.Table))
}

func (f *sharedFixture) check(when string) {
	f.t.Helper()
	for i, v := range f.views {
		want, err := v.Evaluate(f.db)
		if err != nil {
			f.t.Fatal(err)
		}
		got, err := f.se.Snapshot(i)
		if err != nil {
			f.t.Fatal(err)
		}
		if !ra.EqualBag(got, want) {
			f.t.Fatalf("%s: view %d (%s) diverged\nmaintained:\n%s\nrecomputed:\n%s",
				when, i, v.SQL(), got.Format(), want.Format())
		}
	}
}

// TestSharedEnginesResidualConditions: two views with conflicting year
// conditions maintained over one shared auxiliary set, with residual
// filters doing the per-view selection.
func TestSharedEnginesResidualConditions(t *testing.T) {
	f := newSharedFixture(t,
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
		 GROUP BY time.month`,
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE time.year = 1998 AND sale.timeid = time.id
		 GROUP BY time.month`,
	)
	f.seedRetail()
	f.init()

	ins := func(tid, pid, sid int64, price float64) {
		f.t.Helper()
		f.saleID++
		row := tuple.Tuple{types.Int(f.saleID), types.Int(tid), types.Int(pid), types.Int(sid), types.Float(price)}
		if err := f.db.Insert("sale", row); err != nil {
			f.t.Fatal(err)
		}
		f.apply(Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
	}
	ins(1, 100, 7, 10) // 1997: only V1 moves
	ins(5, 101, 8, 20) // 1998: only V2 moves
	// Delete from each year.
	for _, id := range []int64{1, 6} {
		row, err := f.db.Delete("sale", types.Int(id))
		if err != nil {
			f.t.Fatal(err)
		}
		f.apply(Delta{Table: "sale", Deletes: []tuple.Tuple{row}})
	}
	// A price update.
	old, upd, err := f.db.Update("sale", types.Int(3), map[string]types.Value{"price": types.Float(99)})
	if err != nil {
		t.Fatal(err)
	}
	f.apply(Delta{Table: "sale", Updates: []Update{{Old: old, New: upd}}})
}

// TestSharedEnginesMixedClass: a CSMAS view, a MAX view, and a DISTINCT
// view over one shared set, driven by a random stream.
func TestSharedEnginesMixedClass(t *testing.T) {
	f := newSharedFixture(t,
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
		 GROUP BY time.month`,
		`SELECT sale.storeid, MAX(price) AS hi, COUNT(*) AS cnt
		 FROM sale GROUP BY sale.storeid`,
		`SELECT store.city, COUNT(DISTINCT brand) AS brands, SUM(price) AS total
		 FROM sale, product, store
		 WHERE sale.productid = product.id AND sale.storeid = store.id
		 GROUP BY store.city`,
	)
	f.seedRetail()
	f.init()

	rng := rand.New(rand.NewSource(11))
	live := []int64{1, 2, 3, 4, 5, 6}
	for step := 0; step < 40; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			f.saleID++
			row := tuple.Tuple{types.Int(f.saleID), types.Int(int64(rng.Intn(6) + 1)),
				types.Int(int64(rng.Intn(3) + 100)), types.Int(int64(rng.Intn(2) + 7)),
				types.Float(float64(rng.Intn(60)) + 0.5)}
			if err := f.db.Insert("sale", row); err != nil {
				t.Fatal(err)
			}
			live = append(live, f.saleID)
			f.apply(Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
		case 2:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			row, err := f.db.Delete("sale", types.Int(live[i]))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			f.apply(Delta{Table: "sale", Deletes: []tuple.Tuple{row}})
		case 3:
			pid := int64(rng.Intn(3) + 100)
			old, upd, err := f.db.Update("product", types.Int(pid),
				map[string]types.Value{"brand": types.Str(fmt.Sprintf("b%d", rng.Intn(3)))})
			if err != nil {
				t.Fatal(err)
			}
			f.apply(Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})
		}
	}
}

// TestSharedEnginesStorageCountedOnce: the shared tables are one copy
// regardless of how many views they serve.
func TestSharedEnginesStorageCountedOnce(t *testing.T) {
	f := newSharedFixture(t,
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month`,
		`SELECT time.month, AVG(price) AS ap, COUNT(*) AS cnt
		 FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month`,
	)
	f.seedRetail()
	f.init()
	if f.se.Views() != 2 {
		t.Fatalf("views = %d", f.se.Views())
	}
	shared := f.se.AuxBytes()
	// Identical views maintained separately would double the bytes.
	single := f.se.Engine(0).AuxBytes()
	if shared != single {
		t.Errorf("shared bytes %d != one engine's view %d (same tables)", shared, single)
	}
	// Both engines literally share the AuxTable instances.
	if f.se.Engine(0).Aux("sale") != f.se.Engine(1).Aux("sale") {
		t.Error("engines must share the same auxiliary table instance")
	}
}

// TestSharedEnginesRejectUnknownTable: a delta on a table the class's
// catalog does not define fails closed, as Warehouse.ApplyDelta does, and
// changes nothing.
func TestSharedEnginesRejectUnknownTable(t *testing.T) {
	f := newSharedFixture(t,
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month`,
	)
	f.seedRetail()
	f.init()
	before := captureEngine(f.se.Engine(0), f.views[0].Tables)
	err := f.se.Apply(Delta{Table: "nosuch", Inserts: []tuple.Tuple{{types.Int(1)}}})
	if err == nil || !strings.Contains(err.Error(), "unknown table nosuch") {
		t.Fatalf("Apply on an unknown table: err = %v, want unknown table", err)
	}
	before.requireUnchanged(t, f.se.Engine(0), f.views[0].Tables, "unknown table")
}

// TestSharedEnginesWithHaving: the HAVING filter applies per view on top
// of the shared maintenance.
func TestSharedEnginesWithHaving(t *testing.T) {
	f := newSharedFixture(t,
		`SELECT time.month, COUNT(*) AS cnt
		 FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month
		 HAVING cnt >= 3`,
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE sale.timeid = time.id GROUP BY time.month`,
	)
	f.seedRetail()
	f.init()
	f.saleID++
	row := tuple.Tuple{types.Int(f.saleID), types.Int(4), types.Int(100), types.Int(7), types.Float(2)}
	if err := f.db.Insert("sale", row); err != nil {
		t.Fatal(err)
	}
	f.apply(Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
}
