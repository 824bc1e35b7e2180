package warehouse

import (
	"fmt"
	"runtime"
	"testing"

	"mindetail/internal/ra"
)

// setProcs sets GOMAXPROCS, and with it the width of the propagation pool,
// restoring the previous value when the test ends. Tests that call it must
// not run in parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// addFanoutViews adds a mix of views on top of newRetail's product_sales:
// an exact copy (two engines doing identical work side by side), a
// time-free rollup (so snapshot invalidation can be observed per table),
// and a MAX view whose group recomputation path is the most fragile one.
func addFanoutViews(t *testing.T, w *Warehouse) {
	t.Helper()
	stmts := []string{
		`CREATE MATERIALIZED VIEW product_sales_replica AS
		 SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
		        COUNT(DISTINCT brand) AS DifferentBrands
		 FROM sale, time, product
		 WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
		 GROUP BY time.month`,
		`CREATE MATERIALIZED VIEW by_product AS
		 SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, product WHERE sale.productid = product.id
		 GROUP BY product.id`,
		`CREATE MATERIALIZED VIEW city_max AS
		 SELECT store.city, MAX(price) AS top, COUNT(*) AS cnt
		 FROM sale, store WHERE sale.storeid = store.id
		 GROUP BY store.city`,
	}
	for _, sql := range stmts {
		if _, err := w.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// TestFaultInjectionParallelPropagate sweeps DML through a warehouse whose
// views stage concurrently (a four-wide pool). Every injected failure must
// leave sources and all four views exactly as before the statement — the
// pool may not weaken the all-or-nothing guarantee the serial path gives.
func TestFaultInjectionParallelPropagate(t *testing.T) {
	setProcs(t, 4)
	w := newRetail(t)
	addFanoutViews(t, w)
	steps := []string{
		`INSERT INTO sale VALUES (6, 2, 100, 7, 30)`,
		`UPDATE sale SET price = 12 WHERE id = 2`,
		`UPDATE product SET brand = 'zeta' WHERE id = 101`,
		`DELETE FROM sale WHERE id = 5`,
	}
	for _, sql := range steps {
		sweepStmt(t, w, sql)
	}
}

// TestQuerySnapshotCaching pins the copy-on-write read path semantics:
// repeated reads between writes return the same published relation, a
// write invalidates snapshots only of views that reference the written
// table, and committed deltas are visible on the very next read.
func TestQuerySnapshotCaching(t *testing.T) {
	w := newRetail(t)
	addFanoutViews(t, w)

	q := func(view string) *ra.Relation {
		t.Helper()
		rel, err := w.Query(view)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}

	// Stable between writes: the same snapshot pointer is served.
	ps1, bp1 := q("product_sales"), q("by_product")
	if q("product_sales") != ps1 || q("by_product") != bp1 {
		t.Fatal("repeated Query without writes rebuilt the snapshot")
	}

	// A write to a table only product_sales references: by_product keeps
	// serving its cached snapshot, product_sales is rebuilt.
	if _, err := w.Exec(`INSERT INTO time VALUES (6, 10, 3, 1997)`); err != nil {
		t.Fatal(err)
	}
	if q("by_product") != bp1 {
		t.Fatal("insert into time invalidated by_product, which does not reference time")
	}
	ps2 := q("product_sales")
	if ps2 == ps1 {
		t.Fatal("insert into time did not invalidate product_sales")
	}

	// A write to sale invalidates both, and the new contents are visible
	// immediately on the next read.
	if _, err := w.Exec(`INSERT INTO sale VALUES (6, 2, 100, 7, 30)`); err != nil {
		t.Fatal(err)
	}
	bp2 := q("by_product")
	if bp2 == bp1 {
		t.Fatal("insert into sale did not invalidate by_product")
	}
	if ra.EqualBag(bp2, bp1) {
		t.Fatalf("committed sale is not visible in by_product:\n%s", bp2.Format())
	}
	if q("product_sales") == ps2 {
		t.Fatal("insert into sale did not invalidate product_sales")
	}

	// The published snapshots agree with a from-scratch recomputation.
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestQuerySinceVersions pins versioned reads: a view's version moves only
// when a committed delta touches it, QuerySince at the current version
// reads nothing, and versions come from one warehouse-wide counter, so
// none repeats across views or across a DROP and re-CREATE of one name.
func TestQuerySinceVersions(t *testing.T) {
	w := newRetail(t)
	addFanoutViews(t, w)
	q := func(view string, since uint64) (*ra.Relation, uint64) {
		t.Helper()
		rel, ver, err := w.QuerySince(view, since)
		if err != nil {
			t.Fatal(err)
		}
		return rel, ver
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := w.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	_, ps := q("product_sales", 0)
	_, bp := q("by_product", 0)
	if ps == 0 || bp == 0 || ps == bp {
		t.Fatalf("versions product_sales %d, by_product %d: want distinct and non-zero", ps, bp)
	}
	if rel, v := q("product_sales", ps); rel != nil || v != ps {
		t.Fatalf("read at the current version returned %v at %d", rel, v)
	}

	exec(`INSERT INTO time VALUES (6, 10, 3, 1997)`)
	if rel, _ := q("by_product", bp); rel != nil {
		t.Fatal("insert into time moved by_product's version")
	}
	if rel, v := q("product_sales", ps); rel == nil || v <= ps {
		t.Fatalf("insert into time left product_sales at version %d", v)
	}

	const byProduct = `CREATE MATERIALIZED VIEW by_product AS
		SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.id`
	exec(`DROP MATERIALIZED VIEW by_product`)
	if _, _, err := w.QuerySince("by_product", bp); err == nil {
		t.Fatal("dropped view still answers")
	}
	exec(byProduct)
	if rel, v := q("by_product", bp); rel == nil || v == bp {
		t.Fatalf("re-created by_product answered the dropped view's version %d as unchanged", bp)
	}
}

// TestWarehouseMemoShadow runs the same delta stream through a default
// warehouse staging on a four-wide pool and a serial shadow (GOMAXPROCS 1).
// After every statement, every view must match byte for byte and both must
// verify against recomputation, which checks each engine's patched
// Snapshot against Evaluate over the sources: the pool and the patched
// publish are pure performance features with no observable effect on view
// contents.
func TestWarehouseMemoShadow(t *testing.T) {
	build := func() *Warehouse {
		w := New()
		if _, err := w.Exec(setupSQL); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Exec(viewSQL); err != nil {
			t.Fatal(err)
		}
		addFanoutViews(t, w)
		return w
	}
	setProcs(t, 4)
	fast := build()
	slow := build()

	steps := []string{
		`INSERT INTO sale VALUES (6, 2, 100, 7, 30)`,
		`INSERT INTO sale VALUES (7, 1, 101, 7, 4), (8, 3, 100, 7, 6)`,
		`UPDATE sale SET price = 12 WHERE id = 2`,
		`UPDATE product SET brand = 'zeta' WHERE id = 101`,
		`DELETE FROM sale WHERE id = 1`,
		`INSERT INTO time VALUES (9, 9, 3, 1997)`,
		`UPDATE sale SET price = 3.5 WHERE id = 7`,
		`DELETE FROM sale WHERE price > 90`,
		`INSERT INTO sale VALUES (9, 9, 100, 7, 11)`,
	}
	for _, sql := range steps {
		runtime.GOMAXPROCS(4)
		if _, err := fast.Exec(sql); err != nil {
			t.Fatalf("fast %q: %v", sql, err)
		}
		runtime.GOMAXPROCS(1)
		if _, err := slow.Exec(sql); err != nil {
			t.Fatalf("slow %q: %v", sql, err)
		}
		if err := fast.Verify(); err != nil {
			t.Fatalf("after %q: fast: %v", sql, err)
		}
		if err := slow.Verify(); err != nil {
			t.Fatalf("after %q: slow: %v", sql, err)
		}
		for _, name := range fast.ViewNames() {
			fr, err := fast.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := slow.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			got, want := fr.Sorted().Format(), sr.Sorted().Format()
			if got != want {
				t.Fatalf("after %q: view %s diverged from serial shadow\npooled:\n%s\nserial:\n%s",
					sql, name, got, want)
			}
		}
	}
	if err := fast.Verify(); err != nil {
		t.Fatal(fmt.Errorf("fast: %w", err))
	}
	if err := slow.Verify(); err != nil {
		t.Fatal(fmt.Errorf("slow: %w", err))
	}
}
