package maintain

import (
	"testing"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Tests of net-effect recompute avoidance (splitAffected): the decision
// table pinned through the work counters, and failure atomicity on the
// adjust-instead-of-recompute branch.

// storedMixSQL mixes every stored-aggregate kind with a CSMAS component, so
// one delta can leave MIN, MAX and COUNT(DISTINCT) each untouched, raised,
// or in need of recomputation.
const storedMixSQL = `
	SELECT time.month, MIN(price) AS lo, MAX(price) AS hi,
	       COUNT(DISTINCT brand) AS brands, SUM(price) AS total, COUNT(*) AS cnt
	FROM sale, time, product
	WHERE sale.timeid = time.id AND sale.productid = product.id
	GROUP BY time.month`

const minMaxByProductSQL = `
	SELECT sale.productid, MAX(sale.price) AS hi, MIN(sale.price) AS lo,
	       SUM(sale.price) AS total, COUNT(*) AS cnt
	FROM sale GROUP BY sale.productid`

// work is the counter triple the avoidance decision moves.
type work struct{ recomputes, avoided, rows int }

// expectWork runs step and requires the exact counter movement.
func (f *fixture) expectWork(name string, want work, step func()) {
	f.t.Helper()
	before := f.engine.Stats()
	step()
	after := f.engine.Stats()
	got := work{
		recomputes: after.GroupRecomputes - before.GroupRecomputes,
		avoided:    after.RecomputesAvoided - before.RecomputesAvoided,
		rows:       after.ReaggregatedRows - before.ReaggregatedRows,
	}
	if got != want {
		f.t.Fatalf("%s: counters moved by %+v, want %+v", name, got, want)
	}
}

// TestRecomputeAvoidanceCounters pins the decision table: which deltas with
// deletions reach the detail, and how much of it.
func TestRecomputeAvoidanceCounters(t *testing.T) {
	price := func(p float64) map[string]types.Value {
		return map[string]types.Value{"price": types.Float(p)}
	}

	t.Run("distinct", func(t *testing.T) {
		f := newFixture(t, retailDDL, productSalesSQL, true)
		f.seedRetail()
		f.initEngine()
		// The brand the update removes is the brand it re-inserts.
		f.expectWork("price-only update", work{avoided: 1}, func() {
			f.updateRow("sale", 1, price(11))
		})
		// A fact delete changes a (month, brand) multiplicity: month 1 is
		// re-aggregated from its two remaining root rows.
		f.expectWork("fact delete", work{recomputes: 1, rows: 2}, func() {
			f.deleteRow("sale", 2)
		})
		// So does a rename, through every fact of the product.
		f.expectWork("brand rename", work{recomputes: 2, rows: 3}, func() {
			f.updateRow("product", 101, map[string]types.Value{"brand": types.Str("zeta")})
		})
	})

	t.Run("minmax", func(t *testing.T) {
		f := newFixture(t, retailDDL, minMaxByProductSQL, true)
		f.seedRetail()
		f.initEngine()
		// Product 100 sells at {10, 10, 99}; make it {10, 10, 50, 99}.
		f.expectWork("insert", work{}, func() { f.insertSale(1, 100, 7, 50) })
		f.expectWork("delete missing both extrema", work{avoided: 1}, func() {
			f.deleteRow("sale", f.saleID)
		})
		// {10, 10, 99} loses its maximum: the (100, 10) root row remains.
		f.expectWork("delete hitting the maximum", work{recomputes: 1, rows: 1}, func() {
			f.deleteRow("sale", 6)
		})
		// {10, 10}: the stored row does not know there is a second 10.
		f.expectWork("delete of one of two tied extrema", work{recomputes: 1, rows: 1}, func() {
			f.deleteRow("sale", 1)
		})
		// Product 101 sells at {5, 7}. The old image is the stored maximum,
		// so the group recomputes even though the new image lies beyond it —
		// the decision reads the pre-delta row, before anything is raised.
		f.expectWork("update from the maximum to beyond it", work{recomputes: 1, rows: 2}, func() {
			f.updateRow("sale", 4, price(20))
		})
		f.insertSale(2, 101, 8, 10) // {5, 10, 20}
		f.expectWork("update between the extrema", work{avoided: 1}, func() {
			f.updateRow("sale", f.saleID, price(12))
		})
		// A new image beyond the maximum raises it without reading detail.
		f.expectWork("update from the middle to a new maximum", work{avoided: 1}, func() {
			f.updateRow("sale", f.saleID, price(40))
		})
	})
}

// TestFaultInjectionAvoidance sweeps every injection point reachable on the
// adjust-instead-of-recompute branch: a sole-fact update whose group passes
// through count zero between its two images, updates and deletes that miss
// the stored extrema and leave the DISTINCT multiset alone, and a delta
// that adjusts one group while recomputing another. MVAdjustRow
// fires before every row, so one of the sweeps' failures always lands
// between the old image's CSMAS adjust and the new image's extremum raise.
func TestFaultInjectionAvoidance(t *testing.T) {
	price := func(p float64) map[string]types.Value {
		return map[string]types.Value{"price": types.Float(p)}
	}
	update := func(f *fixture, key int64, p float64) Update {
		t.Helper()
		old, upd, err := f.db.Update("sale", types.Int(key), price(p))
		if err != nil {
			t.Fatal(err)
		}
		return Update{Old: old, New: upd}
	}
	remove := func(f *fixture, key int64) tuple.Tuple {
		t.Helper()
		row, err := f.db.Delete("sale", types.Int(key))
		if err != nil {
			t.Fatal(err)
		}
		return row
	}

	t.Run("distinct", func(t *testing.T) {
		f := newFixture(t, retailDDL, productSalesSQL, true)
		f.seedRetail()
		f.initEngine()
		before := f.engine.Stats()
		// Month 3 holds one fact: its update passes through count zero, and
		// the group (with its stored brand count) must survive that.
		sweepApply(t, f, Delta{Table: "sale", Updates: []Update{update(f, 5, 13)}})
		// Two updates in one group, netting to zero per brand.
		sweepApply(t, f, Delta{Table: "sale", Updates: []Update{update(f, 1, 11), update(f, 3, 6)}})
		if got := f.engine.Stats(); got.GroupRecomputes != before.GroupRecomputes || got.ReaggregatedRows != 0 {
			t.Fatalf("price updates on a DISTINCT view reached the detail: %+v -> %+v", before, got)
		}
	})

	t.Run("mixed", func(t *testing.T) {
		f := newFixture(t, retailDDL, storedMixSQL, true)
		f.seedRetail()
		f.initEngine()
		f.insertSale(1, 101, 7, 8) // month 1: {5, 8, 10, 10}
		mid1 := f.saleID
		f.insertSale(2, 100, 7, 50) // month 2: {7, 50, 99}
		mid2 := f.saleID
		before := f.engine.Stats()
		// Between the extrema; then to a new maximum (adjust, then raise).
		sweepApply(t, f, Delta{Table: "sale", Updates: []Update{update(f, mid1, 9)}})
		sweepApply(t, f, Delta{Table: "sale", Updates: []Update{update(f, mid1, 77)}})
		if got := f.engine.Stats(); got.GroupRecomputes != before.GroupRecomputes || got.ReaggregatedRows != before.ReaggregatedRows {
			t.Fatalf("price updates off the extrema reached the detail: %+v -> %+v", before, got)
		}
		// One delta, two fates: month 2 adjusts, month 1 loses its minimum
		// and recomputes.
		sweepApply(t, f, Delta{Table: "sale", Updates: []Update{update(f, mid2, 51), update(f, 3, 30)}})
		if got := f.engine.Stats().GroupRecomputes; got != before.GroupRecomputes+1 {
			t.Fatalf("adjust+recompute delta: %d recomputes, want %d", got, before.GroupRecomputes+1)
		}
	})

	t.Run("minmax", func(t *testing.T) {
		f := newFixture(t, retailDDL, minMaxByProductSQL, true)
		f.seedRetail()
		f.initEngine()
		f.insertSale(1, 100, 7, 50) // {10, 10, 50, 99}
		mid := f.saleID
		f.insertSale(1, 100, 7, 60)
		// The mirror of TestFaultInjectionMinMax: deleting a non-extremum
		// leaves GroupRecomputes alone and counts one avoided recompute per
		// attempt — the decision precedes every injection point.
		before := f.engine.Stats()
		sweepApply(t, f, Delta{Table: "sale", Deletes: []tuple.Tuple{remove(f, f.saleID)}})
		after := f.engine.Stats()
		if after.GroupRecomputes != before.GroupRecomputes || after.RecomputesAvoided == before.RecomputesAvoided {
			t.Fatalf("non-extremum delete: stats %+v -> %+v", before, after)
		}
		// A hit and a miss in the same group: the group recomputes.
		sweepApply(t, f, Delta{Table: "sale", Deletes: []tuple.Tuple{remove(f, mid), remove(f, 6)}})
		if got := f.engine.Stats().GroupRecomputes; got != after.GroupRecomputes+1 {
			t.Fatalf("hit+miss delta: %d recomputes, want %d", got, after.GroupRecomputes+1)
		}
		// Unswept, the mirror assertion is exact.
		f.insertSale(2, 101, 8, 6) // {5, 6, 7}
		f.expectWork("non-extremum delete", work{avoided: 1}, func() { f.deleteRow("sale", f.saleID) })
	})
}
