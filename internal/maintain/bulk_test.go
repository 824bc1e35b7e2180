package maintain

import (
	"testing"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Tests of multi-hundred-row deltas: bulk inserts, updates and deletes that
// touch many groups at once, empty some of them, and kill and re-create
// groups inside a single apply. Prices are exact binary fractions
// (multiples of 0.25), so float accumulation admits no rounding slack and
// any ordering divergence from a from-scratch recomputation surfaces as a
// bag mismatch.

const bulkCSMASSQL = `
	SELECT time.month, store.city, SUM(price) AS total, AVG(price) AS avgp, COUNT(*) AS cnt
	FROM sale, time, store
	WHERE sale.timeid = time.id AND sale.storeid = store.id AND time.year = 1997
	GROUP BY time.month, store.city`

// bulkViews are the view shapes the bulk tests run: adjust-only CSMAS, a
// recomputed DISTINCT, and every stored-aggregate kind at once.
var bulkViews = []struct{ name, sql string }{
	{"csmas", bulkCSMASSQL},
	{"distinct_recompute", productSalesSQL},
	{"stored_mixed", storedMixSQL},
}

// bulkInsertSales inserts n fresh sale rows into the oracle database and
// returns them as one delta. The rows spread across times, products, and
// stores so several groups are touched, including 1998 rows the view
// filters out.
func bulkInsertSales(f *fixture, n int) Delta {
	f.t.Helper()
	ins := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		f.saleID++
		tid := int64(i%5 + 1) // time 5 is 1998: filtered out of the view
		pid := int64(100 + i%3)
		sid := int64(7 + i%2)
		price := float64(i%16) * 0.25
		row := tuple.Tuple{types.Int(f.saleID), types.Int(tid), types.Int(pid), types.Int(sid), types.Float(price)}
		if err := f.db.Insert("sale", row); err != nil {
			f.t.Fatal(err)
		}
		ins = append(ins, row)
	}
	return Delta{Table: "sale", Inserts: ins}
}

// bulkDeleteSales deletes the sale rows with the given keys from the
// oracle and returns them as one delta.
func bulkDeleteSales(f *fixture, keys []int64) Delta {
	f.t.Helper()
	dels := make([]tuple.Tuple, 0, len(keys))
	for _, k := range keys {
		row, err := f.db.Delete("sale", types.Int(k))
		if err != nil {
			f.t.Fatal(err)
		}
		dels = append(dels, row)
	}
	return Delta{Table: "sale", Deletes: dels}
}

// bulkUpdateSales updates the price of the sale rows with the given keys
// and returns the update pairs as one delta (expanded by the engine into
// interleaved delete/insert rows — negative weights).
func bulkUpdateSales(f *fixture, keys []int64) Delta {
	f.t.Helper()
	ups := make([]Update, 0, len(keys))
	for i, k := range keys {
		old, upd, err := f.db.Update("sale", types.Int(k),
			map[string]types.Value{"price": types.Float(float64(i%8)*0.25 + 100)})
		if err != nil {
			f.t.Fatal(err)
		}
		ups = append(ups, Update{Old: old, New: upd})
	}
	return Delta{Table: "sale", Updates: ups}
}

// TestBulkApplyMatchesRecompute drives each view through a 400-row insert,
// 61 updates, a mass delete that empties groups, and one delta that deletes
// every remaining bulk row and inserts 300 fresh ones, so groups die and
// are re-created inside a single apply. fixture.check compares the view
// and every auxiliary view against a from-scratch recomputation after each
// delta; the auxiliary hash indexes must survive the churn intact.
func TestBulkApplyMatchesRecompute(t *testing.T) {
	for _, tc := range bulkViews {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, retailDDL, tc.sql, true)
			f.seedRetail()
			f.initEngine()

			firstID := f.saleID + 1
			f.apply(bulkInsertSales(f, 400))
			lastID := f.saleID

			var upd []int64
			for k := firstID; k <= firstID+120; k += 2 {
				upd = append(upd, k)
			}
			f.apply(bulkUpdateSales(f, upd))

			var dels, rest []int64
			for k := firstID; k <= lastID; k++ {
				if (k-firstID)%3 != 0 {
					dels = append(dels, k)
				} else {
					rest = append(rest, k)
				}
			}
			f.apply(bulkDeleteSales(f, dels))

			dd := bulkDeleteSales(f, rest)
			di := bulkInsertSales(f, 300)
			f.apply(Delta{Table: "sale", Deletes: dd.Deletes, Inserts: di.Inserts})

			for _, tb := range f.view.Tables {
				if at := f.engine.Aux(tb); at != nil {
					if err := at.CheckIndexes(); err != nil {
						t.Fatalf("aux table %s: %v", tb, err)
					}
				}
			}
		})
	}
}

// TestFaultInjectionBulkApply sweeps an injected failure through every
// reachable injection point of multi-row applies and requires bit-identical
// rollback every time. Covers the incremental CSMAS path, the recompute
// (DISTINCT) path, and deltas the net-effect split divides between
// adjusting and recomputing groups.
func TestFaultInjectionBulkApply(t *testing.T) {
	for _, tc := range bulkViews {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, retailDDL, tc.sql, true)
			f.seedRetail()
			f.initEngine()

			// A committed bulk insert to give later deltas state to mutate.
			f.apply(bulkInsertSales(f, 64))
			firstID := f.saleID - 63

			// Sweep a bulk insert.
			sweepApply(t, f, bulkInsertSales(f, 48))

			// Sweep a mixed update (negative weights, group shrink).
			var keys []int64
			for k := firstID; k < firstID+24; k++ {
				keys = append(keys, k)
			}
			sweepApply(t, f, bulkUpdateSales(f, keys))

			// Sweep a bulk delete that empties groups.
			var dels []int64
			for k := firstID + 24; k < firstID+56; k++ {
				dels = append(dels, k)
			}
			sweepApply(t, f, bulkDeleteSales(f, dels))
		})
	}
}
