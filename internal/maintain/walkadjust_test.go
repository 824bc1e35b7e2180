package maintain

import (
	"testing"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// csmasJoinSQL is a CSMAS-only view over a three-table join: every delta
// streams from the join walk into the group adjust, and the sale auxiliary
// view is compressed to (timeid, productid) groups.
const csmasJoinSQL = `
	SELECT time.month, product.brand, SUM(price) AS total, COUNT(*) AS n
	FROM sale, time, product
	WHERE sale.timeid = time.id AND sale.productid = product.id
	GROUP BY time.month, product.brand`

// existingGroupInserts inserts n fresh sale rows into the oracle, cycling
// over the (time, product) pairs seedRetail already sells, so every row
// lands in an existing view group and an existing auxiliary group.
func existingGroupInserts(f *fixture, n int) Delta {
	f.t.Helper()
	pairs := [][2]int64{{1, 100}, {1, 101}, {2, 101}, {3, 102}, {5, 100}}
	ins := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		f.saleID++
		p := pairs[i%len(pairs)]
		row := tuple.Tuple{types.Int(f.saleID), types.Int(p[0]), types.Int(p[1]), types.Int(7), types.Float(19.99)}
		if err := f.db.Insert("sale", row); err != nil {
			f.t.Fatal(err)
		}
		ins = append(ins, row)
	}
	return Delta{Table: "sale", Inserts: ins}
}

// TestStreamedAdjustAllocsFlatInRows is the allocation guard of the
// streamed delta path: staging and committing an insert into existing
// groups allocates per delta and per touched group, never per row. The
// joined rows are not materialized and each group is journaled once, so a
// 512-row insert allocates within a small constant of a 64-row one into the
// same groups.
func TestStreamedAdjustAllocsFlatInRows(t *testing.T) {
	f := newFixture(t, retailDDL, csmasJoinSQL, true)
	f.seedRetail()
	f.initEngine()
	allocs := func(rows int) float64 {
		const runs = 8
		deltas := make([]Delta, runs+1) // AllocsPerRun adds one warm-up call
		for i := range deltas {
			deltas[i] = existingGroupInserts(f, rows)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := f.engine.Stage(deltas[next]); err != nil {
				t.Fatal(err)
			}
			f.engine.Commit()
			next++
		})
	}
	small, large := allocs(64), allocs(512)
	f.check("after the measured inserts")
	t.Logf("allocations per delta: %.0f for 64 rows, %.0f for 512 rows", small, large)
	if large-small >= 64 {
		t.Fatalf("a 512-row insert allocates %.0f times, a 64-row one %.0f: the difference must stay under 64", large, small)
	}
}
