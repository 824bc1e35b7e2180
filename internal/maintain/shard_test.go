package maintain

import (
	"fmt"
	"testing"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Tests of the sharded apply pipeline (shard.go): equivalence with the
// serial path, fault-injection rollback, and overlay netting of group
// death/recreation within one delta. Prices are exact binary fractions
// (multiples of 0.25), so float accumulation admits no rounding slack and
// any ordering divergence from the serial path would surface as a bag
// mismatch.

const shardCSMASSQL = `
	SELECT time.month, store.city, SUM(price) AS total, AVG(price) AS avgp, COUNT(*) AS cnt
	FROM sale, time, store
	WHERE sale.timeid = time.id AND sale.storeid = store.id AND time.year = 1997
	GROUP BY time.month, store.city`

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
// interleaved delete/insert rows — negative weights through the sharded
// path).
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

// shardWorkload drives one fixture through bulk inserts, updates, deletes
// (emptying some groups), and a mixed delete+reinsert delta that nets
// group death and recreation inside a single apply. Every apply is checked
// against brute-force recomputation by fixture.check.
func shardWorkload(f *fixture) {
	f.t.Helper()
	firstID := f.saleID + 1
	f.apply(bulkInsertSales(f, 400))
	lastID := f.saleID

	// Update a slice of the rows: expanded to interleaved ±1 rows.
	var upd []int64
	for k := firstID; k <= firstID+120; k += 2 {
		upd = append(upd, k)
	}
	f.apply(bulkUpdateSales(f, upd))

	// Delete enough rows that some (month, city) groups die.
	var dels []int64
	for k := firstID; k <= lastID; k++ {
		if (k-firstID)%3 != 0 {
			dels = append(dels, k)
		}
	}
	f.apply(bulkDeleteSales(f, dels))

	// Death + recreation in one delta: delete the remaining bulk rows and
	// reinsert fresh ones touching the same groups.
	var rest []int64
	for k := firstID; k <= lastID; k++ {
		if (k-firstID)%3 == 0 {
			rest = append(rest, k)
		}
	}
	dd := bulkDeleteSales(f, rest)
	di := bulkInsertSales(f, 300)
	f.apply(Delta{Table: "sale", Deletes: dd.Deletes, Inserts: di.Inserts})
}

// TestShardedApplyMatchesSerial runs the same workload through a serial
// and a sharded engine and requires identical view and auxiliary contents.
// ShardMinRows is 1, so every delta of the workload takes the sharded path
// in the sharded engine.
func TestShardedApplyMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  string
	}{
		{"csmas", shardCSMASSQL},
		{"distinct_recompute", productSalesSQL},
		{"stored_mixed", storedMixSQL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := newFixture(t, retailDDL, tc.sql, true)
			serial.seedRetail()
			serial.initEngine()

			sharded := newFixture(t, retailDDL, tc.sql, true)
			sharded.engine.Shards = 8
			sharded.engine.ShardMinRows = 1
			sharded.seedRetail()
			sharded.initEngine()

			shardWorkload(serial)
			shardWorkload(sharded)

			if got, want := sharded.engine.Snapshot(), serial.engine.Snapshot(); !ra.EqualBag(got, want) {
				t.Fatalf("sharded view diverged from serial\nsharded:\n%s\nserial:\n%s",
					got.Format(), want.Format())
			}
			for _, tb := range serial.view.Tables {
				sat, aat := serial.engine.Aux(tb), sharded.engine.Aux(tb)
				if (sat == nil) != (aat == nil) {
					t.Fatalf("aux table presence for %s differs", tb)
				}
				if sat == nil {
					continue
				}
				if !ra.EqualBag(aat.Relation(), sat.Relation()) {
					t.Fatalf("sharded aux table %s diverged from serial\nsharded:\n%s\nserial:\n%s",
						tb, aat.Relation().Format(), sat.Relation().Format())
				}
				if err := aat.CheckIndexes(); err != nil {
					t.Fatalf("sharded aux table %s: %v", tb, err)
				}
			}
		})
	}
}

// TestShardedMinRowsThreshold verifies small deltas stay serial (no shard
// metrics observed) and deltas at the threshold go sharded.
func TestShardedMinRowsThreshold(t *testing.T) {
	f := newFixture(t, retailDDL, shardCSMASSQL, true)
	f.engine.Shards = 4
	f.engine.ShardMinRows = 32
	f.seedRetail()
	f.initEngine()

	if f.engine.shardable(31) {
		t.Fatal("31 rows shardable below the 32-row threshold")
	}
	if !f.engine.shardable(32) {
		t.Fatal("32 rows not shardable at the 32-row threshold")
	}
	f.engine.ShardMinRows = 0
	if f.engine.shardable(defaultShardMinRows - 1) {
		t.Fatal("default threshold not applied")
	}
	if !f.engine.shardable(defaultShardMinRows) {
		t.Fatal("default threshold rejects a full batch")
	}
	f.engine.ShardMinRows = 32

	// Below threshold: serial path, still correct.
	f.apply(bulkInsertSales(f, 8))
	// Above threshold: sharded path.
	f.apply(bulkInsertSales(f, 200))
}

// TestFaultInjectionShardedApply sweeps an injected failure through every
// reachable injection point of sharded applies — including the new
// ShardAuxInstall and ShardMVInstall points and the worker-fired per-row
// points — and requires bit-identical rollback every time. Covers the
// incremental CSMAS path, the recompute (DISTINCT) path, and deltas the
// net-effect split divides between adjusting and recomputing groups.
func TestFaultInjectionShardedApply(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  string
	}{
		{"csmas", shardCSMASSQL},
		{"distinct_recompute", productSalesSQL},
		{"stored_mixed", storedMixSQL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, retailDDL, tc.sql, true)
			f.engine.Shards = 4
			f.engine.ShardMinRows = 1
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

// TestShardedStatsMatchSerial verifies the work counters the sharded path
// publishes (lookups, group adjustments) equal the serial path's for the
// same workload.
func TestShardedStatsMatchSerial(t *testing.T) {
	mk := func(shards int) *fixture {
		f := newFixture(t, retailDDL, shardCSMASSQL, true)
		if shards > 1 {
			f.engine.Shards = shards
			f.engine.ShardMinRows = 1
		}
		f.seedRetail()
		f.initEngine()
		f.engine.ResetStats()
		return f
	}
	serial := mk(1)
	sharded := mk(8)
	d1 := bulkInsertSales(serial, 128)
	d2 := bulkInsertSales(sharded, 128)
	serial.apply(d1)
	sharded.apply(d2)
	ss, hs := serial.engine.Stats(), sharded.engine.Stats()
	if fmt.Sprint(ss) != fmt.Sprint(hs) {
		t.Fatalf("sharded stats diverged from serial\nserial:  %+v\nsharded: %+v", ss, hs)
	}
}
